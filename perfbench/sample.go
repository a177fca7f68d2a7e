package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"

	"smdb/internal/buffer"
	"smdb/internal/lock"
	"smdb/internal/obs"
	"smdb/internal/recovery"
)

// sample accumulates what a set of rounds measured. Host times are in
// nanoseconds, one entry per call or per round.
type sample struct {
	setup, txnLat, begin, read, write, commit, abort []int64
	mttr, crash, restart, ckpt                       []int64
	// rounds holds each round's totals, and sets is the number of
	// consecutive rounds, one per input set, that make up a pass. Host
	// times in this sample are on the nominal host: each round scales its
	// own (round.run).
	rounds []roundTotals
	sets   int

	committed, planAborts, attempts int64
	deadlocks, cycles               int64

	calib  []int64   // raw calibration kernel times
	scales []float64 // per round: host time to nominal-host time
	// Host time inside txn calls, inside the collections the benchmark ran in
	// forward phases, and in the forward phases altogether.
	callNS, gcNS, fwdNS int64
	mallocs, allocBytes uint64

	fwd            counters     // layer counters across forward phases
	recBuf         buffer.Stats // buffer counters across Recover calls
	crashedLogRecs int64
	redoApplied    int64
	redoSkipped    int64
	undoApplied    int64
	tagScanLines   int64
	lcbsReinstated int64
	locksReplayed  int64
	phaseSimNS     map[obs.Phase]int64
	phaseWallNS    map[obs.Phase]int64
	// probeMarks are lock stats at the first finished plan, the end of
	// the first tenth, the start of the last tenth and the end of the
	// round's timed phases (of the most recent round).
	probeMarks [4]lock.Stats

	violations     []string
	violationCount int64
}

func newSample(sets int) *sample {
	return &sample{sets: sets, phaseSimNS: map[obs.Phase]int64{}, phaseWallNS: map[obs.Phase]int64{}}
}

// roundTotals is what one round adds up to.
type roundTotals struct {
	txns, cycles     int64
	fwdNS, recoverNS float64 // forward phases and Recover calls, nominal host
	simRecoverNS     int64
	latFrom, latTo   int // the round's entries in txnLat
}

// pass is a run of sets consecutive rounds, one per input set: the unit
// the timing metrics take their medians over, so that every reported value
// averages every input set the seed produced.
type pass struct {
	tps, mttrNS, simMTTRNS, p50, p99 float64
}

func (s *sample) passes() []pass {
	var out []pass
	for i := 0; i+s.sets <= len(s.rounds); i += s.sets {
		var t roundTotals
		for _, r := range s.rounds[i : i+s.sets] {
			t.txns += r.txns
			t.cycles += r.cycles
			t.fwdNS += r.fwdNS
			t.recoverNS += r.recoverNS
			t.simRecoverNS += r.simRecoverNS
		}
		lat := s.txnLat[s.rounds[i].latFrom:s.rounds[i+s.sets-1].latTo]
		p := pass{tps: float64(t.txns) / t.fwdNS * 1e9, p50: quantile(lat, 0.5), p99: quantile(lat, 0.99)}
		if t.cycles > 0 {
			p.mttrNS = t.recoverNS / float64(t.cycles)
			p.simMTTRNS = float64(t.simRecoverNS) / float64(t.cycles)
		}
		out = append(out, p)
	}
	return out
}

// passMedian is the median over passes of one pass figure.
func (s *sample) passMedian(f func(pass) float64) float64 {
	var xs []float64
	for _, p := range s.passes() {
		xs = append(xs, f(p))
	}
	return medianF(xs)
}

// maxViolations bounds the messages kept; the count is kept in full.
const maxViolations = 20

func (s *sample) violate(format string, args ...any) {
	s.violationCount++
	if len(s.violations) < maxViolations {
		s.violations = append(s.violations, fmt.Sprintf(format, args...))
	}
}

func (s *sample) addReport(rep *recovery.RecoveryReport) {
	s.redoApplied += int64(rep.RedoApplied)
	s.redoSkipped += int64(rep.RedoSkipped)
	s.undoApplied += int64(rep.UndoApplied)
	s.tagScanLines += int64(rep.TagScanLines)
	s.lcbsReinstated += int64(rep.LCBsReinstalled)
	s.locksReplayed += int64(rep.LocksReplayed)
	for _, ph := range rep.Phases {
		s.phaseSimNS[ph.Phase] += ph.Dur
	}
}

func (c counters) add(d counters) counters { return c.sub(counters{}.sub(d)) }

func addBuffer(a, b buffer.Stats) buffer.Stats { return a.Sub(buffer.Stats{}.Sub(b)) }

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostSeries lists every series of host times, so a round can scale its
// own entries to the nominal host (see calibrate.go).
func (s *sample) hostSeries() []*[]int64 {
	return []*[]int64{&s.setup, &s.txnLat, &s.begin, &s.read, &s.write, &s.commit, &s.abort,
		&s.mttr, &s.crash, &s.restart, &s.ckpt}
}

func (s *sample) seriesLens() []int {
	var n []int
	for _, p := range s.hostSeries() {
		n = append(n, len(*p))
	}
	return n
}

// scaleFrom multiplies every host time recorded since the lengths in from
// by k.
func (s *sample) scaleFrom(from []int, k float64) {
	for i, p := range s.hostSeries() {
		for j := from[i]; j < len(*p); j++ {
			(*p)[j] = int64(float64((*p)[j]) * k)
		}
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd is what a user of the engine sees: set-up, memory, success,
// transaction throughput and latency, and restart time.
func (s *sample) endToEnd() metrics {
	m := metrics{}
	m.put("setup_s", "s", quantile(s.setup, 0.5)/1e9)
	m.put("max_rss_mb", "MB", maxRSSMB())
	m.put("success_share", "share", ratio(s.committed+s.planAborts, s.attempts))
	m.put("txn_per_s", "1/s", s.passMedian(func(p pass) float64 { return p.tps }))
	m.put("txn_us_p50", "us", s.passMedian(func(p pass) float64 { return p.p50 })/1e3)
	m.put("txn_us_p99", "us", s.passMedian(func(p pass) float64 { return p.p99 })/1e3)
	m.put("commit_us_p50", "us", quantile(s.commit, 0.5)/1e3)
	m.put("sim_us_per_txn", "us", ratio(s.fwd.simNS, s.committed)/1e3)
	m.put("mttr_ms", "ms", s.passMedian(func(p pass) float64 { return p.mttrNS })/1e6)
	m.put("sim_mttr_us", "us", s.passMedian(func(p pass) float64 { return p.simMTTRNS })/1e3)
	return m
}

// recoveryPhases are the phases a restart may report, in execution order.
var recoveryPhases = []obs.Phase{
	obs.PhaseFreeze, obs.PhaseDirectoryRepair, obs.PhaseLockRebuild, obs.PhaseRedoScan,
	obs.PhaseProbe, obs.PhaseRedoApply, obs.PhaseUndo, obs.PhaseUndoTagScan, obs.PhaseSettle,
}

// perLayer is what each layer did, per committed transaction on the forward
// path and per recovery on the restart path.
func (s *sample) perLayer() metrics {
	m := metrics{}
	f, tx, rec := s.fwd, s.committed, s.cycles
	m.put("txn.begin_us_p50", "us", quantile(s.begin, 0.5)/1e3)
	m.put("txn.read_us_p50", "us", quantile(s.read, 0.5)/1e3)
	m.put("txn.write_us_p50", "us", quantile(s.write, 0.5)/1e3)
	m.put("txn.abort_us_p50", "us", quantile(s.abort, 0.5)/1e3)
	m.put("txn.allocs_per_txn", "count", ratio(int64(s.mallocs), tx))
	m.put("txn.alloc_bytes_per_txn", "B", ratio(int64(s.allocBytes), tx))
	m.put("lock.probes_per_acquire", "count", ratio(f.l.Probes, f.l.Acquires))
	m.put("lock.acquires_per_txn", "count", ratio(f.l.Acquires, tx))
	m.put("lock.waits_per_txn", "count", ratio(f.l.Waits, tx))
	m.put("lock.deadlocks_per_txn", "count", ratio(s.deadlocks, tx))
	m.put("machine.remote_fetches_per_txn", "count", ratio(f.m.RemoteFetches, tx))
	m.put("machine.migrations_per_txn", "count", ratio(f.m.Migrations, tx))
	m.put("machine.invalidations_per_txn", "count", ratio(f.m.Invalidations, tx))
	m.put("machine.line_lock_contended_share", "share", ratio(f.m.LineLockContended, f.m.LineLockAcquires))
	m.put("wal.records_per_txn", "count", ratio(f.walRecs, tx))
	m.put("wal.commit_forces_per_txn", "count", ratio(f.p.CommitForces, tx))
	m.put("wal.lbm_forces_per_txn", "count", ratio(f.p.LBMForces, tx))
	m.put("protocol.tag_writes_per_txn", "count", ratio(f.p.TagWrites, tx))
	m.put("buffer.fetches_per_txn", "count", ratio(f.b.Fetches, tx))
	m.put("buffer.fetches_per_recovery", "count", ratio(s.recBuf.Fetches, rec))
	m.put("buffer.disk_fetch_share", "share", ratio(s.recBuf.DiskFetches, s.recBuf.Fetches))
	m.put("recovery.recover_ms_p50", "ms", quantile(s.mttr, 0.5)/1e6)
	m.put("recovery.crash_ms_p50", "ms", quantile(s.crash, 0.5)/1e6)
	m.put("recovery.restart_node_ms_p50", "ms", quantile(s.restart, 0.5)/1e6)
	m.put("recovery.checkpoint_ms_p50", "ms", quantile(s.ckpt, 0.5)/1e6)
	m.put("recovery.crashed_log_records", "count", ratio(s.crashedLogRecs, rec))
	m.put("recovery.redo_applied", "count", ratio(s.redoApplied, rec))
	m.put("recovery.redo_skipped", "count", ratio(s.redoSkipped, rec))
	m.put("recovery.undo_applied", "count", ratio(s.undoApplied, rec))
	m.put("recovery.tag_scan_lines", "count", ratio(s.tagScanLines, rec))
	m.put("recovery.lcbs_reinstalled", "count", ratio(s.lcbsReinstated, rec))
	m.put("recovery.locks_replayed", "count", ratio(s.locksReplayed, rec))
	for _, ph := range recoveryPhases {
		name := metricName(ph.String())
		m.put("recovery.phase_sim_us."+name, "us", ratio(s.phaseSimNS[ph], rec)/1e3)
		m.put("recovery.phase_wall_ms."+name, "ms", ratio(s.phaseWallNS[ph], rec)/1e6)
	}
	return m
}

// metricName turns a label such as "redo-apply" into "redo_apply".
func metricName(label string) string {
	b := []byte(label)
	for i, c := range b {
		if c == '-' {
			b[i] = '_'
		}
	}
	return string(b)
}
