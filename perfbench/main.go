// Command perfbench is smdb's end-to-end benchmark. It drives the engine from
// outside through the transaction layer (txn) and the recovery entry points
// (Checkpoint, Crash, Recover, RestartNode), one closed-loop client per
// simulated node, stepped round-robin by a single goroutine so the
// interleaving — and so every count and simulated time — repeats exactly for
// a seed. Each round rebuilds and seeds a fresh database and performs a
// fixed amount of seeded work; rounds repeat until the time budget is spent,
// and timings are reported as medians over them.
//
//	go run . --workload oltp-partitioned --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1
// reports the per-layer metrics, from untraced rounds followed by rounds with
// a CPU profile and the waterfall recorder attached. The line before it holds
// the host and state facts the result was taken under. Any correctness
// violation (a wrong read, a failed read-back, an isolated-failure-atomicity
// violation after a crash) makes the exit code non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"smdb/internal/obs/waterfall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// Bounds on one run: at least minRounds rounds per measured set, and no new
// round once maxRun has passed, whatever the budget says.
const (
	minRounds = 3
	maxRun    = 150 * time.Second
)

// minCoverage is the share of a traced run's time the ledger must explain.
const minCoverage = 0.9

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "time budget for the measured rounds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of")
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr, "), --seconds > 0 and --trace 0|1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	out, facts, err := measure(w, *seed, budget, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	factLine, _ := json.Marshal(map[string]any{"facts": facts})
	fmt.Fprintln(stdout, string(factLine))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// facts are the host and state facts a result was taken under.
type facts struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NCPU       int    `json:"ncpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Rounds     int    `json:"rounds"`
	// CommittedPerRound is the committed transactions of one round.
	CommittedPerRound int64 `json:"committed_per_round"`
	// ProbesPerAcquire is lock-table probes per acquire over the first and
	// the last tenth of a round's timed transactions.
	ProbesPerAcquireFirst float64 `json:"probes_per_acquire_first_tenth"`
	ProbesPerAcquireLast  float64 `json:"probes_per_acquire_last_tenth"`
	// RoundsIdentical reports whether every round's layer counts matched
	// those of the first round on the same input set.
	RoundsIdentical bool `json:"rounds_identical"`
	// CalibrationMS is the calibration kernel's median host time, and
	// HostScale the median factor rounds multiplied host times by
	// (calibrate.go).
	CalibrationMS float64  `json:"calibration_ms"`
	HostScale     float64  `json:"host_scale"`
	Violations    []string `json:"violations,omitempty"`
}

// measure runs the workload for the budget and returns the result line.
func measure(w workload, seed int64, budget time.Duration, traced bool) (result, facts, error) {
	f := facts{Workload: w.name, Seed: seed, NCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), RoundsIdentical: true}
	// Collections happen where the benchmark places them (collect.go).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	u := newSample(w.sets())
	if !traced {
		if err := rounds(&w, seed, u, nil, budget, &f); err != nil {
			return result{}, f, err
		}
		return finish(u, u.endToEnd(), &f), f, nil
	}

	if err := rounds(&w, seed, u, nil, budget/2, &f); err != nil {
		return result{}, f, err
	}
	t, tr := newSample(w.sets()), &tracer{wf: waterfall.New(waterfall.Config{})}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, f, err
	}
	err := rounds(&w, seed, t, tr, budget/2, &f)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, f, err
	}
	m := u.perLayer()
	layers, labels, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, f, err
	}
	for _, l := range []string{"machine", "lock", "wal", "buffer", "heap", "txn", "recovery", "runtime_gc", "bench", "other"} {
		m.put("cpu_share."+l, "share", layers[l])
	}
	m.put("cpu_share.in_txn_calls", "share", labels[labelTxn])
	m.put("cpu_share.in_recovery_calls", "share", labels[labelRecovery])
	totals := tr.wf.Totals()
	for _, c := range waterfall.Causes() {
		m.put("wf."+metricName(c.String())+"_ns_per_txn", "ns", ratio(totals[c], t.committed))
	}
	// The ledger must explain the run: the waterfall attributes nearly all
	// simulated transaction time to causes, and the timed txn calls plus
	// the collections of their garbage cover nearly all of the forward
	// phases' wall time.
	simCov, _, _ := tr.wf.Coverage()
	wallCov := ratio(u.callNS+u.gcNS, u.fwdNS)
	m.put("runtime.gc_wall_share", "share", ratio(u.gcNS, u.fwdNS))
	m.put("ledger.wf_sim_coverage", "share", simCov)
	m.put("ledger.txn_call_wall_coverage", "share", wallCov)
	if simCov < minCoverage || wallCov < minCoverage {
		return result{}, f, fmt.Errorf("ledger check: waterfall covers %.3f of sim time and txn calls with collections %.3f of wall time, want >= %v",
			simCov, wallCov, minCoverage)
	}
	tps := func(p pass) float64 { return p.tps }
	m.put("trace_overhead", "share", u.passMedian(tps)/t.passMedian(tps)-1)
	m.put("runtime.gc_cpu_fraction", "share", gcCPUFraction())
	res := finish(u, m, &f)
	// The result line counts the traced half's work and violations too.
	res.Attempted += t.committed + t.planAborts + t.cycles
	res.Failed += t.violationCount
	res.Correct = res.Failed == 0
	f.Violations = append(f.Violations, t.violations...)
	return res, f, nil
}

func gcCPUFraction() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.GCCPUFraction
}

// finish fills in the facts a sample determines and builds the result line.
func finish(s *sample, m metrics, f *facts) result {
	first, last := s.probeMarks[1].Sub(s.probeMarks[0]), s.probeMarks[3].Sub(s.probeMarks[2])
	f.ProbesPerAcquireFirst = ratio(first.Probes, first.Acquires)
	f.ProbesPerAcquireLast = ratio(last.Probes, last.Acquires)
	f.Violations = s.violations
	f.CalibrationMS = quantile(s.calib, 0.5) / 1e6
	f.HostScale = medianF(s.scales)
	return result{
		Correct:   s.violationCount == 0,
		Attempted: s.committed + s.planAborts + s.cycles,
		Failed:    s.violationCount,
		Metrics:   m,
	}
}

// rounds runs fresh rounds into s, cycling through the workload's input
// sets, until the budget is spent, at least minRounds ran and the last pass
// is complete. It checks that rounds on the same input set did the same
// work.
func rounds(w *workload, seed int64, s *sample, tr *tracer, budget time.Duration, f *facts) error {
	start := time.Now()
	gc := newCollector()
	sets := w.sets()
	first := make([]counters, sets)
	for n := 0; n < minRounds || time.Since(start) < budget || n%sets != 0; n++ {
		if time.Since(start) > maxRun && n%sets == 0 {
			break
		}
		// Collect the previous round's garbage outside the timed phases.
		gc.collect()
		before, committed := s.fwd, s.committed
		r, err := newRound(w, inputSeed(seed, n%sets), s, tr, gc)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := r.run(); err != nil {
			return err
		}
		delta := s.fwd.sub(before)
		// Counts must repeat; simulated time may not after a parallel
		// restart, whose simulated interleaving varies.
		delta.simNS = 0
		switch {
		case n == 0:
			f.CommittedPerRound = s.committed - committed
			fallthrough
		case n < sets:
			first[n] = delta
		case delta != first[n%sets]:
			f.RoundsIdentical = false
		}
		f.Rounds++
	}
	return nil
}
