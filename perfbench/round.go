package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"smdb/internal/buffer"
	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/waterfall"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
	"smdb/internal/wal"
)

// valLen is the payload size the benchmark writes into every record.
const valLen = 8

type value [valLen]byte

// op is one planned record operation of a transaction.
type op struct {
	rec   int // index into the round's record space and shadow
	write bool
	val   value
}

// client is one closed-loop client bound to a node: it holds at most one
// open transaction and draws its next plan only after the previous one
// finished. A deadlock or crash victim retries the same plan.
type client struct {
	node machine.NodeID
	rng  *rand.Rand

	ops     []op
	abort   bool // the plan ends in a voluntary Abort
	planned bool // ops holds a plan that has not finished yet
	tx      *txn.Txn
	next    int
	// own holds the plan's writes so far (record, value), for read checks
	// and for the shadow update at commit.
	own []op
	// started is the host time of the plan's first Begin and
	// pausedAtStart the round's paused total at that moment: latency
	// excludes time the round spent outside forward phases.
	started       time.Time
	pausedAtStart time.Duration
}

// round is one fresh database driven through a workload's fixed work.
type round struct {
	w       *workload
	db      *recovery.DB
	mgr     *txn.Manager
	rids    []heap.RID
	private [][]int // per-node private record indices
	shared  []int
	hot     int // size of the hot prefix of shared
	shadow  []value
	clients []*client
	s       *sample
	tr      *tracer // nil on untraced rounds
	gc      *collector
	sweeps  int
	// marks are the sample's host-time series lengths when the round
	// began, and cal the calibration kernel times taken during it.
	marks   []int
	latFrom int
	cal     []int64
	// phaseWallNS sums the round's parallel-restart phase wall times.
	phaseWallNS map[obs.Phase]int64

	// progress counts calls that changed some client's state; a sweep
	// that leaves it at lastProgress is idle.
	progress, lastProgress, idleSweeps int
	paused                             time.Duration // host time spent outside forward phases
	// mttrNS and simMTTRNS sum the round's Recover wall and sim times.
	mttrNS, simMTTRNS int64
	finished          int // plans finished in this round's forward phases
	total             int // plans the round's forward phases finish
}

// initial is record i's seeded value: a function of the seed only.
func initial(seed int64, i int) value {
	var v value
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	for k := range v {
		x ^= x >> 31
		x *= 0x94D049BB133111EB
		v[k] = byte(x >> 56)
	}
	return v
}

// newRound builds and seeds the database, timing the set-up.
func newRound(w *workload, seed int64, s *sample, tr *tracer, gc *collector) (*round, error) {
	marks := s.seriesLens()
	cal := []int64{calibrate()}
	t0 := time.Now()
	db, err := recovery.New(recovery.Config{
		Machine:         machine.Config{Nodes: w.nodes},
		Protocol:        w.proto,
		Pages:           w.pages,
		LockTableLines:  w.lockLines,
		RecoveryWorkers: w.recoveryWorkers(),
	})
	if err != nil {
		return nil, err
	}
	r := &round{w: w, db: db, mgr: txn.NewManager(db), s: s, tr: tr, gc: gc, marks: marks, latFrom: len(s.txnLat), cal: cal,
		phaseWallNS: map[obs.Phase]int64{}, total: w.cycles*w.backlog + w.tail}
	slots := db.Store.Layout.SlotsPerPage()
	for p := 0; p < w.pages; p++ {
		tx, err := r.mgr.Begin(0)
		if err != nil {
			return nil, err
		}
		for sl := 0; sl < slots; sl++ {
			rid := heap.RID{Page: storage.PageID(p), Slot: uint16(sl)}
			v := initial(seed, len(r.rids))
			if err := tx.Insert(rid, v[:]); err != nil {
				return nil, fmt.Errorf("seeding %v: %w", rid, err)
			}
			r.rids = append(r.rids, rid)
			r.shadow = append(r.shadow, v)
		}
		if err := tx.Commit(); err != nil {
			return nil, fmt.Errorf("seeding page %d: %w", p, err)
		}
		gc.maybe()
	}
	if err := db.Checkpoint(0); err != nil {
		return nil, err
	}
	s.setup = append(s.setup, int64(time.Since(t0)))

	// First half: per-node private partitions; second half: shared pool.
	half := len(r.rids) / 2
	per := half / w.nodes
	for n := 0; n < w.nodes; n++ {
		part := make([]int, per)
		for i := range part {
			part[i] = n*per + i
		}
		r.private = append(r.private, part)
		r.clients = append(r.clients, &client{
			node: machine.NodeID(n),
			rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(n))),
		})
	}
	for i := half; i < len(r.rids); i++ {
		r.shared = append(r.shared, i)
	}
	r.hot = int(float64(len(r.shared)) * w.hotSpot)
	if r.hot < 1 {
		r.hot = 1
	}
	return r, nil
}

// draw gives c its next plan. Plans come from the client's own seeded
// generator, so the inputs do not depend on how clients interleave.
func (r *round) draw(c *client) {
	w := r.w
	c.ops = c.ops[:0]
	for i := 0; i < opsPerTxn; i++ {
		var o op
		if c.rng.Float64() < w.sharedFrac {
			if w.hotProb > 0 && c.rng.Float64() < w.hotProb {
				o.rec = r.shared[c.rng.Intn(r.hot)]
			} else {
				o.rec = r.shared[c.rng.Intn(len(r.shared))]
			}
		} else {
			part := r.private[c.node]
			o.rec = part[c.rng.Intn(len(part))]
		}
		o.write = c.rng.Float64() >= w.readFrac
		if o.write {
			c.rng.Read(o.val[:])
		}
		c.ops = append(c.ops, o)
	}
	c.abort = c.rng.Float64() < abortFrac
	c.planned = true
}

// timed runs f and returns its host duration in nanoseconds.
func timed(f func() error) (int64, error) {
	t0 := time.Now()
	err := f()
	return int64(time.Since(t0)), err
}

// step advances c by one call into the transaction layer. It returns 1 when
// c's plan finished (committed, or aborted as planned).
func (r *round) step(c *client, drawNew bool) (int, error) {
	s := r.s
	if c.tx == nil {
		if !c.planned {
			if !drawNew {
				return 0, nil
			}
			r.draw(c)
			c.started = time.Now()
			c.pausedAtStart = r.paused
		}
		t0 := time.Now()
		tx, err := r.mgr.Begin(c.node)
		d := int64(time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("begin on node %d: %w", c.node, err)
		}
		s.begin = append(s.begin, d)
		s.callNS += d
		s.attempts++
		r.progress++
		c.tx, c.next, c.own = tx, 0, c.own[:0]
		return 0, nil
	}
	if c.next == len(c.ops) {
		return r.finish(c)
	}
	o := c.ops[c.next]
	// The hot calls are timed inline: a closure per call would add its own
	// allocations to the per-transaction allocation counts.
	var got []byte
	var err error
	t0 := time.Now()
	if o.write {
		err = c.tx.Write(r.rids[o.rec], o.val[:])
	} else {
		got, err = c.tx.Read(r.rids[o.rec])
	}
	d := int64(time.Since(t0))
	s.callNS += d
	if o.write {
		s.write = append(s.write, d)
	} else {
		s.read = append(s.read, d)
		if want := r.expected(c, o.rec); err == nil && (len(got) < valLen || !bytes.Equal(got[:valLen], want[:])) {
			s.violate("node %d read %v = %x, want %x", c.node, r.rids[o.rec], got, want)
		}
	}
	switch {
	case err == nil:
		r.progress++
		c.next++
		if o.write {
			c.own = append(c.own, o)
		}
	case errors.Is(err, txn.ErrBlocked):
		// Queued behind a lock: the op is retried on c's next turn.
	case errors.Is(err, txn.ErrDeadlock):
		s.deadlocks++
		if err := r.abortTxn(c); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("node %d op on %v: %w", c.node, r.rids[o.rec], err)
	}
	return 0, nil
}

// expected is the value a read by c of record i must return under strict
// 2PL: c's own latest write, else the last committed value.
func (r *round) expected(c *client, i int) value {
	for k := len(c.own) - 1; k >= 0; k-- {
		if c.own[k].rec == i {
			return c.own[k].val
		}
	}
	return r.shadow[i]
}

func (r *round) abortTxn(c *client) error {
	t0 := time.Now()
	err := c.tx.Abort()
	d := int64(time.Since(t0))
	if err != nil {
		return fmt.Errorf("abort on node %d: %w", c.node, err)
	}
	r.s.abort = append(r.s.abort, d)
	r.s.callNS += d
	r.progress++
	c.tx = nil
	return nil
}

// finish commits or (as planned) aborts c's transaction.
func (r *round) finish(c *client) (int, error) {
	s := r.s
	if c.abort {
		if err := r.abortTxn(c); err != nil {
			return 0, err
		}
		s.planAborts++
	} else {
		t0 := time.Now()
		err := c.tx.Commit()
		d := int64(time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("commit on node %d: %w", c.node, err)
		}
		s.commit = append(s.commit, d)
		s.callNS += d
		s.committed++
		r.progress++
		for _, o := range c.own {
			r.shadow[o.rec] = o.val
		}
		c.tx = nil
	}
	lat := time.Since(c.started) - (r.paused - c.pausedAtStart)
	s.txnLat = append(s.txnLat, int64(lat))
	c.planned = false
	return 1, nil
}

// forward drives the clients round-robin until n more plans finished, and
// then, if inflight is set, leaves every client halfway through an open
// transaction. It is the timed phase: its wall time, the calls inside it and
// the layer counters across it are what the transaction metrics report.
func (r *round) forward(n int, inflight bool) error {
	s := r.s
	before := snapshot(r.db)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := r.gc.ns
	t0 := time.Now()
	err := r.tr.do(labelTxn, func() error {
		for done := 0; done < n; {
			if err := r.sweepProgressed(); err != nil {
				return err
			}
			r.sweepGC()
			for _, c := range r.clients {
				if !r.db.M.Alive(c.node) {
					continue
				}
				k, err := r.step(c, true)
				if err != nil {
					return err
				}
				done += k
				r.finished += k
				if k > 0 {
					r.probeWindows()
				}
			}
		}
		if inflight {
			return r.openTxns()
		}
		return nil
	})
	wall := time.Since(t0)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	s.fwdNS += int64(wall)
	s.gcNS += r.gc.ns - gc0
	s.mallocs += ms1.Mallocs - ms0.Mallocs
	s.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	s.fwd = s.fwd.add(snapshot(r.db).sub(before))
	return err
}

// sweepGC lets the collector check the heap once every gcCheckSweeps sweeps.
func (r *round) sweepGC() {
	if r.sweeps++; r.sweeps%gcCheckSweeps == 0 {
		r.gc.maybe()
	}
}

// sweepProgressed is called before each round-robin sweep. A sweep in which
// no call changed any client's state leaves the lock space as it was, so the
// next sweep would repeat it forever: that is a livelock, reported with the
// lock holders that no open transaction owns.
func (r *round) sweepProgressed() error {
	if r.progress != r.lastProgress {
		r.lastProgress, r.idleSweeps = r.progress, 0
		return nil
	}
	if r.idleSweeps++; r.idleSweeps < 3 {
		return nil
	}
	open := map[wal.TxnID]bool{}
	for _, c := range r.clients {
		if c.tx != nil {
			open[c.tx.ID()] = true
		}
	}
	var orphans []string
	snap, err := r.db.Locks.Snapshot(0)
	if err != nil {
		return err
	}
	for _, st := range snap {
		for _, h := range st.Holders {
			if !open[h.Txn] {
				orphans = append(orphans, fmt.Sprintf("%v holds %v in %v", h.Txn, h.Mode, st.Name))
			}
		}
	}
	return fmt.Errorf("livelock: no client progressed in %d sweeps; locks held by no open transaction: %v",
		r.idleSweeps, orphans)
}

// openTxns steps each client until it holds an open transaction with half
// its operations done. A client blocked behind another open transaction
// stays where it is; the sweep count is bounded, so the state reached is
// still a function of the seed.
func (r *round) openTxns() error {
	half := opsPerTxn / 2
	for sweep := 0; sweep < 4*opsPerTxn; sweep++ {
		for _, c := range r.clients {
			if c.tx != nil && c.next >= half {
				continue
			}
			if _, err := r.step(c, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeWindows records lock-table probes per acquire over the first and the
// last tenth of the round's timed transactions.
func (r *round) probeWindows() {
	win := r.total / 10
	switch r.finished {
	case 1:
		r.s.probeMarks[0] = r.db.Locks.Stats()
	case win:
		r.s.probeMarks[1] = r.db.Locks.Stats()
	case r.total - win:
		r.s.probeMarks[2] = r.db.Locks.Stats()
	case r.total:
		r.s.probeMarks[3] = r.db.Locks.Stats()
	}
}

// pause runs f outside the timed forward phase.
func (r *round) pause(f func() error) error {
	t0 := time.Now()
	err := f()
	r.paused += time.Since(t0)
	return err
}

// crashCycle crashes node v with every client mid-transaction, restarts
// recovery, brings v back and checks isolated failure atomicity.
func (r *round) crashCycle(v machine.NodeID) error {
	db, s := r.db, r.s
	coord := machine.NodeID((int(v) + 1) % r.w.nodes)
	bufBefore := db.BM.Stats()
	var rep *recovery.RecoveryReport
	err := r.tr.do(labelRecovery, func() error {
		d, _ := timed(func() error { db.Crash(v); return nil })
		s.crash = append(s.crash, d)
		if err := r.observeFreeze(v); err != nil {
			return err
		}
		d, err := timed(func() (err error) { rep, err = db.Recover([]machine.NodeID{v}); return })
		if err != nil {
			return fmt.Errorf("recover node %d: %w", v, err)
		}
		s.mttr = append(s.mttr, d)
		r.mttrNS += d
		d, err = timed(func() error { return db.RestartNode(v) })
		if err != nil {
			return fmt.Errorf("restart node %d: %w", v, err)
		}
		s.restart = append(s.restart, d)
		return nil
	})
	if err != nil {
		return err
	}
	s.recBuf = addBuffer(s.recBuf, db.BM.Stats().Sub(bufBefore))
	s.addReport(rep)
	r.simMTTRNS += rep.SimTime
	for _, ph := range rep.ParPhases {
		r.phaseWallNS[ph.Phase] += int64(ph.Wall)
	}
	r.cal = append(r.cal, calibrate())
	recs, err := db.Logs[v].StableRecords()
	if err != nil {
		return err
	}
	s.crashedLogRecs += int64(len(recs))
	for _, msg := range db.CheckIFA(coord) {
		s.violate("crash of node %d: %s", v, msg)
	}
	// The victim's open transaction died with its node: recovery aborted
	// it, so its writes never reach the shadow and the plan is retried.
	r.clients[v].tx = nil
	s.cycles++
	return nil
}

// observeFreeze has every survivor's open transaction make its next
// call between the crash of v and restart recovery, as its CPU would:
// the call must stall on the freeze. The stall is what lets the
// waterfall charge the recovery time survivors wait out to CauseFrozen.
func (r *round) observeFreeze(v machine.NodeID) error {
	for _, c := range r.clients {
		if c.node == v || c.tx == nil || c.next == len(c.ops) {
			continue
		}
		var err error
		if o := c.ops[c.next]; o.write {
			err = c.tx.Write(r.rids[o.rec], o.val[:])
		} else {
			_, err = c.tx.Read(r.rids[o.rec])
		}
		if !errors.Is(err, txn.ErrBlocked) {
			return fmt.Errorf("node %d during the freeze after crashing node %d: got %v, want %v",
				c.node, v, err, txn.ErrBlocked)
		}
	}
	return nil
}

// checkpoint takes a checkpoint on node nd, timed.
func (r *round) checkpoint(nd machine.NodeID) error {
	d, err := timed(func() error { return r.db.Checkpoint(nd) })
	r.s.ckpt = append(r.s.ckpt, d)
	return err
}

// drain lets every client finish its open plan without drawing new ones.
func (r *round) drain() error {
	for {
		if err := r.sweepProgressed(); err != nil {
			return err
		}
		r.sweepGC()
		open := false
		for _, c := range r.clients {
			if _, err := r.step(c, false); err != nil {
				return err
			}
			open = open || c.planned
		}
		if !open {
			return nil
		}
	}
}

// readBack reads every record once all transactions have finished and
// compares it with the shadow copy of acknowledged writes. Nothing holds a
// lock any more, so the reads go straight to the database.
func (r *round) readBack() error {
	for i, rid := range r.rids {
		sd, err := r.db.Read(0, rid)
		if err != nil {
			return fmt.Errorf("read back %v: %w", rid, err)
		}
		want := r.shadow[i]
		switch {
		case !sd.Occupied() || sd.Deleted():
			r.s.violate("read back %v: record missing (flags %#x)", rid, sd.Flags)
		case !bytes.Equal(sd.Data[:valLen], want[:]):
			r.s.violate("read back %v = %x, want %x", rid, sd.Data[:valLen], want)
		case sd.Tag != machine.NoNode:
			r.s.violate("read back %v: undo tag of node %d outlived every transaction", rid, sd.Tag)
		}
	}
	return nil
}

// run performs the round's fixed work: per crash cycle a checkpoint, a
// backlog of acknowledged transactions, and a crash of one rotating node;
// then a tail of transactions, a drain, and the read-back check.
func (r *round) run() error {
	if r.tr != nil {
		r.db.AttachWaterfall(r.tr.wf)
	}
	start := time.Now()
	for cy := 0; cy < r.w.cycles; cy++ {
		v := machine.NodeID(cy % r.w.nodes)
		if err := r.pause(func() error { return r.checkpoint(v) }); err != nil {
			return err
		}
		if err := r.forward(r.w.backlog, true); err != nil {
			return err
		}
		if err := r.pause(func() error { return r.crashCycle(v) }); err != nil {
			return err
		}
	}
	if err := r.forward(r.w.tail, false); err != nil {
		return err
	}
	fwd := time.Since(start) - r.paused
	if err := r.drain(); err != nil {
		return err
	}
	if r.tr != nil {
		r.db.AttachWaterfall(nil)
	}
	if err := r.readBack(); err != nil {
		return err
	}
	r.cal = append(r.cal, calibrate())

	// Scale the round's host times to the nominal host by the median of
	// the kernel times taken around and within it.
	k := float64(calibNominal) / quantile(r.cal, 0.5)
	s := r.s
	s.scaleFrom(r.marks, k)
	s.calib = append(s.calib, r.cal...)
	s.scales = append(s.scales, k)
	s.rounds = append(s.rounds, roundTotals{
		txns: int64(r.total), cycles: int64(r.w.cycles),
		fwdNS: float64(fwd) * k, recoverNS: float64(r.mttrNS) * k, simRecoverNS: r.simMTTRNS,
		latFrom: r.latFrom, latTo: len(s.txnLat),
	})
	for ph, ns := range r.phaseWallNS {
		s.phaseWallNS[ph] += int64(float64(ns) * k)
	}
	return nil
}

// counters is a snapshot of the counters each layer exports.
type counters struct {
	m       machine.Stats
	l       lock.Stats
	b       buffer.Stats
	p       recovery.Stats
	walRecs int64 // log records appended (sum of next LSNs)
	simNS   int64 // sum of node clocks
}

func snapshot(db *recovery.DB) counters {
	c := counters{m: db.M.Stats(), l: db.Locks.Stats(), b: db.BM.Stats(), p: db.Stats()}
	for i, l := range db.Logs {
		c.walRecs += int64(l.NextLSN())
		c.simNS += db.M.Clock(machine.NodeID(i))
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{m: c.m.Sub(o.m), l: c.l.Sub(o.l), b: c.b.Sub(o.b), p: c.p.Sub(o.p),
		walRecs: c.walRecs - o.walRecs, simNS: c.simNS - o.simNS}
}

// tracer holds what a traced round attaches: the waterfall recorder, and
// pprof labels that split the CPU profile by call type. A nil tracer runs
// everything unlabelled and unrecorded.
type tracer struct {
	wf *waterfall.Recorder
}

const (
	labelTxn      = "txn"
	labelRecovery = "recovery"
)

// do runs f under the pprof label call=label.
func (t *tracer) do(label string, f func() error) error {
	if t == nil {
		return f()
	}
	var err error
	pprof.Do(context.Background(), pprof.Labels("call", label), func(context.Context) { err = f() })
	return err
}
