package harness

import (
	"fmt"

	"smdb/internal/btree"
	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
	"smdb/internal/workload"
)

// Experiment E9 exercises section 4.2.1: B-tree inserts and deletes behave
// like record updates under the recovery protocols (undo tags, logical
// deletes whose undo is an unmark), while page splits are early-committed
// structural changes that survive both the enclosing transaction's abort
// and its node's crash. The experiment loads an index, crashes a node with
// in-flight index transactions, recovers, and validates the tree.
type BTreeRecoveryResult struct {
	Protocol recovery.Protocol
	// Committed keys loaded; InFlight index ops pending at the crash.
	CommittedKeys, InFlight int
	// SplitsForced is the number of early-committed structural changes.
	SplitsForced int64
	// RecoverySimTime is the restart duration.
	RecoverySimTime int64
	// SurvivingKeys is the live-key count after recovery (must equal
	// CommittedKeys plus the surviving nodes' uncommitted inserts).
	SurvivingKeys int
	// TreeViolations and IFAViolations must both be zero.
	TreeViolations, IFAViolations int
}

// RunBTreeRecovery runs the scenario under the given protocol.
func RunBTreeRecovery(proto recovery.Protocol, keys int, seed int64) (*BTreeRecoveryResult, error) {
	const nodes = 4
	db, err := newDB(proto, nodes, 4, 128, 0)
	if err != nil {
		return nil, err
	}
	tree, err := btree.New(db, 0, 128)
	if err != nil {
		return nil, err
	}
	mgr := txn.NewManager(db)
	// Load committed keys round-robin across nodes.
	for k := 1; k <= keys; k++ {
		tx, err := mgr.Begin(machine.NodeID(k % nodes))
		if err != nil {
			return nil, err
		}
		if err := tree.Insert(tx, uint64(k*29%(8*keys)+1), uint64(k)); err != nil {
			return nil, fmt.Errorf("load key %d: %w", k, err)
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	if err := db.Checkpoint(0); err != nil {
		return nil, err
	}
	committed, err := tree.LiveKeys(0)
	if err != nil {
		return nil, err
	}

	// In-flight index transactions on every node, inserting keys spread
	// across distinct leaves (clustering several uncommitted inserts in
	// one leaf would block its split, by design), then crash one node.
	spread := pickAbsentKeys(committed, nodes, uint64(8*keys))
	inFlight := 0
	var txns []*txn.Txn
	for n := 0; n < nodes; n++ {
		tx, err := mgr.Begin(machine.NodeID(n))
		if err != nil {
			return nil, err
		}
		key := spread[n]
		if err := tree.Insert(tx, key, key); err != nil {
			return nil, fmt.Errorf("in-flight insert %d: %w", key, err)
		}
		inFlight++
		txns = append(txns, tx)
	}
	victim := machine.NodeID(nodes - 1)
	db.Crash(victim)
	rep, err := db.Recover([]machine.NodeID{victim})
	if err != nil {
		return nil, err
	}

	live, err := tree.LiveKeys(0)
	if err != nil {
		return nil, err
	}
	res := &BTreeRecoveryResult{
		Protocol:        proto,
		CommittedKeys:   len(committed),
		InFlight:        inFlight,
		SplitsForced:    db.Stats().NTAForces,
		RecoverySimTime: rep.SimTime,
		SurvivingKeys:   len(live),
		TreeViolations:  len(tree.Validate(0)),
		IFAViolations:   len(db.CheckIFA(0)),
	}
	// Surviving transactions can finish.
	for _, tx := range txns {
		if tx.Node() != victim {
			if err := tx.Commit(); err != nil {
				return nil, fmt.Errorf("post-recovery commit: %w", err)
			}
		}
	}
	return res, nil
}

// Table renders the result.
func (r *BTreeRecoveryResult) Table() string {
	t := &tableWriter{header: []string{
		"protocol", "committed-keys", "in-flight", "splits-forced", "recovery-time", "surviving-keys", "tree-violations", "ifa-violations",
	}}
	t.addRow(
		r.Protocol.String(),
		fmt.Sprintf("%d", r.CommittedKeys),
		fmt.Sprintf("%d", r.InFlight),
		fmt.Sprintf("%d", r.SplitsForced),
		ms(r.RecoverySimTime),
		fmt.Sprintf("%d", r.SurvivingKeys),
		fmt.Sprintf("%d", r.TreeViolations),
		fmt.Sprintf("%d", r.IFAViolations),
	)
	return t.String()
}

// Experiment E10: lock-space recovery (section 4.2.2). Shared locks from
// many nodes concentrate LCBs on whichever node touched them last; a crash
// destroys those LCBs and recovery must release the dead transactions'
// locks and rebuild the survivors' from their (read-lock-inclusive) logs.
type LockRecoveryResult struct {
	Protocol recovery.Protocol
	// Chained selects the multi-line LCB organization (section 4.2.2's
	// harder variant, recovered by dropping and rebuilding whole chains).
	Chained bool
	// LocksHeld is lock entries before the crash; LCBsLost the destroyed
	// control blocks; Reinstalled/Released/Replayed the recovery work;
	// ChainsDropped whole chained LCBs discarded for rebuild.
	LocksHeld, LCBsLost, Reinstalled, Released, Replayed, ChainsDropped int
	// SimTime is recovery duration; Phases its per-phase breakdown;
	// Violations the IFA check.
	SimTime    int64
	Phases     []obs.PhaseSpan
	Violations int
}

// RunLockRecovery builds a lock-heavy state and crashes the node that
// acquired last (so it holds most LCB lines). A non-nil observer is
// attached to the run for tracing.
func RunLockRecovery(proto recovery.Protocol, locksPerNode int, seed int64, chained bool, o *obs.Observer) (*LockRecoveryResult, error) {
	const nodes = 4
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: nodes, Lines: defaultPages*4 + 1024 + 128},
		Protocol:       proto,
		LinesPerPage:   4,
		RecsPerLine:    4,
		Pages:          defaultPages,
		LockTableLines: 1024,
		ChainedLCBs:    chained,
	})
	if err != nil {
		return nil, err
	}
	if err := workload.Seed(db, 0); err != nil {
		return nil, err
	}
	db.M.ResetStats()
	if o != nil {
		mode := "one-line"
		if chained {
			mode = "chained"
		}
		o.BeginProcess(fmt.Sprintf("lock-recovery %v %s", proto, mode))
		db.Attach(recovery.Observers{Obs: o})
	}
	mgr := txn.NewManager(db)
	slots := db.Store.Layout.SlotsPerPage()
	// One transaction per node in the one-line mode; four per node in the
	// chained mode, so each LCB's holder list overflows its first line and
	// the crash breaks chains.
	txnsPerNode := 1
	if chained {
		txnsPerNode = 4
	}
	var txns []*txn.Txn
	for n := 0; n < nodes; n++ {
		for k := 0; k < txnsPerNode; k++ {
			tx, err := mgr.Begin(machine.NodeID(n))
			if err != nil {
				return nil, err
			}
			txns = append(txns, tx)
		}
	}
	// Every transaction read-locks the same shared records, node order
	// last, so the crash victim (last to acquire) holds the LCB lines.
	held := 0
	for i := 0; i < locksPerNode; i++ {
		rid := ridAt(i, slots)
		for _, tx := range txns {
			if _, err := tx.Read(rid); err != nil {
				return nil, fmt.Errorf("lock %d txn %v: %w", i, tx.ID(), err)
			}
			held++
		}
	}
	victim := machine.NodeID(nodes - 1)
	lost := db.Locks.LostLCBCount()
	db.Crash(victim)
	lostAfter := db.Locks.LostLCBCount()
	rep, err := db.Recover([]machine.NodeID{victim})
	if err != nil {
		return nil, err
	}
	return &LockRecoveryResult{
		Protocol:      proto,
		Chained:       chained,
		LocksHeld:     held,
		LCBsLost:      lostAfter - lost,
		Reinstalled:   rep.LCBsReinstalled,
		Released:      rep.LockEntriesReleased,
		Replayed:      rep.LocksReplayed,
		ChainsDropped: rep.LCBChainsDropped,
		SimTime:       rep.SimTime,
		Phases:        rep.Phases,
		Violations:    len(db.CheckIFA(0)),
	}, nil
}

// pickAbsentKeys returns n keys evenly spread over [1, max] that are not in
// the present set.
func pickAbsentKeys(present map[uint64]uint64, n int, max uint64) []uint64 {
	out := make([]uint64, 0, n)
	step := max / uint64(n+1)
	if step == 0 {
		step = 1
	}
	k := step
	for len(out) < n {
		if _, ok := present[k]; !ok {
			out = append(out, k)
			k += step
		} else {
			k++
		}
	}
	return out
}

// ridAt picks the i-th shared-pool record (the second half of the space).
func ridAt(i, slotsPerPage int) heap.RID {
	// The shared pool starts at the middle page of the default heap.
	page := defaultPages/2 + i/slotsPerPage
	return heap.RID{Page: storage.PageID(page), Slot: uint16(i % slotsPerPage)}
}

// Table renders the result.
func (r *LockRecoveryResult) Table() string {
	t := &tableWriter{header: []string{
		"protocol", "lcb-mode", "locks-held", "lcbs-lost", "chains-dropped", "reinstalled", "entries-released", "locks-replayed", "recovery-time", "phase-breakdown", "ifa-violations",
	}}
	mode := "one-line"
	if r.Chained {
		mode = "chained"
	}
	t.addRow(
		r.Protocol.String(),
		mode,
		fmt.Sprintf("%d", r.LocksHeld),
		fmt.Sprintf("%d", r.LCBsLost),
		fmt.Sprintf("%d", r.ChainsDropped),
		fmt.Sprintf("%d", r.Reinstalled),
		fmt.Sprintf("%d", r.Released),
		fmt.Sprintf("%d", r.Replayed),
		ms(r.SimTime),
		obs.FormatPhases(r.Phases),
		fmt.Sprintf("%d", r.Violations),
	)
	return t.String()
}
