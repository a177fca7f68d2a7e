package recovery_test

import (
	"bytes"
	"fmt"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/debt"
	"smdb/internal/obs/deps"
	"smdb/internal/obs/prof"
	"smdb/internal/obs/waterfall"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

// fullSet builds one of every observer for db.
func fullSet(t *testing.T, db *recovery.DB) recovery.Observers {
	o := obs.NewWithCapacity(1 << 14)
	return recovery.Observers{
		Obs:       o,
		Deps:      deps.New(o),
		Audit:     audit.New(audit.Config{}),
		Prof:      prof.NewPair(machine.StripeCount),
		Waterfall: waterfall.New(waterfall.Config{Nodes: db.M.Nodes()}),
		Debt:      debt.New(debt.Config{Nodes: db.M.Nodes(), LinesPerPage: db.Cfg.LinesPerPage}),
		Flight:    obs.NewFlightRecorder(t.TempDir(), 16),
	}
}

// fingerprint renders everything the observers of set have accumulated.
func fingerprint(t *testing.T, set recovery.Observers) string {
	t.Helper()
	var b bytes.Buffer
	for k := obs.Kind(0); k < 255; k++ {
		fmt.Fprintf(&b, "%d ", set.Obs.Count(k))
	}
	for _, h := range set.Obs.Histograms() {
		s := h.Snapshot()
		fmt.Fprintf(&b, "%s=%d ", s.Name, s.Count)
	}
	for _, write := range []func() error{
		func() error { return set.Deps.WriteGraphJSON(&b) },
		func() error { return set.Audit.WriteAuditTxn(&b, "") },
		func() error { return set.Audit.WriteAuditViolations(&b) },
		func() error { return set.Prof.WriteProfJSON(&b) },
		func() error { return set.Waterfall.WriteWaterfallJSON(&b) },
		func() error { return set.Debt.WriteDebtJSON(&b) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&b, "dumps=%d", len(set.Flight.Dumps()))
	return b.String()
}

// crashCycle commits on node 0, leaves an update open on node 1, crashes
// node 2, and recovers: every substrate and every protocol hook runs.
func crashCycle(t *testing.T, db *recovery.DB, mgr *txn.Manager, val byte) {
	t.Helper()
	tx, err := mgr.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(heap.RID{Page: 1, Slot: 0}, []byte{val}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	open, err := mgr.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := open.Write(heap.RID{Page: 2, Slot: 1}, []byte{val}); err != nil {
		t.Fatal(err)
	}
	db.Crash(2)
	if _, err := db.Recover([]machine.NodeID{2}); err != nil {
		t.Fatal(err)
	}
	if err := db.RestartNode(2); err != nil {
		t.Fatal(err)
	}
	if err := open.Commit(); err != nil {
		t.Fatal(err)
	}
	mustCheckIFA(t, db, 0)
}

// TestDetachWholeSet attaches every observer, then detaches the whole set:
// afterwards no substrate reports to any of them, and the hot paths they
// hooked allocate nothing.
func TestDetachWholeSet(t *testing.T) {
	db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 3)
	seed(t, mgr, []heap.RID{{Page: 1, Slot: 0}, {Page: 2, Slot: 1}}, 1)
	set := fullSet(t, db)
	db.Attach(set)
	before := fingerprint(t, set)
	crashCycle(t, db, mgr, 2)
	attached := fingerprint(t, set)
	if attached == before {
		t.Fatal("attached observers saw nothing")
	}
	if len(set.Flight.Dumps()) == 0 {
		t.Error("attached flight recorder wrote no crash dump")
	}

	db.Attach(recovery.Observers{})
	if db.M.Hooks().Load() != nil {
		t.Fatal("detach left a substrate hook set published")
	}
	if db.Observers() != (recovery.Observers{}) {
		t.Fatalf("detach left observers attached: %+v", db.Observers())
	}
	crashCycle(t, db, mgr, 3)
	if after := fingerprint(t, set); after != attached {
		t.Errorf("detached observers still saw events:\nattached: %s\nafter:    %s", attached, after)
	}

	line := db.Store.HeaderLine(1)
	allocs := testing.AllocsPerRun(100, func() {
		if err := db.M.GetLine(0, line); err != nil {
			t.Fatal(err)
		}
		if err := db.M.Write(0, line, 0, []byte{0}); err != nil {
			t.Fatal(err)
		}
		if err := db.M.ReleaseLine(0, line); err != nil {
			t.Fatal(err)
		}
		db.BM.MarkDirty(1)
	})
	if allocs != 0 {
		t.Errorf("detached hooks allocate %.1f times per line op", allocs)
	}
}
