package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// TestTracerLiveCrash drives a goroutine-per-node workload with an attached
// observer, crashes a node out from under it, and runs restart recovery.
// Every engine layer's hooks fire concurrently while a reader goroutine
// snapshots the trace, so `go test -race ./internal/obs` checks the
// observer's synchronization end to end.
func TestTracerLiveCrash(t *testing.T) {
	o := obs.New()
	db, err := recovery.New(recovery.Config{
		Machine:     machine.Config{Nodes: 4},
		Protocol:    recovery.VolatileSelectiveRedo,
		RecsPerLine: 4,
		Pages:       16,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Attach(recovery.Observers{Obs: o})
	if err := workload.Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	r := workload.NewRunner(db, workload.Spec{
		TxnsPerNode: 500, OpsPerTxn: 8,
		ReadFraction: 0.4, SharingFraction: 0.6, Seed: 7,
	})

	stop := make(chan struct{})
	workDone := make(chan struct{})
	go func() {
		defer close(workDone)
		if _, err := r.RunConcurrent(stop); err != nil {
			t.Errorf("workload: %v", err)
		}
	}()
	// Concurrent reader: snapshots must be safe while workers record.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = o.Events()
				_ = o.LineLockHist().Snapshot()
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	time.Sleep(5 * time.Millisecond)
	victim := machine.NodeID(3)
	db.Crash(victim)
	close(stop)
	<-workDone
	<-readDone

	rep, err := db.Recover([]machine.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) == 0 {
		t.Error("recovery report has no phase breakdown")
	}
	if o.Count(obs.KindCrash) == 0 {
		t.Error("no crash event recorded")
	}
	if o.Count(obs.KindTxnBegin) == 0 {
		t.Error("no txn-begin events recorded")
	}
	if o.Count(obs.KindRecovery) != 1 {
		t.Errorf("recovery spans recorded = %d, want 1", o.Count(obs.KindRecovery))
	}
	if got, want := int64(len(o.PhaseSpans())), o.Count(obs.KindPhase); got != want {
		t.Errorf("PhaseSpans() = %d spans, counter says %d", got, want)
	}
	if v := db.CheckIFA(0); len(v) != 0 {
		t.Errorf("IFA violations after live-crash recovery: %v", v)
	}

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("live trace export is not valid JSON")
	}
}
