package workload

import (
	"strings"
	"testing"
	"time"

	"smdb/internal/fault"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/debt"
	"smdb/internal/obs/deps"
	"smdb/internal/obs/prof"
	"smdb/internal/obs/waterfall"
	"smdb/internal/recovery"
)

// TestChaosProfiledRecovery is TestChaosParallelRecovery with the contention
// profiler armed: every stripe acquisition, condvar sleep, and fan-out now
// runs the profiled hot path while crashes land mid-phase, so under -race
// this is the data-race coverage for the profiler's counter blocks, the
// holdStart hand-off in the stripe helpers, and mid-run attach/detach.
func TestChaosProfiledRecovery(t *testing.T) {
	protos := []recovery.Protocol{
		recovery.VolatileSelectiveRedo,
		recovery.StableTriggered,
	}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				db := chaosDBWorkers(t, proto, 5, 4)
				o := obs.NewWithCapacity(4096)
				pair := prof.NewPair(machine.StripeCount)
				set := recovery.Observers{Obs: o, Deps: deps.New(o), Prof: pair}
				if seed == 2 {
					// One seed attaches the whole observer set and flips it
					// off and on while the run is in progress, so detach with
					// open profiled sections, in-flight waterfalls, and
					// half-seen crash episodes gets chaos coverage too.
					set.Audit = audit.New(audit.Config{})
					set.Waterfall = waterfall.New(waterfall.Config{Nodes: db.M.Nodes()})
					set.Debt = debt.New(debt.Config{Nodes: db.M.Nodes(), LinesPerPage: db.Cfg.LinesPerPage})
					set.Flight = obs.NewFlightRecorder(t.TempDir(), 16)
				}
				db.Attach(set)
				inj := fault.New(fault.Plan{
					Seed:              seed,
					PCrashAtMigration: 0.02,
					PCrashAtUpdate:    0.01,
					PTornForce:        0.02,
					PCrashInRecovery:  0.3,
					PCoordinatorCrash: 0.5,
					PIOError:          0.05,
					MaxCrashes:        2,
				})
				stopFlipping := func() {}
				if seed == 2 {
					stopFlipping = flipObservers(db, set)
				}
				res, err := RunChaos(db, inj, chaosSpec(seed), 3)
				stopFlipping()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if seed == 2 {
					// The flips may have caught every recovery of the run
					// detached; one more, attached, must be attributed.
					db.Crash(1)
					if _, err := db.Recover([]machine.NodeID{1}); err != nil {
						t.Fatalf("seed %d: attached recovery: %v", seed, err)
					}
				}
				if len(res.Violations) != 0 {
					t.Errorf("seed %d: IFA violations under %v with profiled recovery:\n%s",
						seed, proto, strings.Join(res.Violations, "\n"))
				}
				snap := pair.Stripes.Snapshot()
				if snap.Totals().Acquires == 0 {
					t.Errorf("seed %d: profiler recorded no stripe acquisitions", seed)
				}
				if res.Episodes > 0 && len(pair.Workers.Snapshot().Phases) == 0 {
					t.Errorf("seed %d: %d recovery episodes but no fan-outs attributed",
						seed, res.Episodes)
				}
			}
		})
	}
}

// flipObservers leaves set attached to db for a while, then detaches and
// reattaches it, in a loop until the returned stop function is called; stop
// returns once the loop has exited with the set attached.
func flipObservers(db *recovery.DB, set recovery.Observers) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-time.After(400 * time.Microsecond):
			}
			db.Attach(recovery.Observers{})
			time.Sleep(100 * time.Microsecond)
			db.Attach(set)
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
