package workload

import (
	"strings"
	"testing"

	"smdb/internal/fault"
	"smdb/internal/recovery"
)

// TestChaosParallelRecovery runs the seeded chaos sweep with the parallel
// recovery pipeline enabled: in-recovery crashes, torn forces, and transient
// I/O errors now land inside (or between) fanned-out phases, so this is the
// race and error-path coverage for parrestart.go under live fault injection.
func TestChaosParallelRecovery(t *testing.T) {
	protos := []recovery.Protocol{
		recovery.VolatileRedoAll,
		recovery.VolatileSelectiveRedo,
		recovery.StableEager,
		recovery.StableTriggered,
	}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				db := chaosDBWorkers(t, proto, 5, 4)
				attachTracker(db)
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
				res, err := RunChaos(db, inj, chaosSpec(seed), 3)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(res.Violations) != 0 {
					t.Errorf("seed %d: IFA violations under %v with parallel recovery:\n%s",
						seed, proto, strings.Join(res.Violations, "\n"))
				}
				if res.RecoveryAttempts < res.Episodes {
					t.Errorf("seed %d: %d recovery attempts over %d episodes",
						seed, res.RecoveryAttempts, res.Episodes)
				}
			}
		})
	}
}
