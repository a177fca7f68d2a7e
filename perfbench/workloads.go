package main

import (
	"runtime"

	"smdb/internal/recovery"
)

// Every workload runs 8 operations per transaction and plans 2% of its
// transactions to end in Abort, so the abort path is always measured.
const (
	opsPerTxn = 8
	abortFrac = 0.02
)

// workload is one benchmark input: a database shape, a protocol, a
// transaction mix, and the amount of work one round performs. Every round of
// a workload starts from a freshly seeded database and performs the same
// seeded work, so a round's cost never depends on what ran before it. Why
// each workload exists is written in BENCHMARK.json and README.md.
type workload struct {
	name string

	proto     recovery.Protocol
	nodes     int
	pages     int // heap pages of 28 records each
	lockLines int // shared-memory LCB table size
	// workers is the restart recovery fan-out (0 = sequential); -1 means
	// one worker per CPU of the host.
	workers int

	readFrac float64
	// sharedFrac of operations go to the shared pool (the second half of
	// the records); the rest to the issuing node's private partition.
	sharedFrac float64
	// hotProb of shared-pool operations hit its hottest hotSpot fraction.
	hotSpot, hotProb float64

	// cycles crash cycles run per round, each after backlog acknowledged
	// transactions; tail more transactions follow the last cycle.
	cycles, backlog, tail int
	// inputSets is how many input sets, derived from the seed, a run's
	// rounds cycle through (0 means 1). On the default database the lock
	// table's probe chains depend on the order records are first locked,
	// so one input set's cost per transaction can sit 15% off another's;
	// a pass over several sets averages that out.
	inputSets int
}

func (w *workload) sets() int { return max(w.inputSets, 1) }

// inputSeed is the seed of input set i; set 0 uses the run's seed itself.
func inputSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_000_007 }

// recoveryWorkers resolves the -1 "one per CPU" setting.
func (w *workload) recoveryWorkers() int {
	if w.workers < 0 {
		return runtime.NumCPU()
	}
	return w.workers
}

// crashWorkload is a crash-restart workload on the default database: 64
// pages (1,792 records) on 4 nodes with a 512-line lock table.
func crashWorkload(name string, proto recovery.Protocol, workers int) workload {
	return workload{
		name:  name,
		proto: proto, nodes: 4, pages: 64, lockLines: 512, workers: workers,
		readFrac: 0.5, sharedFrac: 0.2,
		cycles: 8, backlog: 250, inputSets: 8,
	}
}

// workloads are the benchmark's inputs. BENCHMARK.json lists all but
// oltp-hotspot, which a lock-manager defect currently livelocks (README.md).
var workloads = []workload{
	{
		name:  "oltp-partitioned",
		proto: recovery.VolatileSelectiveRedo, nodes: 4, pages: 293, lockLines: 1024,
		readFrac: 0.5, sharedFrac: 0.1,
		cycles: 8, backlog: 100, tail: 200,
	},
	{
		name:  "oltp-hotspot",
		proto: recovery.StableTriggered, nodes: 8, pages: 64, lockLines: 512,
		readFrac: 0.3, sharedFrac: 0.8, hotSpot: 0.05, hotProb: 0.8,
		cycles: 1, backlog: 600, tail: 200,
	},
	crashWorkload("crash-selective-redo", recovery.VolatileSelectiveRedo, 0),
	crashWorkload("crash-redo-all", recovery.VolatileRedoAll, 0),
	crashWorkload("crash-selective-redo-par", recovery.VolatileSelectiveRedo, -1),
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
