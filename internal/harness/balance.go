package harness

import (
	"fmt"
	"time"

	"smdb/internal/machine"
	"smdb/internal/obs/prof"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// Experiment E23 isolates the work-stealing chunker's contribution to the
// E18 speedup: the same crash recovery runs twice at the same fan-out width,
// once with grain -1 (the legacy one-task-per-index dispatch) and once with
// the default weight-balanced chunks, and the profiler's per-worker busy/idle
// split is compared per phase. The redo/undo outcome is identical by the
// equivalence gate; what moves is how evenly the fixed amount of work lands
// on the workers — Imbalance (max/mean busy) and IdleFraction are the two
// numbers the chunker exists to push toward 1.0 and 0.0.

// WorkBalanceArm is one dispatch strategy's measurement.
type WorkBalanceArm struct {
	// Label names the arm; Grain is the Cfg.RecoveryStealGrain that selects
	// it (-1 = per-item dispatch, 0 = default balanced chunks).
	Label string `json:"label"`
	Grain int    `json:"grain"`
	// Wall is the host wall-clock makespan of Recover.
	Wall time.Duration `json:"wall_ns"`
	// RedoApplied pins that both arms did the same recovery work.
	RedoApplied int `json:"redo_applied"`
	// Phases is the per-phase worker balance summary.
	Phases []prof.PhaseBalance `json:"phases"`
}

// WorkBalanceResult is the A/B pair.
type WorkBalanceResult struct {
	Protocol       recovery.Protocol `json:"-"`
	Nodes, Victims int               `json:"-"`
	Workers        int               `json:"workers"`
	Arms           []WorkBalanceArm  `json:"arms"`
}

// RunWorkBalance measures per-item vs chunked dispatch on the E18 workload
// (8 nodes, heavy committed backlog, two-node crash) under Volatile Selective
// Redo at the given fan-out width (default 4).
func RunWorkBalance(seed int64, workers int) (*WorkBalanceResult, error) {
	if workers <= 0 {
		workers = 4
	}
	const nodes, pages = 8, 32
	proto := recovery.VolatileSelectiveRedo
	res := &WorkBalanceResult{Protocol: proto, Nodes: nodes, Victims: 2, Workers: workers}
	for _, arm := range []struct {
		label string
		grain int
	}{
		{"per-item", -1},
		{"chunked", 0},
	} {
		a, err := runWorkBalanceArm(proto, nodes, pages, workers, arm.grain, arm.label, seed)
		if err != nil {
			return nil, fmt.Errorf("workbalance %s: %w", arm.label, err)
		}
		res.Arms = append(res.Arms, a)
	}
	return res, nil
}

func runWorkBalanceArm(proto recovery.Protocol, nodes, pages, workers, grain int, label string, seed int64) (WorkBalanceArm, error) {
	db, err := parDB(proto, nodes, pages, workers)
	if err != nil {
		return WorkBalanceArm{}, err
	}
	db.Cfg.RecoveryStealGrain = grain
	pair := prof.NewPair(machine.StripeCount)
	db.Attach(recovery.Observers{Prof: pair})
	r := workload.NewRunner(db, workload.Spec{
		TxnsPerNode: 12, OpsPerTxn: 8,
		ReadFraction: 0.2, SharingFraction: 0.5, Seed: seed,
	})
	if _, err := r.Run(); err != nil {
		return WorkBalanceArm{}, err
	}
	victims := []machine.NodeID{machine.NodeID(nodes - 1), machine.NodeID(nodes - 2)}
	db.Crash(victims...)
	start := time.Now()
	rep, err := db.Recover(victims)
	wall := time.Since(start)
	if err != nil {
		return WorkBalanceArm{}, err
	}
	if rep.Prof == nil {
		return WorkBalanceArm{}, fmt.Errorf("profiler attached but RecoveryReport.Prof is nil")
	}
	return WorkBalanceArm{
		Label:       label,
		Grain:       grain,
		Wall:        wall,
		RedoApplied: rep.RedoApplied,
		Phases:      rep.Prof.Workers.Balances(),
	}, nil
}

// Table renders the A/B with numeric imbalance/idle columns (the bench
// scripts parse these into the CI artifact, so the formats are stable).
func (r *WorkBalanceResult) Table() string {
	t := &tableWriter{header: []string{
		"arm", "phase", "workers", "tasks", "mean-busy", "max-busy", "imbalance", "idle-frac",
	}}
	for _, a := range r.Arms {
		for _, p := range a.Phases {
			t.addRow(
				a.Label,
				p.Phase,
				fmt.Sprintf("%d", p.Workers),
				fmt.Sprintf("%d", p.Tasks),
				prof.FormatNS(p.MeanBusyNS),
				prof.FormatNS(p.MaxBusyNS),
				fmt.Sprintf("%.3f", p.Imbalance),
				fmt.Sprintf("%.3f", p.IdleFraction),
			)
		}
	}
	out := t.String()
	for _, a := range r.Arms {
		out += fmt.Sprintf("%s: wall %.3fms, redo applied %d\n",
			a.Label, float64(a.Wall.Nanoseconds())/1e6, a.RedoApplied)
	}
	return out
}
