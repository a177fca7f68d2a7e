package harness

import (
	"fmt"

	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// Experiment E5 compares the restart-recovery cost of the two schemes of
// section 4.1.2 as a function of the redo backlog (committed work since the
// last checkpoint). Redo All discards every cache and replays everything;
// Selective Redo replays only what the crash actually destroyed, at the
// price of undo tagging during normal operation.
type RestartPoint struct {
	Protocol recovery.Protocol
	// Backlog is the number of updates since the last checkpoint.
	Backlog int
	// RedoApplied/RedoSkipped are restart redo decisions; UndoApplied is
	// undo work; TagScanLines the Selective Redo cache scan size.
	RedoApplied, RedoSkipped, UndoApplied, TagScanLines int
	// SimTime is the simulated recovery duration; Phases its breakdown into
	// recovery phases (freeze, lock rebuild, redo scan/probe/apply, ...).
	SimTime int64
	Phases  []obs.PhaseSpan
}

// RestartResult is the sweep.
type RestartResult struct {
	Points []RestartPoint
}

// RunRestart sweeps the post-checkpoint backlog for both volatile-LBM
// restart schemes, crashing one (mostly idle) node so that the work
// measured is recovery overhead rather than lost data. A non-nil observer
// is attached to every run (one trace process per sweep point), so the
// caller can export the whole sweep as one Chrome trace.
func RunRestart(backlogs []int, seed int64, o *obs.Observer) (*RestartResult, error) {
	if len(backlogs) == 0 {
		backlogs = []int{32, 128, 512}
	}
	res := &RestartResult{}
	for _, proto := range []recovery.Protocol{recovery.VolatileRedoAll, recovery.VolatileSelectiveRedo} {
		for _, backlog := range backlogs {
			p, err := runRestartOnce(proto, backlog, seed, o)
			if err != nil {
				return nil, fmt.Errorf("restart %v backlog=%d: %w", proto, backlog, err)
			}
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}

func runRestartOnce(proto recovery.Protocol, backlog int, seed int64, o *obs.Observer) (RestartPoint, error) {
	nodes := 4
	db, err := seededDB(proto, nodes, 4, 32, 0)
	if err != nil {
		return RestartPoint{}, err
	}
	if o != nil {
		o.BeginProcess(fmt.Sprintf("restart %v backlog=%d", proto, backlog))
		db.Attach(recovery.Observers{Obs: o})
	}
	// Build the backlog: committed updates after the seed checkpoint,
	// spread across the surviving nodes.
	opsPerTxn := 8
	txns := backlog / opsPerTxn
	perNode := txns / (nodes - 1)
	if perNode < 1 {
		perNode = 1
	}
	r := workload.NewRunner(db, workload.Spec{
		TxnsPerNode: perNode, OpsPerTxn: opsPerTxn,
		ReadFraction: 0, SharingFraction: 0.4, Seed: seed,
	})
	if _, err := r.Run(); err != nil {
		return RestartPoint{}, err
	}
	victim := machine.NodeID(nodes - 1)
	db.Crash(victim)
	rep, err := db.Recover([]machine.NodeID{victim})
	if err != nil {
		return RestartPoint{}, err
	}
	return RestartPoint{
		Protocol:     proto,
		Backlog:      backlog,
		RedoApplied:  rep.RedoApplied,
		RedoSkipped:  rep.RedoSkipped,
		UndoApplied:  rep.UndoApplied,
		TagScanLines: rep.TagScanLines,
		SimTime:      rep.SimTime,
		Phases:       rep.Phases,
	}, nil
}

// Table renders the sweep.
func (r *RestartResult) Table() string {
	t := &tableWriter{header: []string{
		"protocol", "backlog", "redo-applied", "redo-skipped", "undo", "tag-scan-lines", "recovery-time", "phase-breakdown",
	}}
	for _, p := range r.Points {
		t.addRow(
			p.Protocol.String(),
			fmt.Sprintf("%d", p.Backlog),
			fmt.Sprintf("%d", p.RedoApplied),
			fmt.Sprintf("%d", p.RedoSkipped),
			fmt.Sprintf("%d", p.UndoApplied),
			fmt.Sprintf("%d", p.TagScanLines),
			ms(p.SimTime),
			obs.FormatPhases(p.Phases),
		)
	}
	return t.String()
}
