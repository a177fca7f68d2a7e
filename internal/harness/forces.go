package harness

import (
	"fmt"

	"smdb/internal/obs"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// Experiment E6 measures log-force frequency (section 5.2): eager Stable
// LBM forces on every update; triggered Stable LBM forces only when an
// active line is about to migrate, downgrade, or be invalidated (the
// proposed coherency-protocol extension), so its force count tracks the
// *inter-node sharing rate* rather than the update rate; Volatile LBM
// forces only at commit.
type ForcesPoint struct {
	Protocol        recovery.Protocol
	SharingFraction float64
	Updates         int64
	// LBMForces are forces attributable to the LBM policy; PhysForces are
	// all physical forces including commits and WAL.
	LBMForces, PhysForces int64
	// ForcesPerKUpdate is PhysForces per 1000 updates.
	ForcesPerKUpdate float64
	// TriggerFires counts coherency-trigger callback invocations.
	TriggerFires int64
	// ForceP50NS/ForceP99NS are log-force latency quantiles from a per-run
	// observer's histogram (simulated ns; 0 when the run forced nothing).
	ForceP50NS, ForceP99NS int64
}

// ForcesResult is the sweep.
type ForcesResult struct {
	Points []ForcesPoint
}

// RunForces sweeps the sharing fraction for the three force disciplines.
func RunForces(sharing []float64, seed int64) (*ForcesResult, error) {
	if len(sharing) == 0 {
		sharing = []float64{0.0, 0.25, 0.5, 0.75, 1.0}
	}
	res := &ForcesResult{}
	for _, proto := range []recovery.Protocol{recovery.VolatileSelectiveRedo, recovery.StableTriggered, recovery.StableEager} {
		for _, sh := range sharing {
			db, err := seededDB(proto, 8, 4, defaultPages, 0)
			if err != nil {
				return nil, err
			}
			o := obs.New()
			db.Attach(recovery.Observers{Obs: o})
			forces0 := totalLogForces(db)
			r := workload.NewRunner(db, workload.Spec{
				TxnsPerNode: 6, OpsPerTxn: 10,
				ReadFraction: 0.2, SharingFraction: sh, Seed: seed,
			})
			wres, err := r.Run()
			if err != nil {
				return nil, fmt.Errorf("forces %v sh=%.2f: %w", proto, sh, err)
			}
			st := db.Stats()
			p := ForcesPoint{
				Protocol:        proto,
				SharingFraction: sh,
				Updates:         int64(wres.Writes),
				LBMForces:       st.LBMForces,
				PhysForces:      totalLogForces(db) - forces0,
				TriggerFires:    db.M.Stats().TriggerFires,
			}
			if p.Updates > 0 {
				p.ForcesPerKUpdate = 1000 * float64(p.PhysForces) / float64(p.Updates)
			}
			if h := o.LogForceHist().Snapshot(); h.Count > 0 {
				p.ForceP50NS = h.Quantile(0.50)
				p.ForceP99NS = h.Quantile(0.99)
			}
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *ForcesResult) Table() string {
	t := &tableWriter{header: []string{
		"protocol", "sharing", "updates", "LBM-forces", "phys-forces", "forces/1k-updates", "force-p50", "force-p99", "trigger-fires",
	}}
	for _, p := range r.Points {
		t.addRow(
			p.Protocol.String(),
			pct(p.SharingFraction),
			fmt.Sprintf("%d", p.Updates),
			fmt.Sprintf("%d", p.LBMForces),
			fmt.Sprintf("%d", p.PhysForces),
			fmt.Sprintf("%.1f", p.ForcesPerKUpdate),
			us(p.ForceP50NS),
			us(p.ForceP99NS),
			fmt.Sprintf("%d", p.TriggerFires),
		)
	}
	return t.String()
}
