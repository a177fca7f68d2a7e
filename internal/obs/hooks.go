package obs

import (
	"smdb/internal/obs/debt"
	"smdb/internal/obs/prof"
	"smdb/internal/obs/waterfall"
)

// Hooks is the observer set the engine substrates (machine line ops, the
// per-node WALs, the buffer manager, the lock manager) report to. A
// database publishes one immutable Hooks through a single atomic pointer
// the substrates share; a nil pointer means nothing is attached, so with
// observability off every substrate hook costs one atomic load and one nil
// branch. Any field may be nil. None of the observers may call back into a
// substrate: the hooks run with stripe and manager locks held.
type Hooks struct {
	Obs       *Observer
	Stripes   *prof.StripeProf
	Waterfall *waterfall.Recorder
	Debt      *debt.Tracker
}
