package dp

import (
	"context"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

func init() { backend.Register(asBackend{}) }

// asBackend adapts the DP baseline to the registry contract. The DP
// ignores precedence constraints by construction, so the adapter
// repairs its order against the request's constraint set before
// reporting it.
type asBackend struct{}

func (asBackend) Info() backend.Info {
	return backend.Info{
		Name:    "dp",
		Kind:    backend.KindConstructive,
		Rank:    20,
		Summary: "interval dynamic-programming baseline (§4.4), precedence-repaired; explicit only",
		// Never in the default set: in traced races it supplied neither
		// the final incumbent nor an improvement on TPC-H or TPC-DS, and
		// on TPC-DS it runs 1.0–1.2 s without polling its context. It
		// stays registered for Table 7 and explicit -method dp.
		Applicable: func(*model.Compiled) bool { return false },
	}
}

func (asBackend) Solve(_ context.Context, req backend.Request) backend.Outcome {
	order := sched.Repair(Solve(req.Compiled), req.Constraints)
	return backend.Outcome{Order: order, Objective: req.Compiled.Objective(order)}
}
