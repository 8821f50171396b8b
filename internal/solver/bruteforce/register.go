package bruteforce

import (
	"context"
	"math"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

func init() { backend.Register(asBackend{}) }

// asBackend adapts exhaustive enumeration to the registry contract.
type asBackend struct{}

func (asBackend) Info() backend.Info {
	return backend.Info{
		Name:    "bruteforce",
		Kind:    backend.KindExact,
		Rank:    30,
		Proves:  true,
		Summary: "bounded exhaustive enumeration; the conformance anchor, explicit only",
		// Never in the default set: A* proves every instance brute force
		// can enumerate in a fraction of the time. Brute force stays
		// registered as the conformance anchor and for explicit use.
		Applicable: func(*model.Compiled) bool { return false },
	}
}

func (asBackend) Solve(ctx context.Context, req backend.Request) backend.Outcome {
	res, err := SolveContext(ctx, req.Compiled, req.Constraints, true)
	if err != nil {
		return backend.Outcome{Objective: math.Inf(1), Err: err}
	}
	return backend.Outcome{
		Order: res.Order, Objective: res.Objective,
		Proved: !res.Aborted, Iterations: res.Visited,
	}
}
