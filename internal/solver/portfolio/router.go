package portfolio

import (
	"context"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/astar"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

// Fast-path routing: most production advisor traffic is small instances
// for which racing ten backends is pure overhead — one exact solver
// proves the optimum in microseconds. The Router sends an instance at or
// below its size threshold straight to the registry's first applicable
// exact prover instead of the full portfolio race. Because the routed
// backend runs to exhaustion and proves optimality, the routed objective
// is bit-identical to what the race would return (both are the unique
// optimum under the shared evaluation core); when the routed backend
// fails to prove within budget, the caller falls back to the race, so
// routing can never degrade result quality.

// Features is kept empty for the benchmark replayer (perfbench/replay.go),
// which still calls FeaturesOf and Observe; routing keys on size alone.
type Features struct{}

// FeaturesOf is a no-op kept for the benchmark replayer.
func FeaturesOf(*model.Compiled, *constraint.Set) Features { return Features{} }

// DefaultFastPathMaxN is the routing size threshold when the caller
// passes 0: instances this small prove in well under a millisecond on
// any exact backend, so the portfolio race is pure overhead for them.
const DefaultFastPathMaxN = 12

// Router decides, per instance, between the fast path (one exact
// backend, straight to a proof) and the full portfolio race. It is a
// stateless size rule, safe for concurrent use.
type Router struct {
	maxN int
}

// NewRouter returns a router that fast-paths instances with at most
// maxN indexes (0 = DefaultFastPathMaxN; negative disables routing, so
// Route never returns ok). maxN is capped at astar.MaxN: no exact
// prover proves a larger instance within a request budget, so routing
// one would only pay for the failed attempt before the race.
func NewRouter(maxN int) *Router {
	if maxN == 0 {
		maxN = DefaultFastPathMaxN
	}
	return &Router{maxN: min(maxN, astar.MaxN)}
}

// MaxN reports the effective fast-path size threshold (negative =
// routing disabled).
func (r *Router) MaxN() int { return r.maxN }

// Route picks the exact backend to fast-path this instance to — the
// first applicable prover in registry rank order — or reports ok=false
// when the instance should run the full portfolio race (too large,
// routing disabled, or no applicable exact prover).
func (r *Router) Route(c *model.Compiled, _ *constraint.Set) (string, bool) {
	if r == nil || r.maxN < 0 || c.N > r.maxN {
		return "", false
	}
	provers := backend.ExactProvers(c)
	if len(provers) == 0 {
		return "", false
	}
	return provers[0], true
}

// Observe is a no-op kept for the benchmark replayer: routing does not
// learn from outcomes.
func (r *Router) Observe(Features, string, bool, time.Duration) {}

// SolveSingle runs exactly one named backend over the instance with the
// full budget — the fast path that skips the portfolio race. It is Solve
// over a one-backend list, so the result, progress events, greedy (or
// opt.Initial) seeding and unknown-name error are Solve's.
func SolveSingle(ctx context.Context, c *model.Compiled, cs *constraint.Set, name string, opt Options) (Result, error) {
	opt.Backends = []string{name}
	return Solve(ctx, c, cs, opt)
}
