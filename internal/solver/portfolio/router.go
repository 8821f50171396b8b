package portfolio

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// Fast-path routing: most production advisor traffic is small instances
// for which racing ten backends is pure overhead — one exact solver
// proves the optimum in microseconds. The Router derives cheap features
// from an instance, and when the instance is small enough routes it
// straight to a single applicable exact backend instead of the full
// portfolio race. Because the routed backend runs to exhaustion and
// proves optimality, the routed objective is bit-identical to what the
// race would return (both are the unique optimum under the shared
// evaluation core); when the routed backend fails to prove within
// budget, the caller falls back to the race, so routing can never
// degrade result quality.

// Features are the cheap instance descriptors routing keys on.
type Features struct {
	// N is the index count — the dominant cost driver for every exact
	// backend.
	N int
	// PrecedenceEdges counts explicit precedence constraints.
	PrecedenceEdges int
	// PrecedenceDensity is PrecedenceEdges / (n choose 2), in [0, 1].
	PrecedenceDensity float64
	// Plans counts the instance's query plans (constraint count in the
	// evaluation sense: every plan is one speedup term to maintain).
	Plans int
}

// FeaturesOf derives routing features from a compiled instance. cs may
// be nil (no precedence constraints).
func FeaturesOf(c *model.Compiled, cs *constraint.Set) Features {
	f := Features{N: c.N, Plans: len(c.PlanQuery)}
	if cs != nil {
		f.PrecedenceEdges = cs.Len()
	}
	if pairs := c.N * (c.N - 1) / 2; pairs > 0 {
		f.PrecedenceDensity = float64(f.PrecedenceEdges) / float64(pairs)
	}
	return f
}

// Class buckets the features into a coarse key for win-telemetry
// accumulation: size band plus precedence-density band. Coarse on
// purpose — the router learns per class, and too many classes would
// never accumulate enough observations to matter.
func (f Features) Class() string {
	size := "tiny"
	switch {
	case f.N > 16:
		size = "large"
	case f.N > 10:
		size = "medium"
	case f.N > 7:
		size = "small"
	}
	dens := "sparse"
	if f.PrecedenceDensity > 0.15 {
		dens = "dense"
	}
	return size + "/" + dens
}

// DefaultFastPathMaxN is the routing size threshold when the caller
// passes 0: instances this small prove in well under a millisecond on
// any exact backend, so the portfolio race is pure overhead for them.
const DefaultFastPathMaxN = 12

// Router decides, per instance, between the fast path (one exact
// backend, straight to a proof) and the full portfolio race, and
// accumulates per-backend win telemetry to pick the exact backend that
// historically proves fastest for the instance's feature class. Safe
// for concurrent use.
type Router struct {
	maxN int

	mu sync.Mutex
	// stats[class][backend] aggregates proof outcomes observed for that
	// feature class, from routed solves and full races alike.
	stats map[string]map[string]*routeStats
}

type routeStats struct {
	attempts int64 // routed or race-won solves recorded, proved or not
	proofs   int64
	wallNano int64
}

// routeMinAttempts is the exploration floor: every applicable exact
// prover gets this many routed attempts per feature class before the
// router starts exploiting the best observed mean proof wall. Without
// it the cold-start choice (rank order) sticks forever: a routed solve
// only produces telemetry for the backend it was routed to.
const routeMinAttempts = 3

// NewRouter returns a router that fast-paths instances with at most
// maxN indexes (0 = DefaultFastPathMaxN; negative disables routing, so
// Route never returns ok).
func NewRouter(maxN int) *Router {
	if maxN == 0 {
		maxN = DefaultFastPathMaxN
	}
	return &Router{maxN: maxN, stats: make(map[string]map[string]*routeStats)}
}

// MaxN reports the configured fast-path size threshold (negative =
// routing disabled).
func (r *Router) MaxN() int { return r.maxN }

// Route picks the exact backend to fast-path this instance to, or
// reports ok=false when the instance should run the full portfolio race
// (too large, routing disabled, no applicable exact prover, or every
// sampled prover failed to prove within budget for this feature class).
// While any applicable prover has fewer than routeMinAttempts recorded
// attempts for the class, the least-attempted one is explored — rank
// order breaks ties, so a cold router behaves like the registry's
// preference order; once sampled, the prover with the best mean proof
// wall time wins.
func (r *Router) Route(c *model.Compiled, cs *constraint.Set) (string, bool) {
	if r == nil || r.maxN < 0 || c.N > r.maxN {
		return "", false
	}
	provers := backend.ExactProvers(c)
	if len(provers) == 0 {
		return "", false
	}
	class := FeaturesOf(c, cs).Class()
	r.mu.Lock()
	defer r.mu.Unlock()
	explore, exploreAttempts := "", int64(routeMinAttempts)
	for _, name := range provers {
		var a int64
		if s := r.stats[class][name]; s != nil {
			a = s.attempts
		}
		if a < exploreAttempts {
			explore, exploreAttempts = name, a
		}
	}
	if explore != "" {
		return explore, true
	}
	best, bestMean := "", math.Inf(1)
	for _, name := range provers {
		s := r.stats[class][name]
		if s == nil || s.proofs == 0 {
			continue
		}
		if mean := float64(s.wallNano) / float64(s.proofs); mean < bestMean {
			best, bestMean = name, mean
		}
	}
	if best == "" {
		// Fully sampled and nobody ever proved: the class is too hard
		// for a single-backend fast path — let the race handle it.
		return "", false
	}
	return best, true
}

// Observe feeds one solve outcome back into the win telemetry: which
// backend proved (or won) the instance and how long its solve took.
// Both routed solves and full portfolio races report here, so the race
// itself teaches the router which exact backend finishes first per
// class. Unproved outcomes count as attempts only — they advance the
// exploration cursor and, if a class never proves, eventually disable
// its fast path — but never contribute a proof wall.
func (r *Router) Observe(f Features, winner string, proved bool, wall time.Duration) {
	if r == nil || winner == "" {
		return
	}
	class := f.Class()
	r.mu.Lock()
	defer r.mu.Unlock()
	byBackend := r.stats[class]
	if byBackend == nil {
		byBackend = make(map[string]*routeStats)
		r.stats[class] = byBackend
	}
	s := byBackend[winner]
	if s == nil {
		s = &routeStats{}
		byBackend[winner] = s
	}
	s.attempts++
	if !proved {
		return
	}
	s.proofs++
	s.wallNano += int64(wall)
}

// RouteStat is one row of the router's accumulated win telemetry.
type RouteStat struct {
	Class      string  `json:"class"`
	Backend    string  `json:"backend"`
	Attempts   int64   `json:"attempts"`
	Proofs     int64   `json:"proofs"`
	MeanWallMS float64 `json:"mean_wall_ms,omitempty"`
}

// Snapshot returns the accumulated telemetry sorted by class then
// backend (for metrics endpoints and debugging).
func (r *Router) Snapshot() []RouteStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []RouteStat
	for class, byBackend := range r.stats {
		for name, s := range byBackend {
			st := RouteStat{
				Class: class, Backend: name,
				Attempts: s.attempts, Proofs: s.proofs,
			}
			if s.proofs > 0 {
				st.MeanWallMS = float64(s.wallNano) / float64(s.proofs) / 1e6
			}
			out = append(out, st)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Class != out[b].Class {
			return out[a].Class < out[b].Class
		}
		return out[a].Backend < out[b].Backend
	})
	return out
}

// SolveSingle runs exactly one named backend over the instance with the
// full budget — the fast path that skips the portfolio race. The result
// is shaped exactly like Solve's: the backend's telemetry appears in
// Backends, progress events fire for the backend start, every incumbent
// improvement, the proof, and completion. The incumbent store is seeded
// with greedy (or opt.Initial), exactly like the race, so a backend
// that fails to improve still returns a feasible order.
func SolveSingle(ctx context.Context, c *model.Compiled, cs *constraint.Set, name string, opt Options) (Result, error) {
	b, ok := backend.Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("portfolio: %w", backend.CheckNames([]string{name}))
	}
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	info := b.Info()
	budget := opt.Budget
	if budget <= 0 {
		budget = 10 * time.Second
	}
	emit := func(ev ProgressEvent) {
		if opt.OnProgress != nil {
			opt.OnProgress(ev)
		}
	}

	sh := opt.Store
	if sh == nil {
		sh = NewStore(c.N, cs)
	}
	initial := opt.Initial
	if initial == nil {
		initial = greedy.Solve(c, cs)
	} else if err := ValidateInitial(c, cs, initial); err != nil {
		return Result{}, fmt.Errorf("portfolio: Options.Initial is not a feasible order: %w", err)
	}
	sh.Offer("seed", initial, c.Objective(initial))

	if ctx == nil {
		ctx = context.Background()
	}
	bctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	br := BackendResult{Name: name, Objective: math.Inf(1), BestPublished: math.Inf(1)}
	var pubMu sync.Mutex
	publish := func(order []int, obj float64) {
		if !sh.Offer(name, order, obj) {
			return
		}
		pubMu.Lock()
		br.BestPublished = obj
		br.Improvements++
		pubMu.Unlock()
		if opt.OnImprove != nil {
			opt.OnImprove(name, order, obj)
		}
		if opt.OnProgress != nil {
			opt.OnProgress(ProgressEvent{
				Kind: ProgressImproved, Backend: name,
				Order: append([]int(nil), order...), Objective: obj,
			})
		}
	}
	emit(ProgressEvent{Kind: ProgressBackendStarted, Backend: name, Objective: sh.Objective()})
	start := time.Now()
	out := b.Solve(bctx, backend.Request{
		Compiled:    c,
		Constraints: cs,
		Budget:      budget,
		StepLimit:   opt.StepLimit,
		Seed:        opt.Seed,
		Initial:     initial,
		Params:      opt.Params,
		Publish:     publish,
		Incumbent:   sh.BetterThan,
		Bound:       sh.Objective,
	})
	br.Wall = time.Since(start)
	br.Objective = out.Objective
	br.Proved = out.Proved && info.Kind == backend.KindExact
	br.Iterations = out.Iterations
	br.Counters = out.Counters
	br.Err = out.Err
	if out.Order != nil {
		publish(out.Order, out.Objective)
	}
	emit(ProgressEvent{Kind: ProgressBackendDone, Backend: name,
		Objective: br.Objective, Err: br.Err,
		Iterations: br.Iterations, Wall: br.Wall})
	if br.Proved {
		border, bobj, _ := sh.Best()
		emit(ProgressEvent{Kind: ProgressProved, Backend: name,
			Order: border, Objective: bobj})
	}

	order, obj, winner := sh.Best()
	return Result{
		Order:     order,
		Objective: obj,
		Winner:    winner,
		Proved:    br.Proved,
		Backends:  []BackendResult{br},
	}, nil
}
