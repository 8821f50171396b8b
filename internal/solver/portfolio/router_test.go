package portfolio

import (
	"context"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// TestRouteThreshold pins the routing decision boundary: instances at or
// below maxN route to an exact prover, instances above fall through to
// the race, and a negative maxN disables routing entirely.
func TestRouteThreshold(t *testing.T) {
	r := NewRouter(12)
	for _, tc := range []struct {
		n    int
		want bool
	}{
		{4, true}, {11, true}, {12, true}, {13, false}, {20, false},
	} {
		in := datasets.ReducedTPCH(tc.n, datasets.Low)
		c := model.MustCompile(in)
		name, ok := r.Route(c, sched.PrecedenceSet(in))
		if ok != tc.want {
			t.Errorf("n=%d: Route ok=%v, want %v", tc.n, ok, tc.want)
		}
		if ok && name == "" {
			t.Errorf("n=%d: routed to empty backend name", tc.n)
		}
	}

	off := NewRouter(-1)
	c := model.MustCompile(datasets.ReducedTPCH(4, datasets.Low))
	if _, ok := off.Route(c, nil); ok {
		t.Error("disabled router still routes")
	}
	if NewRouter(0).MaxN() != DefaultFastPathMaxN {
		t.Errorf("NewRouter(0).MaxN() = %d, want %d", NewRouter(0).MaxN(), DefaultFastPathMaxN)
	}
}

// TestRouteConformance is the fast-path correctness contract: for every
// instance size from trivial through both sides of the default routing
// threshold, the routed single-backend solve and the full portfolio race
// must return bit-identical objectives, and the routed solve must carry
// a proof. This is what licenses the service to skip the race.
func TestRouteConformance(t *testing.T) {
	r := NewRouter(12)
	for _, n := range []int{4, 6, 8, 10, 11, 12} {
		in := datasets.ReducedTPCH(n, datasets.Low)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)

		name, ok := r.Route(c, cs)
		if !ok {
			t.Fatalf("n=%d: not routed", n)
		}
		routed, err := SolveSingle(context.Background(), c, cs, name, Options{
			Budget: 30 * time.Second, Seed: 1,
		})
		if err != nil {
			t.Fatalf("n=%d: SolveSingle(%s): %v", n, name, err)
		}
		if !routed.Proved {
			t.Errorf("n=%d: routed solve via %s did not prove optimality", n, name)
		}
		solvertest.RequireFeasible(t, c.N, cs, routed.Order)

		raced, err := Solve(context.Background(), c, cs, Options{
			Budget: 30 * time.Second, Seed: 1,
		})
		if err != nil {
			t.Fatalf("n=%d: Solve: %v", n, err)
		}
		if !raced.Proved {
			t.Errorf("n=%d: full race did not prove optimality", n)
		}
		if routed.Objective != raced.Objective {
			t.Errorf("n=%d: routed objective %v != raced objective %v (backend %s)",
				n, routed.Objective, raced.Objective, name)
		}
	}
}

// TestRouteConformanceCorpus runs the routed fast path over the shared
// conformance corpus (known optima) — every routed result must hit the
// recorded optimum exactly.
func TestRouteConformanceCorpus(t *testing.T) {
	r := NewRouter(0)
	for _, cse := range solvertest.Cases(t) {
		if cse.C.N > r.MaxN() {
			continue
		}
		name, ok := r.Route(cse.C, cse.CS)
		if !ok {
			t.Fatalf("%s: corpus case (n=%d) not routed", cse.Name, cse.C.N)
		}
		res, err := SolveSingle(context.Background(), cse.C, cse.CS, name, Options{
			Budget: 30 * time.Second, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", cse.Name, err)
		}
		if !res.Proved {
			t.Errorf("%s: routed %s solve unproved", cse.Name, name)
		}
		solvertest.RequireOptimal(t, cse, res.Order)
		if len(res.Backends) != 1 || res.Backends[0].Name != name {
			t.Errorf("%s: routed result telemetry %+v, want exactly backend %s",
				cse.Name, res.Backends, name)
		}
	}
}

// steerN is the only instance size the steering backends below apply
// to, so they join the prover set of TestRouterTelemetrySteers and of no
// other test in this package.
const steerN = 3

// steerBackend is an exact prover registered from this file so the
// router has several provers to choose between: since A* became the
// only default prover for n ≤ astar.MaxN, the built-in roster offers
// one. It proves by delegating to A*.
type steerBackend struct {
	name string
	rank int
}

func init() {
	backend.Register(steerBackend{"zsteer-a", 41})
	backend.Register(steerBackend{"zsteer-b", 42})
}

func (s steerBackend) Info() backend.Info {
	return backend.Info{
		Name: s.name, Kind: backend.KindExact, Rank: s.rank, Proves: true,
		Summary:    "test-only exact prover (delegates to astar)",
		Applicable: func(c *model.Compiled) bool { return c.N == steerN },
	}
}

func (steerBackend) Solve(ctx context.Context, req backend.Request) backend.Outcome {
	b, _ := backend.Lookup("astar")
	return b.Solve(ctx, req)
}

// TestRouterTelemetrySteers: the router explores every applicable exact
// prover routeMinAttempts times per class, then exploits the best mean
// proof wall time; a class where no prover ever proves loses its fast
// path entirely.
func TestRouterTelemetrySteers(t *testing.T) {
	in := datasets.ReducedTPCH(steerN, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	f := FeaturesOf(c, cs)
	if got := backend.ExactProvers(c); len(got) != 3 {
		t.Fatalf("ExactProvers(n=%d) = %v, want astar and the two steering backends", steerN, got)
	}

	// Exploration: a cold router starts at the rank-order pick, then
	// spreads attempts across the least-sampled applicable provers.
	r := NewRouter(12)
	first, ok := r.Route(c, cs)
	if !ok {
		t.Fatal("not routed")
	}
	if first != "astar" {
		t.Fatalf("cold route = %q, want the rank-order pick astar", first)
	}
	r.Observe(f, first, true, 80*time.Millisecond)
	second, _ := r.Route(c, cs)
	if second == first {
		t.Fatalf("router did not explore past %q after it was sampled", first)
	}

	// Exploitation: keep following Route's choice, reporting zsteer-b as
	// by far the cheapest prover. Exploration visits every prover at
	// least routeMinAttempts times, after which Route must settle on
	// zsteer-b despite its rank.
	sawFast := false
	for i := 0; i < 20; i++ {
		name, ok := r.Route(c, cs)
		if !ok {
			t.Fatal("routing vanished mid-exploration")
		}
		wall := 80 * time.Millisecond
		if name == "zsteer-b" {
			wall = time.Millisecond
			sawFast = true
		}
		r.Observe(f, name, true, wall)
	}
	if !sawFast {
		t.Fatal("exploration never sampled zsteer-b")
	}
	if got, _ := r.Route(c, cs); got != "zsteer-b" {
		t.Errorf("Route after full telemetry = %q, want zsteer-b", got)
	}

	// Unproved observations count as attempts but never as proofs, and
	// empty winners are ignored outright.
	r2 := NewRouter(12)
	r2.Observe(f, "zsteer-b", false, time.Nanosecond)
	r2.Observe(f, "", true, time.Nanosecond)
	if got, _ := r2.Route(c, cs); got != first {
		t.Errorf("unproved observation changed cold routing: %q, want %q", got, first)
	}
	for _, row := range r2.Snapshot() {
		if row.Proofs != 0 || row.MeanWallMS != 0 {
			t.Errorf("unproved observation produced a proof row: %+v", row)
		}
	}

	// A class that never proves within budget stops being fast-pathed
	// once every prover has been sampled.
	r3 := NewRouter(12)
	for {
		name, ok := r3.Route(c, cs)
		if !ok {
			break
		}
		r3.Observe(f, name, false, 0)
		total := 0
		for _, row := range r3.Snapshot() {
			total += int(row.Attempts)
		}
		if total > 100 {
			t.Fatal("router never gave up on a proofless class")
		}
	}
}

// TestColdRouterRoutesToAStar: with A* the only default exact prover
// below astar.MaxN, a fresh router sends the fast-path sizes straight
// to it — no exploration of a dominated prover on the first requests —
// and the routed solve proves.
func TestColdRouterRoutesToAStar(t *testing.T) {
	for _, n := range []int{10, 12} {
		for _, d := range []datasets.Density{datasets.Low, datasets.Mid, datasets.Full} {
			in := datasets.ReducedTPCH(n, d)
			c := model.MustCompile(in)
			cs := sched.PrecedenceSet(in)
			name, ok := NewRouter(0).Route(c, cs)
			if !ok || name != "astar" {
				t.Fatalf("n=%d %v: cold route = %q (ok=%v), want astar", n, d, name, ok)
			}
			res, err := SolveSingle(context.Background(), c, cs, name, Options{
				Budget: 30 * time.Second, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Proved {
				t.Errorf("n=%d %v: routed astar solve did not prove", n, d)
			}
			solvertest.RequireFeasible(t, c.N, cs, res.Order)
		}
	}
}

// TestFeaturesOf pins the feature derivation, including the nil
// constraint set and density edge cases.
func TestFeaturesOf(t *testing.T) {
	in := datasets.ReducedTPCH(8, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	f := FeaturesOf(c, cs)
	if f.N != 8 || f.Plans == 0 {
		t.Errorf("FeaturesOf = %+v", f)
	}
	if f.PrecedenceEdges != cs.Len() {
		t.Errorf("PrecedenceEdges = %d, want %d", f.PrecedenceEdges, cs.Len())
	}
	if f.PrecedenceDensity < 0 || f.PrecedenceDensity > 1 {
		t.Errorf("density %v out of [0,1]", f.PrecedenceDensity)
	}
	if got := FeaturesOf(c, nil); got.PrecedenceEdges != 0 || got.PrecedenceDensity != 0 {
		t.Errorf("nil constraint set features = %+v", got)
	}

	// Class banding: tiny/small/medium/large and sparse/dense.
	for _, tc := range []struct {
		f    Features
		want string
	}{
		{Features{N: 5}, "tiny/sparse"},
		{Features{N: 9, PrecedenceDensity: 0.3}, "small/dense"},
		{Features{N: 14}, "medium/sparse"},
		{Features{N: 30, PrecedenceDensity: 0.2}, "large/dense"},
	} {
		if got := tc.f.Class(); got != tc.want {
			t.Errorf("Class(%+v) = %q, want %q", tc.f, got, tc.want)
		}
	}
}

// TestSolveSingleUnknownBackend: a bad name is an error, not a panic.
func TestSolveSingleUnknownBackend(t *testing.T) {
	c := model.MustCompile(datasets.ReducedTPCH(4, datasets.Low))
	if _, err := SolveSingle(context.Background(), c, nil, "nope", Options{}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestSolveSingleSeedsStore: even a backend that cannot improve returns
// the greedy seed, never an empty result, and rejects an infeasible
// caller-supplied Initial.
func TestSolveSingleSeedsStore(t *testing.T) {
	in := datasets.ReducedTPCH(6, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	res, err := SolveSingle(context.Background(), c, cs, "greedy", Options{
		Budget: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	solvertest.RequireFeasible(t, c.N, cs, res.Order)
	if res.Proved {
		t.Error("greedy is not an exact backend but result claims a proof")
	}

	bad := constraint.NewSet(c.N)
	bad.MustAdd(1, 0)
	if _, err := SolveSingle(context.Background(), c, bad, "greedy", Options{
		Initial: []int{0, 1, 2, 3, 4, 5},
	}); err == nil {
		t.Fatal("infeasible Initial accepted")
	}
}

// TestSolveSingleProgressEvents: the routed solve emits the same event
// vocabulary the race does — started, improvements, done, and a proof
// for exact backends — so SSE consumers cannot tell the paths apart.
func TestSolveSingleProgressEvents(t *testing.T) {
	in := datasets.ReducedTPCH(6, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	var kinds []ProgressKind
	res, err := SolveSingle(context.Background(), c, cs, "bruteforce", Options{
		Budget: 10 * time.Second,
		OnProgress: func(ev ProgressEvent) {
			kinds = append(kinds, ev.Kind)
			if ev.Backend != "bruteforce" {
				t.Errorf("event attributed to %q", ev.Backend)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("bruteforce did not prove a tiny instance")
	}
	seen := map[ProgressKind]bool{}
	for _, k := range kinds {
		seen[k] = true
	}
	for _, want := range []ProgressKind{ProgressBackendStarted, ProgressBackendDone, ProgressProved} {
		if !seen[want] {
			t.Errorf("progress stream missing kind %v (got %v)", want, kinds)
		}
	}
}
