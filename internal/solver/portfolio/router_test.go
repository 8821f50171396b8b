package portfolio

import (
	"context"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/astar"
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

	// Thresholds past astar.MaxN are capped: no exact prover proves
	// full TPC-H (n=31) within a request budget, so it races.
	wide := NewRouter(40)
	if wide.MaxN() != astar.MaxN {
		t.Errorf("NewRouter(40).MaxN() = %d, want astar.MaxN = %d", wide.MaxN(), astar.MaxN)
	}
	full := datasets.TPCH()
	if name, ok := wide.Route(model.MustCompile(full), sched.PrecedenceSet(full)); ok {
		t.Errorf("TPC-H n=%d routed to %s past the astar.MaxN cap", full.N(), name)
	}
}

// TestRouteIgnoresOutcomes: routing is a stateless size rule, so
// reported outcomes — even a run of failed proofs — never move it off
// the registry's first applicable prover.
func TestRouteIgnoresOutcomes(t *testing.T) {
	in := datasets.ReducedTPCH(8, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	r := NewRouter(0)
	for i := 0; i < 5; i++ {
		r.Observe(FeaturesOf(c, cs), "astar", false, 0)
	}
	if name, ok := r.Route(c, cs); !ok || name != "astar" {
		t.Errorf("Route after five unproved observations = %q (ok=%v), want astar", name, ok)
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
