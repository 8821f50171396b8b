// Tail-bound contract tests: the registry builds every cp request with
// the §5.5 tail bound on (cp.tail_bound defaults to true), so each
// search contract the plain engine honours — exactness, abort limits,
// cancellation, incumbents, frozen positions, callbacks — must also
// hold with the bound folded into the descent.
package cp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

// tailOpts returns Options carrying a default-length tail bound for c
// under cs (nil = no constraints), as the registered backend builds it.
func tailOpts(c *model.Compiled, cs *constraint.Set) Options {
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	return Options{TailBound: prune.NewTailBound(c, cs, prune.Options{})}
}

func TestTailMatchesBruteforce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 7
	cfg.PrecedenceProb = 0.25
	for rep := 0; rep < 10; rep++ {
		in := randgen.New(rng, cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		bf, err := bruteforce.Solve(c, cs, true)
		if err != nil {
			t.Fatal(err)
		}
		res := Solve(c, cs, tailOpts(c, cs))
		if !res.Proved {
			t.Fatalf("rep %d: search not exhausted on a 7-index instance", rep)
		}
		if math.Abs(res.Objective-bf.Objective) > 1e-9*(1+bf.Objective) {
			t.Fatalf("rep %d: cp %v != bf %v", rep, res.Objective, bf.Objective)
		}
		if err := in.ValidOrder(res.Order); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
}

func TestTailObjectiveBitIdenticalToOff(t *testing.T) {
	// The bound only removes dominated subtrees: the proved optimum keeps
	// its exact bits and the tree can only shrink.
	var tailPrunes int64
	for seed := int64(1); seed <= 6; seed++ {
		in, c := inst(seed, 9)
		cs := sched.PrecedenceSet(in)
		off := Solve(c, cs, Options{})
		on := Solve(c, cs, tailOpts(c, cs))
		if !off.Proved || !on.Proved {
			t.Fatalf("seed %d: searches not exhausted", seed)
		}
		if math.Float64bits(on.Objective) != math.Float64bits(off.Objective) {
			t.Fatalf("seed %d: tail-bound objective %v (%x) != plain %v (%x)", seed,
				on.Objective, math.Float64bits(on.Objective), off.Objective, math.Float64bits(off.Objective))
		}
		if on.Nodes > off.Nodes {
			t.Fatalf("seed %d: tail bound grew the tree: %d > %d nodes", seed, on.Nodes, off.Nodes)
		}
		tailPrunes += on.Stats.PrunedTail
	}
	if tailPrunes == 0 {
		t.Fatal("tail bound never pruned: the comparison is vacuous")
	}
}

func TestTailNodeLimitAborts(t *testing.T) {
	_, c := inst(5, 10)
	opt := tailOpts(c, nil)
	opt.NodeLimit = 50
	res := Solve(c, nil, opt)
	if res.Proved {
		t.Fatal("node-limited search claimed a proof")
	}
	if res.Nodes > 50 {
		t.Fatalf("expanded %d nodes past a limit of 50", res.Nodes)
	}
}

func TestTailFailLimitAborts(t *testing.T) {
	_, c := inst(5, 10)
	opt := tailOpts(c, nil)
	opt.FailLimit = 10
	res := Solve(c, nil, opt)
	if res.Proved {
		t.Fatal("10-fail search claimed an optimality proof on 10 indexes")
	}
	if res.Fails < 10 {
		t.Fatalf("aborted with only %d fails", res.Fails)
	}
}

func TestTailContextCancelsPromptly(t *testing.T) {
	_, c := inst(5, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := tailOpts(c, nil)
	opt.Context = ctx
	res := Solve(c, nil, opt)
	if res.Proved {
		t.Fatal("search under a cancelled context claimed a proof on 20 indexes")
	}
	if res.Nodes > pollStride+1 {
		t.Fatalf("cancelled search expanded %d nodes, want at most one poll stride", res.Nodes)
	}
}

func TestTailDeadlineAborts(t *testing.T) {
	// A deadline already in the past must stop the search at its first
	// clock poll, long before a 20-index proof could finish.
	_, c := inst(5, 20)
	opt := tailOpts(c, nil)
	opt.Deadline = time.Now().Add(-time.Millisecond)
	res := Solve(c, nil, opt)
	if res.Proved {
		t.Fatal("search past its deadline claimed a proof on 20 indexes")
	}
	if res.Nodes > pollStride+1 {
		t.Fatalf("expired search expanded %d nodes, want at most one poll stride", res.Nodes)
	}
}

func TestTailIncumbentOnlyImprovedUpon(t *testing.T) {
	_, c := inst(6, 7)
	opt := Solve(c, nil, Options{})
	// Seeding with the optimum: no improving solution can exist.
	seeded := tailOpts(c, nil)
	seeded.Incumbent = opt.Order
	res := Solve(c, nil, seeded)
	if res.Solutions != 0 {
		t.Errorf("found %d 'improving' solutions over the optimum", res.Solutions)
	}
	if math.Float64bits(res.Objective) != math.Float64bits(opt.Objective) {
		t.Errorf("objective drifted: %v vs %v", res.Objective, opt.Objective)
	}
	if !res.Proved {
		t.Error("seeded search should still prove optimality")
	}
}

func TestTailFixedPositionsRespected(t *testing.T) {
	_, c := inst(8, 7)
	full := Solve(c, nil, Options{})
	// Freeze everything except positions 2 and 4 (an LNS relaxation).
	fixed := append([]int(nil), full.Order...)
	free := map[int]bool{2: true, 4: true}
	for p := range fixed {
		if free[p] {
			fixed[p] = -1
		}
	}
	opt := tailOpts(c, nil)
	opt.Fixed = fixed
	opt.Incumbent = full.Order
	res := Solve(c, nil, opt)
	if !res.Proved {
		t.Fatal("tiny LNS neighborhood not exhausted")
	}
	for p, want := range full.Order {
		if !free[p] && res.Order[p] != want {
			t.Errorf("frozen position %d changed: %d -> %d", p, want, res.Order[p])
		}
	}
	if res.Objective > full.Objective+1e-9 {
		t.Errorf("relaxation worsened the incumbent: %v > %v", res.Objective, full.Objective)
	}
}

func TestTailContradictoryFixedYieldsIncumbent(t *testing.T) {
	in, c := inst(9, 5)
	cs := constraint.NewSet(c.N)
	cs.MustAdd(0, 1)
	// Pin 1 to position 0 and 0 to position 1, contradicting 0<1.
	opt := tailOpts(c, cs)
	opt.Fixed = []int{1, 0, -1, -1, -1}
	opt.Incumbent = sched.RandomFeasible(rand.New(rand.NewSource(1)), cs)
	res := Solve(c, cs, opt)
	if !res.Proved {
		t.Fatal("contradictory neighborhood should exhaust instantly")
	}
	if res.Solutions != 0 {
		t.Fatal("contradiction produced solutions")
	}
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatalf("incumbent not preserved: %v", err)
	}
}

func TestTailOnSolutionMonotone(t *testing.T) {
	_, c := inst(10, 8)
	last := math.Inf(1)
	calls := 0
	opt := tailOpts(c, nil)
	opt.OnSolution = func(order []int, obj float64) {
		calls++
		if obj >= last {
			t.Errorf("non-improving callback: %v after %v", obj, last)
		}
		last = obj
		if len(order) != c.N {
			t.Errorf("callback order has %d entries", len(order))
		}
	}
	res := Solve(c, nil, opt)
	if calls == 0 {
		t.Fatal("no solutions reported")
	}
	if math.Float64bits(last) != math.Float64bits(res.Objective) {
		t.Fatalf("last callback objective %v != result %v", last, res.Objective)
	}
}

func TestTailExternalBoundProof(t *testing.T) {
	// An external bound at the optimum prunes every subtree, the tail
	// lookups included; exhausting the tree then proves the external
	// incumbent optimal without an order of this search's own.
	_, c := inst(6, 7)
	ref := Solve(c, nil, Options{})
	opt := tailOpts(c, nil)
	opt.ExternalBound = func() float64 { return ref.Objective }
	res := Solve(c, nil, opt)
	if !res.Proved {
		t.Fatal("externally bounded search did not exhaust")
	}
	if res.Order != nil {
		t.Fatalf("no order should beat the external optimum, got %v", res.Order)
	}
}

// TestFixedPrefixPartition: pinning position 0 to each index in turn
// splits the search space into disjoint subproblems whose proved optima
// must bottom out at exactly the unrestricted optimum.
func TestFixedPrefixPartition(t *testing.T) {
	_, c := inst(21, 8)
	full := Solve(c, nil, Options{})
	if !full.Proved {
		t.Fatal("full search not exhausted")
	}
	best := math.Inf(1)
	for i := 0; i < c.N; i++ {
		fixed := make([]int, c.N)
		for p := range fixed {
			fixed[p] = -1
		}
		fixed[0] = i
		res := Solve(c, nil, Options{Fixed: fixed})
		if !res.Proved {
			t.Fatalf("subproblem rooted at %d not exhausted", i)
		}
		if res.Order == nil || res.Order[0] != i {
			t.Fatalf("subproblem rooted at %d returned %v", i, res.Order)
		}
		best = math.Min(best, res.Objective)
	}
	if math.Float64bits(best) != math.Float64bits(full.Objective) {
		t.Fatalf("partition optimum %v != full optimum %v", best, full.Objective)
	}
}

// TestFixedFullAssignment: freezing every position leaves exactly one
// leaf, which the search must report as the proved solution.
func TestFixedFullAssignment(t *testing.T) {
	_, c := inst(22, 7)
	perm := rand.New(rand.NewSource(3)).Perm(c.N)
	res := Solve(c, nil, Options{Fixed: perm})
	if !res.Proved || res.Solutions != 1 {
		t.Fatalf("proved=%v solutions=%d, want a proof with one solution", res.Proved, res.Solutions)
	}
	for p, want := range perm {
		if res.Order[p] != want {
			t.Fatalf("order %v != frozen %v", res.Order, perm)
		}
	}
	if want := c.Objective(perm); math.Float64bits(res.Objective) != math.Float64bits(want) {
		t.Fatalf("objective %v != replayed %v", res.Objective, want)
	}
}

// TestCountersMirrorResult pins the telemetry the backend registry
// reports for cp: exactly the effort counters of the result, by name.
func TestCountersMirrorResult(t *testing.T) {
	in, c := inst(12, 9)
	cs := sched.PrecedenceSet(in)
	res := Solve(c, cs, tailOpts(c, cs))
	want := map[string]int64{
		"nodes":            res.Nodes,
		"fails":            res.Fails,
		"solutions":        int64(res.Solutions),
		"pruned_incumbent": res.Stats.PrunedBound,
		"pruned_tail":      res.Stats.PrunedTail,
		"infeasible":       res.Stats.Infeasible,
	}
	got := res.Counters()
	if len(got) != len(want) {
		t.Fatalf("counters %v, want exactly the keys of %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("counter %s = %d, want %d", k, got[k], v)
		}
	}
	if res.Nodes == 0 || res.Solutions == 0 {
		t.Fatalf("degenerate solve: %+v", got)
	}
}
