// Allocation-regression test: the branch-and-bound descent loop is
// allocation-free in steady state, and this pin makes that a CI
// invariant rather than a benchmark anecdote. Budgets cover the fixed
// per-solve setup (searcher arenas, walker) and are
// far below what even one allocation per node would produce on the
// chosen instances, so any per-node slice or closure creeping back into
// dfs/candidates fails loudly here — not quietly in a
// BENCH_eval.json diff months later.
package cp

import (
	"testing"

	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/sched"
)

// TestAllocSerialDescent pins the per-solve allocation budget of the
// serial engine on an instance whose proof expands thousands of nodes:
// the cost must stay a fixed setup constant, independent of tree size.
func TestAllocSerialDescent(t *testing.T) {
	in, c := inst(5, 12)
	cs := sched.PrecedenceSet(in)
	tb := prune.NewTailBound(c, cs, prune.Options{})
	var res Result
	var published int
	allocs := testing.AllocsPerRun(5, func() {
		res = Solve(c, cs, Options{
			TailBound:  tb,
			OnSolution: func([]int, float64) { published++ },
		})
	})
	if !res.Proved {
		t.Fatal("serial proof did not exhaust")
	}
	if res.Nodes < 1000 {
		t.Fatalf("instance too easy (%d nodes) to witness allocation-freedom", res.Nodes)
	}
	if published == 0 {
		t.Fatal("OnSolution path not exercised")
	}
	t.Logf("serial: %.1f allocs/solve over %d nodes, %d improvements", allocs, res.Nodes, published)
	const serialBudget = 64 // fixed setup; ~0.05/node would already trip it
	if allocs > serialBudget {
		t.Fatalf("serial solve allocates %.1f/op (budget %d): per-node allocations are back", allocs, serialBudget)
	}
}

// TestAllocFixedNeighborhood pins the per-call budget of the LNS usage:
// a frozen-position neighborhood seeded with an incumbent. LNS issues
// thousands of these per solve, so the cost must stay the same fixed
// setup constant as a full proof.
func TestAllocFixedNeighborhood(t *testing.T) {
	in, c := inst(5, 12)
	cs := sched.PrecedenceSet(in)
	full := Solve(c, cs, Options{})
	if !full.Proved {
		t.Fatal("reference proof did not exhaust")
	}
	fixed := append([]int(nil), full.Order...)
	for _, p := range []int{1, 3, 4, 6, 7, 9, 10} {
		fixed[p] = -1
	}
	var res Result
	allocs := testing.AllocsPerRun(20, func() {
		res = Solve(c, cs, Options{Fixed: fixed, Incumbent: full.Order})
	})
	if !res.Proved {
		t.Fatal("neighborhood not exhausted")
	}
	t.Logf("neighborhood: %.1f allocs/solve over %d nodes", allocs, res.Nodes)
	const neighborhoodBudget = 64
	if allocs > neighborhoodBudget {
		t.Fatalf("neighborhood solve allocates %.1f/op (budget %d): per-node allocations are back", allocs, neighborhoodBudget)
	}
}
