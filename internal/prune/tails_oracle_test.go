package prune

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// The reference below evaluates tails on a Walker: for every tail set
// it resets the walker, replays the whole complement prefix, then
// pushes and pops each permutation and takes its area as the objective
// difference. The oracle tests hold the closed-form kernel to it on
// every corpus the solvers are tested on.

type oracleInstance struct {
	name string
	c    *model.Compiled
}

// oracleCorpus is the solvertest corpus, the tight corpus, TPC-H
// reductions n=10..24 at every density, and full TPC-H and TPC-DS.
func oracleCorpus(tb testing.TB) []oracleInstance {
	var out []oracleInstance
	add := func(name string, in *model.Instance) {
		out = append(out, oracleInstance{name, model.MustCompile(in)})
	}
	for _, in := range solvertest.CorpusInstances() {
		add(in.Name, in)
	}
	for _, in := range solvertest.TightCorpusInstances() {
		add(in.Name, in)
	}
	for n := 10; n <= 24; n++ {
		for _, d := range []datasets.Density{datasets.Low, datasets.Mid, datasets.Full} {
			add(fmt.Sprintf("tpch-r%d-%v", n, d), datasets.ReducedTPCH(n, d))
		}
	}
	add("tpch", datasets.TPCH())
	add("tpcds", datasets.TPCDS())
	return out
}

// TestTailKernelAnalyzeMatchesReplay: Analyze with the kernel returns
// the same constraint edges, in the same order, and the same Report as
// the fixed point run over the Walker replay, at the default tail
// length and at length 4 on the small corpora.
func TestTailKernelAnalyzeMatchesReplay(t *testing.T) {
	for _, inst := range oracleCorpus(t) {
		opts := []Options{{}}
		if inst.c.N <= 12 {
			opts = append(opts, Options{TailLength: 4})
		}
		for _, opt := range opts {
			gotCS, gotRep := Analyze(inst.c, opt)
			wantCS, wantRep := analyze(inst.c, opt, (*analyzer).replayTails)
			if !reflect.DeepEqual(gotCS.Edges(), wantCS.Edges()) {
				t.Errorf("%s (L=%d): edges differ:\n got %v\nwant %v", inst.name, opt.TailLength, gotCS.Edges(), wantCS.Edges())
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Errorf("%s (L=%d): report differs:\n got %+v\nwant %+v", inst.name, opt.TailLength, gotRep, wantRep)
			}
		}
	}
}

// TestTailKernelBoundMatchesReplay: every NewTailBound entry is within
// 1e-9 relative of the replayed table (plus the replay's own rounding:
// its areas are differences of objectives many orders of magnitude
// larger), never above the replay's undeflated minimum, and the two
// tables cover the same sets — under the analyzed constraints CP
// receives and under the bare precedences.
func TestTailKernelBoundMatchesReplay(t *testing.T) {
	for _, inst := range oracleCorpus(t) {
		analyzed, _ := Analyze(inst.c, Options{})
		for _, cs := range []*constraint.Set{analyzed, sched.PrecedenceSet(inst.c.Inst)} {
			opt := Options{TailLength: 3}
			if inst.c.N <= 12 {
				opt.TailLength = 4
			}
			tb := NewTailBound(inst.c, cs, opt)
			want := replayTailBound(inst.c, cs, opt)
			for m := 1; m <= tb.MaxLen(); m++ {
				got := tb.tables[m-1]
				if (got == nil) != (want[m-1] == nil) || len(got) != len(want[m-1]) {
					t.Fatalf("%s: length %d covers %d sets, replay %d", inst.name, m, len(got), len(want[m-1]))
				}
				for key, r := range want[m-1] {
					v, ok := got[key]
					if !ok {
						t.Fatalf("%s: length %d: set %x missing", inst.name, m, key)
					}
					deflated := r.area - 1e-9*(math.Abs(r.area)+1)
					if v > r.area {
						t.Errorf("%s: set %x: entry %v above the replay minimum %v", inst.name, key, v, r.area)
					}
					if math.Abs(v-deflated) > 1e-9*(math.Abs(deflated)+1)+r.rounding {
						t.Errorf("%s: set %x: entry %v vs replay %v", inst.name, key, v, deflated)
					}
				}
			}
		}
	}
}

// TestTailPatternsMatchReplay: the Figure 9 report lists the same
// groups and patterns as the replay, each sorted by objective, with
// objectives within 1e-9 relative (plus the replay's rounding).
// Patterns whose areas tie mathematically may swap places, since the
// two computations round them differently; for the same reason the
// champion marks (1e-9 absolute) must agree only where the replay's
// objective clears that threshold by more than its own rounding.
func TestTailPatternsMatchReplay(t *testing.T) {
	for _, inst := range oracleCorpus(t) {
		if inst.c.N > 24 {
			continue
		}
		cs, _ := Analyze(inst.c, Options{})
		got := TailPatterns(inst.c, cs, 3, 0)
		want, rounding := replayTailPatterns(inst.c, cs, 3, 0)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, replay %d", inst.name, len(got), len(want))
		}
		for g := range want {
			gg, wg := got[g], want[g]
			if !reflect.DeepEqual(gg.Set, wg.Set) || len(gg.Patterns) != len(wg.Patterns) {
				t.Fatalf("%s: group %d: %v/%d patterns vs replay %v/%d", inst.name, g, gg.Set, len(gg.Patterns), wg.Set, len(wg.Patterns))
			}
			byPerm := map[string]TailPattern{}
			for _, wp := range wg.Patterns {
				byPerm[fmt.Sprint(wp.Perm)] = wp
			}
			for p, gp := range gg.Patterns {
				wp, ok := byPerm[fmt.Sprint(gp.Perm)]
				clear := math.Abs(wp.Objective-(wg.Patterns[0].Objective+1e-9)) > 2*rounding[g]
				if !ok || (clear && gp.Champion != wp.Champion) ||
					math.Abs(gp.Objective-wp.Objective) > 1e-9*(math.Abs(wp.Objective)+1)+rounding[g] {
					t.Errorf("%s: group %v: %+v vs replay %+v", inst.name, wg.Set, gp, wp)
				}
				if p > 0 && gp.Objective < gg.Patterns[p-1].Objective {
					t.Errorf("%s: group %v not sorted by objective", inst.name, wg.Set)
				}
			}
		}
	}
}

// TestTailKernelRuntimeBitIdentical: for every missing subset X of
// random tail sets, the kernel's R(U∖X) and build costs equal the
// Walker's values at the prefix U∖X bit for bit — the memoized and the
// freshly computed paths alike.
func TestTailKernelRuntimeBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 9
		cfg.Queries = 6
		cfg.BuildInteractionProb = 0.2
		rng := rand.New(rand.NewSource(seed))
		in := randgen.New(rng, cfg)
		for q := range in.Queries {
			in.Queries[q].Weight = []float64{0, 1, 0.3, 2.5}[q%4]
		}
		c := model.MustCompile(in)
		cs := constraint.NewSet(c.N)
		k := newTailKernel(c, cs)
		cands := seqInts(c.N)
		w := model.NewWalker(c)
		for m := 1; m <= 4; m++ {
			k.forEachSet(cands, m, func(set []int) bool {
				for a, x := range set {
					k.pos[x] = int8(a + 1)
				}
				for pass := 0; pass < 2; pass++ { // second pass reads the memo
					for mask := uint(1); mask < 1<<m; mask++ {
						w.Reset()
						for i := 0; i < c.N; i++ {
							if !k.missing(i, mask) {
								w.Push(i)
							}
						}
						if got := k.memoRuntime(mask); got != w.Runtime() {
							t.Fatalf("seed %d set %v mask %b: R %v, walker %v", seed, set, mask, got, w.Runtime())
						}
						for j, x := range set {
							if mask&(1<<j) != 0 && k.cost(x, mask) != w.BuildCost(x) {
								t.Fatalf("seed %d set %v mask %b: cost(%d) %v, walker %v", seed, set, mask, x, k.cost(x, mask), w.BuildCost(x))
							}
						}
					}
				}
				for _, x := range set {
					k.pos[x] = 0
				}
				return true
			})
		}
	}
}

// TestTailAnalysisAllocations: the tail pass allocates per enumeration,
// not per set or permutation.
func TestTailAnalysisAllocations(t *testing.T) {
	c := model.MustCompile(datasets.TPCH())
	cs := sched.PrecedenceSet(c.Inst)
	a := newAnalyzer(c, cs)
	var rep Report
	a.tails(&rep, Options{}) // builds the kernel
	if allocs := testing.AllocsPerRun(5, func() { a.tails(&rep, Options{}) }); allocs > 40 {
		t.Fatalf("tails allocates %v times per run on TPC-H", allocs)
	}
}

func (a *analyzer) replayTails(rep *Report, opt Options) {
	c := a.c
	n := c.N
	length := min(opt.tailLength(), n)
	maxPatterns := opt.maxTailPatterns()
	var cands []int
	for i := 0; i < n; i++ {
		if a.cs.MaxPos(i) >= n-length {
			cands = append(cands, i)
		}
	}
	if len(cands) < length {
		return
	}
	if patterns := binomial(len(cands), length) * factorial(length); patterns <= 0 || patterns > maxPatterns {
		return
	}
	var champs [][]int
	w := model.NewWalker(c)
	inSet := make([]bool, n)
	forFeasibleTailSets(a.cs, w, cands, length, inSet, func(set []int, objBase float64) {
		bestObj := math.Inf(1)
		var bestPerms [][]int
		permuteFeasible(set, a.cs, func(perm []int) {
			for _, m := range perm {
				w.Push(m)
			}
			tailObj := w.Objective() - objBase
			for range perm {
				w.Pop()
			}
			const tol = 1e-9
			switch {
			case tailObj < bestObj-tol:
				bestObj = tailObj
				bestPerms = [][]int{append([]int(nil), perm...)}
			case tailObj <= bestObj+tol:
				bestPerms = append(bestPerms, append([]int(nil), perm...))
			}
		})
		champs = append(champs, bestPerms...)
	})
	if len(champs) == 0 {
		return
	}
	inSuffix := inSet
	for pos := length - 1; pos >= 0; pos-- {
		x := champs[0][pos]
		for _, ch := range champs[1:] {
			if ch[pos] != x {
				return
			}
		}
		inSuffix[x] = true
		for y := 0; y < n; y++ {
			if !inSuffix[y] {
				a.add(y, x)
			}
		}
		if !containsInt(rep.TailFixed, x) {
			rep.TailFixed = append([]int{x}, rep.TailFixed...)
		}
	}
}

// replayMin is a replayed minimal tail area and a bound on the rounding
// error of computing it as a difference of two prefix objectives.
type replayMin struct{ area, rounding float64 }

// replayRounding bounds the error of an m-step area taken as the
// difference of running objectives around objBase.
func replayRounding(objBase, area float64, m int) float64 {
	x := objBase + math.Abs(area)
	return float64(m+1) * (math.Nextafter(x, math.Inf(1)) - x)
}

// replayTailBound returns, per length, the undeflated minimal tail area
// of every feasible set by packed key (nil where the length is skipped).
func replayTailBound(c *model.Compiled, cs *constraint.Set, opt Options) []map[uint64]replayMin {
	n := c.N
	length := min(opt.tailLength(), maxTailBoundLen, n)
	tables := make([]map[uint64]replayMin, length)
	w := model.NewWalker(c)
	inSet := make([]bool, n)
	for m := 1; m <= length; m++ {
		var cands []int
		for i := 0; i < n; i++ {
			if cs.MaxPos(i) >= n-m {
				cands = append(cands, i)
			}
		}
		if len(cands) < m {
			continue
		}
		if patterns := binomial(len(cands), m) * factorial(m); patterns <= 0 || patterns > opt.maxTailPatterns() {
			continue
		}
		table := make(map[uint64]replayMin)
		forFeasibleTailSets(cs, w, cands, m, inSet, func(set []int, objBase float64) {
			best := math.Inf(1)
			permuteFeasible(set, cs, func(perm []int) {
				for _, i := range perm {
					w.Push(i)
				}
				best = math.Min(best, w.Objective()-objBase)
				for range perm {
					w.Pop()
				}
			})
			if !math.IsInf(best, 1) {
				table[tailKey(set)] = replayMin{best, replayRounding(objBase, best, m)}
			}
		})
		tables[m-1] = table
	}
	return tables
}

// replayTailPatterns also returns each group's rounding bound.
func replayTailPatterns(c *model.Compiled, cs *constraint.Set, length, maxPatterns int) ([]TailGroup, []float64) {
	n := c.N
	if maxPatterns == 0 {
		maxPatterns = 50000
	}
	var cands []int
	for i := 0; i < n; i++ {
		if cs.MaxPos(i) >= n-length {
			cands = append(cands, i)
		}
	}
	if len(cands) < length {
		return nil, nil
	}
	if patterns := binomial(len(cands), length) * factorial(length); patterns <= 0 || patterns > maxPatterns {
		return nil, nil
	}
	var groups []TailGroup
	var rounding []float64
	w := model.NewWalker(c)
	inSet := make([]bool, n)
	forFeasibleTailSets(cs, w, cands, length, inSet, func(set []int, objBase float64) {
		g := TailGroup{Set: append([]int(nil), set...)}
		permuteFeasible(set, cs, func(perm []int) {
			for _, m := range perm {
				w.Push(m)
			}
			g.Patterns = append(g.Patterns, TailPattern{
				Perm:      append([]int(nil), perm...),
				Objective: w.Objective() - objBase,
			})
			for range perm {
				w.Pop()
			}
		})
		if len(g.Patterns) == 0 {
			return
		}
		sort.SliceStable(g.Patterns, func(a, b int) bool {
			return g.Patterns[a].Objective < g.Patterns[b].Objective
		})
		best := g.Patterns[0].Objective
		for i := range g.Patterns {
			g.Patterns[i].Champion = g.Patterns[i].Objective <= best+1e-9
		}
		groups = append(groups, g)
		rounding = append(rounding, replayRounding(objBase, g.Patterns[len(g.Patterns)-1].Objective, length))
	})
	return groups, rounding
}

// forFeasibleTailSets enumerates every length-k subset of cands that can
// form a schedule tail under cs, positions w at the complement prefix
// and calls fn with the set and the prefix objective.
func forFeasibleTailSets(cs *constraint.Set, w *model.Walker, cands []int, k int,
	inSet []bool, fn func(set []int, objBase float64)) {

	n := len(inSet)
	forSets(cands, k, func(set []int) {
		for _, m := range set {
			inSet[m] = true
		}
		defer func() {
			for _, m := range set {
				inSet[m] = false
			}
		}()
		for _, m := range set {
			ok := true
			cs.Successors(m).ForEach(func(s int) bool {
				if !inSet[s] {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return
			}
		}
		w.Reset()
		for i := 0; i < n; i++ {
			if !inSet[i] {
				w.Push(i)
			}
		}
		fn(set, w.Objective())
	})
}

// permuteFeasible calls fn with every permutation of set whose relative
// order is compatible with cs (fn must not retain the slice).
func permuteFeasible(set []int, cs *constraint.Set, fn func(perm []int)) {
	permute(set, func(perm []int) {
		for x := 0; x < len(perm); x++ {
			for y := x + 1; y < len(perm); y++ {
				if cs.Before(perm[y], perm[x]) {
					return
				}
			}
		}
		fn(perm)
	})
}

// forSets enumerates all k-subsets of cands (ascending order).
func forSets(cands []int, k int, f func(set []int)) {
	set := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			f(set)
			return
		}
		for i := start; i <= len(cands)-(k-depth); i++ {
			set[depth] = cands[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}
