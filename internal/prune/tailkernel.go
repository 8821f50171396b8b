package prune

import (
	"math"
	"math/bits"
	"sort"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// tailKernel evaluates §5.5 tail patterns in closed form; tails()
// (Analyze), NewTailBound and TailPatterns all enumerate through it.
//
// A tail set T is deployed after every other index, so while its
// members deploy the built set is U∖X for the still-missing X ⊆ T, and
// everything the Walker would compute there is a pure function of X:
//
//   - R(U∖X) = Base − Σ_q best_q(X), where best_q(X) is the weighted
//     speedup of q's best plan disjoint from X (0 if none). The sum runs
//     in query order, exactly as the Walker's canonical runtime does, so
//     the value is bit-identical to a replay.
//   - The build cost of t ∈ X is CreateCost[t] minus the best helper
//     speedup whose helper is not in X (Compiled.BuildCost semantics).
//
// A permutation's area is then Σ_k R(U∖X_k)·cost(t_k, X_k) over its
// steps: no replay of the n−|T| prefix and no prefix objective to
// subtract. Per set the kernel fills one table of R·cost terms over
// the 2^|T| missing subsets; R(U∖{x}) and R(U∖{x,y}) are memoized
// across sets over the candidate list, whose size the pattern budget
// bounds.
type tailKernel struct {
	c  *model.Compiled
	cs *constraint.Set

	plans [][]int32 // query -> plans with positive speedup, best first
	full  []float64 // query -> best speedup with every index built
	affQ  [][]int32 // index -> queries whose first plans[q] contains it

	// runtime scratch: per-query bests of the current evaluation,
	// valid where stamp[q] == epoch.
	bestX []float64
	stamp []uint32
	epoch uint32

	pos  []int8  // index -> 1 + position in the loaded set, 0 if absent
	slot []int32 // index -> slot in the current candidate list (only candidates are read)
	nc   int     // candidate count of the current enumeration
	r1   []float64
	r2   []float64 // R(U∖{x}) / R(U∖{x,y}) by slot; NaN = not yet computed

	// The loaded set and its tables.
	set    []int
	m      int
	term   []float64 // mask*m + j -> R(U∖X)·cost(set[j], X), X = mask
	before []bool    // a*m + b -> cs.Before(set[a], set[b])
	perms  []uint8   // the m! position permutations in permute's order
}

// maxKernelLen caps the tail length: 13! patterns exceed any budget
// the int-valued pattern guard can express.
const maxKernelLen = 12

func newTailKernel(c *model.Compiled, cs *constraint.Set) *tailKernel {
	nq := len(c.PlansOfQuery)
	k := &tailKernel{
		c: c, cs: cs,
		plans: make([][]int32, nq),
		full:  make([]float64, nq),
		affQ:  make([][]int32, c.N),
		bestX: make([]float64, nq),
		stamp: make([]uint32, nq),
		pos:   make([]int8, c.N),
		slot:  make([]int32, c.N),
	}
	for q, ps := range c.PlansOfQuery {
		var list []int32
		for _, p := range ps {
			if c.PlanSpd[p] > 0 { // the Walker never counts a non-positive plan
				list = append(list, int32(p))
			}
		}
		sort.SliceStable(list, func(a, b int) bool { return c.PlanSpd[list[a]] > c.PlanSpd[list[b]] })
		k.plans[q] = list
		if len(list) > 0 {
			k.full[q] = c.PlanSpd[list[0]]
			for _, i := range c.PlanIdx[list[0]] {
				k.affQ[i] = append(k.affQ[i], int32(q))
			}
		}
	}
	return k
}

// tailCands returns the indexes whose latest feasible position under cs
// reaches into a length-m tail, or nil when fewer than m qualify (the
// instance is over-constrained there) or the C(cands, m)·m! patterns
// exceed maxPatterns.
func tailCands(cs *constraint.Set, m, maxPatterns int) []int {
	n := cs.N()
	if m > maxKernelLen {
		return nil
	}
	var cands []int
	for i := 0; i < n; i++ {
		if cs.MaxPos(i) >= n-m {
			cands = append(cands, i)
		}
	}
	if len(cands) < m {
		return nil
	}
	if patterns := binomial(len(cands), m) * factorial(m); patterns <= 0 || patterns > maxPatterns {
		return nil
	}
	return cands
}

// forEachSet loads every feasible length-m tail set drawn from cands
// (ascending, in lexicographic order) and calls fn with it; fn returns
// false to stop. A set is feasible when every cs-successor of a member
// is itself a member.
func (k *tailKernel) forEachSet(cands []int, m int, fn func(set []int) bool) {
	k.begin(cands, m)
	idx := make([]int, m)
	for j := range idx {
		idx[j] = j
	}
	for {
		for j, ci := range idx {
			k.set[j] = cands[ci]
		}
		if k.load() && !fn(k.set) {
			return
		}
		// Advance to the next combination of candidate positions.
		j := m - 1
		for j >= 0 && idx[j] == len(cands)-m+j {
			j--
		}
		if j < 0 {
			return
		}
		idx[j]++
		for l := j + 1; l < m; l++ {
			idx[l] = idx[l-1] + 1
		}
	}
}

// begin sizes the per-length tables and the memo for an enumeration.
func (k *tailKernel) begin(cands []int, m int) {
	k.m = m
	k.set = make([]int, m)
	k.term = make([]float64, (1<<m)*m)
	k.before = make([]bool, m*m)
	k.perms = k.perms[:0]
	permute(seqInts(m), func(perm []int) {
		for _, j := range perm {
			k.perms = append(k.perms, uint8(j))
		}
	})
	k.nc = len(cands)
	for s, i := range cands {
		k.slot[i] = int32(s)
	}
	k.r1 = nanFill(k.r1, k.nc)
	if m >= 2 {
		k.r2 = nanFill(k.r2, k.nc*k.nc)
	}
}

func nanFill(buf []float64, size int) []float64 {
	if cap(buf) < size {
		buf = make([]float64, size)
	}
	buf = buf[:size]
	nan := math.NaN()
	for i := range buf {
		buf[i] = nan
	}
	return buf
}

// load checks the current set's feasibility and fills its term table.
func (k *tailKernel) load() bool {
	set, m := k.set, k.m
	for a, x := range set {
		k.pos[x] = int8(a + 1)
	}
	defer func() {
		for _, x := range set {
			k.pos[x] = 0
		}
	}()
	for a, x := range set {
		inside := 0
		for b, y := range set {
			bf := a != b && k.cs.Before(x, y)
			k.before[a*m+b] = bf
			if bf {
				inside++
			}
		}
		if inside != k.cs.Successors(x).Count() {
			return false // a successor of x lies outside the set
		}
	}
	for mask := 1; mask < 1<<m; mask++ {
		r := k.memoRuntime(uint(mask))
		for j, t := range set {
			if mask&(1<<j) != 0 {
				k.term[mask*m+j] = r * k.cost(t, uint(mask))
			}
		}
	}
	return true
}

// forEachPerm calls fn with every cs-feasible permutation of the loaded
// set (as positions into it, deployment order, in permute's order) and
// its tail area. perm is a row of the kernel's permutation table: it
// stays valid until the next forEachSet and must not be modified.
func (k *tailKernel) forEachPerm(fn func(perm []uint8, area float64)) {
	m := k.m
	full := 1<<m - 1
next:
	for off := 0; off < len(k.perms); off += m {
		perm := k.perms[off : off+m]
		for x := 0; x < m; x++ {
			for y := x + 1; y < m; y++ {
				if k.before[int(perm[y])*m+int(perm[x])] {
					continue next
				}
			}
		}
		var area float64
		mask := full
		for _, j := range perm {
			area += k.term[mask*m+int(j)]
			mask &^= 1 << j
		}
		fn(perm, area)
	}
}

// missing reports whether index i is in the missing subset mask of the
// loaded set.
func (k *tailKernel) missing(i int, mask uint) bool {
	p := k.pos[i]
	return p != 0 && mask&(1<<(p-1)) != 0
}

// cost is t's build cost while the loaded set's mask is still missing.
func (k *tailKernel) cost(t int, mask uint) float64 {
	var best float64
	for _, h := range k.c.Helpers[t] {
		if !k.missing(h.Helper, mask) && h.Speedup > best {
			best = h.Speedup
		}
	}
	return k.c.CreateCost[t] - best
}

// memoRuntime is runtime with singletons and pairs served from the memo.
func (k *tailKernel) memoRuntime(mask uint) float64 {
	var cell *float64
	a := bits.TrailingZeros(mask)
	switch bits.OnesCount(mask) {
	case 1:
		cell = &k.r1[k.slot[k.set[a]]]
	case 2:
		b := bits.TrailingZeros(mask &^ (1 << a))
		cell = &k.r2[int(k.slot[k.set[a]])*k.nc+int(k.slot[k.set[b]])]
	default:
		return k.runtime(mask)
	}
	if math.IsNaN(*cell) {
		*cell = k.runtime(mask)
	}
	return *cell
}

// runtime is R(U∖X) for the loaded set's missing subset mask: only the
// queries whose full-best plan loses an index are rescanned, and the
// sum runs over every query in order like the Walker's.
func (k *tailKernel) runtime(mask uint) float64 {
	if k.epoch++; k.epoch == 0 { // uint32 wrap: invalidate all stamps once
		for q := range k.stamp {
			k.stamp[q] = 0
		}
		k.epoch = 1
	}
	for j, x := range k.set {
		if mask&(1<<j) == 0 {
			continue
		}
		for _, q := range k.affQ[x] {
			if k.stamp[q] == k.epoch {
				continue
			}
			k.stamp[q] = k.epoch
			k.bestX[q] = 0
		plans:
			for _, p := range k.plans[q] {
				for _, i := range k.c.PlanIdx[p] {
					if k.missing(i, mask) {
						continue plans
					}
				}
				k.bestX[q] = k.c.PlanSpd[p]
				break
			}
		}
	}
	var sum float64
	for q, b := range k.full {
		if k.stamp[q] == k.epoch {
			b = k.bestX[q]
		}
		sum += b
	}
	return k.c.Base - sum
}
