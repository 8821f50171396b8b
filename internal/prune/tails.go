package prune

import "math"

// tails runs the tail-index analysis of §5.5 / Appendix D.6: enumerate
// every feasible ordered tail of length L, compute each pattern's tail
// objective (the area its L steps contribute, which depends only on the
// preceding *set*), keep the champion(s) of every tail-set group, and
// extract rules that hold in all champions. The rule extracted here is
// suffix agreement: if every champion ends with the same index x, then x
// is last in some optimal solution and everything else precedes it; the
// check repeats inward while the agreed suffix grows. The fixed-point
// driver (§5.6) then re-runs the analysis with the new constraints,
// peeling further indexes.
func (a *analyzer) tails(rep *Report, opt Options) {
	n := a.c.N
	length := min(opt.tailLength(), n)
	cands := tailCands(a.cs, length, opt.maxTailPatterns())
	if cands == nil {
		return
	}
	if a.kernel == nil {
		a.kernel = newTailKernel(a.c, a.cs)
	}
	k := a.kernel

	// Every tail set's champions (the permutations within 1e-9 of its
	// best, collected in enumeration order) fold into one running
	// agreement: agree[pos] is the first champion's index at pos, and
	// split[pos] records that some champion differs there. Once the last
	// position is split no suffix can agree, so the enumeration stops.
	agree := make([]int, length)
	split := make([]bool, length)
	champs := make([][]uint8, 0, factorial(length))
	seen := false
	k.forEachSet(cands, length, func(set []int) bool {
		const tol = 1e-9
		best := math.Inf(1)
		champs = champs[:0]
		k.forEachPerm(func(perm []uint8, area float64) {
			switch {
			case area < best-tol:
				best = area
				champs = append(champs[:0], perm)
			case area <= best+tol:
				champs = append(champs, perm)
			}
		})
		for _, perm := range champs {
			for pos, j := range perm {
				switch x := set[j]; {
				case !seen:
					agree[pos] = x
				case agree[pos] != x:
					split[pos] = true
				}
			}
			seen = true
		}
		return !split[length-1]
	})
	if !seen {
		return
	}

	// Suffix agreement: walk from the last tail position inward while all
	// champions agree on the index at that position.
	inSuffix := make([]bool, n)
	for pos := length - 1; pos >= 0 && !split[pos]; pos-- {
		// x occupies absolute position n-length+pos in some optimal
		// solution: everything not in the agreed suffix precedes it.
		x := agree[pos]
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

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func binomial(n, k int) int {
	if k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
		if r > 1<<30 {
			return -1 // overflow guard: treat as "too many"
		}
	}
	return r
}

func factorial(k int) int {
	r := 1
	for i := 2; i <= k; i++ {
		r *= i
	}
	return r
}

// permute calls f with every permutation of set (Heap's algorithm on a
// copy; f must not retain the slice).
func permute(set []int, f func(perm []int)) {
	perm := append([]int(nil), set...)
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			f(perm)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	rec(len(perm))
}

// seqInts returns 0, 1, ..., n-1.
func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
