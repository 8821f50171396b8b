package prune

import (
	"math"
	"math/rand"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
)

// TestTailBoundMatchesEnumeration is the exactness proof for the
// in-search tail bound: for every feasible full order of a small random
// instance and every tail length m <= MaxLen, the stored value for the
// remaining set must (a) never exceed the true minimal completion delta
// from that specific prefix — admissibility, the soundness property —
// and (b) sit within the documented 1e-9 safety deflation of it, i.e.
// the bound really is the exact enumeration, not a weaker relaxation.
// Sweeping every feasible prefix also exercises the set-purity claim:
// one stored value must serve all prefix orders of the same set.
func TestTailBoundMatchesEnumeration(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 7
		cfg.Queries = 5
		cfg.PrecedenceProb = 0.2
		cfg.BuildInteractionProb = 0.15
		in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		tb := NewTailBound(c, cs, Options{TailLength: 3})
		if tb == nil || tb.MaxLen() != 3 {
			t.Fatalf("seed %d: tail bound not built (maxLen %d)", seed, tb.MaxLen())
		}

		n := c.N
		w := model.NewWalker(c)
		rem := make([]int, 0, n)
		checked := 0
		permute(seqInts(n), func(order []int) {
			if !cs.Compatible(order) {
				return
			}
			for m := 1; m <= tb.MaxLen(); m++ {
				prefix := order[:n-m]
				rem = append(rem[:0], order[n-m:]...)
				sortInts(rem)
				w.Sync(prefix)
				base := w.Objective()
				best := math.Inf(1)
				permuteFeasible(rem, cs, func(perm []int) {
					for _, i := range perm {
						w.Push(i)
					}
					if d := w.Objective() - base; d < best {
						best = d
					}
					for range perm {
						w.Pop()
					}
				})
				got, ok := tb.Lookup(rem)
				if !ok {
					t.Fatalf("seed %d: no table entry for remaining set %v (m=%d)", seed, rem, m)
				}
				if got > best {
					t.Fatalf("seed %d: stored tail cost %v exceeds true minimum %v for %v — unsound",
						seed, got, best, rem)
				}
				if got < best-2*(1e-9*(math.Abs(best)+1)) {
					t.Fatalf("seed %d: stored tail cost %v far below true minimum %v for %v — not exact",
						seed, got, best, rem)
				}
				checked++
			}
		})
		if checked == 0 {
			t.Fatalf("seed %d: no feasible orders checked", seed)
		}
	}
}

// TestTailBoundBudgetAndCaps: over-budget lengths are skipped (Lookup
// declines, never guesses), TailLength is capped at the packing limit,
// and the nil receiver is inert.
func TestTailBoundBudgetAndCaps(t *testing.T) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 8
	in := randgen.New(rand.New(rand.NewSource(1)), cfg)
	c := model.MustCompile(in)

	tb := NewTailBound(c, nil, Options{TailLength: 3, MaxTailPatterns: 1})
	if tb.MaxLen() != 3 {
		t.Fatalf("MaxLen = %d, want 3", tb.MaxLen())
	}
	if _, ok := tb.Lookup([]int{0}); ok {
		t.Fatal("over-budget table served a lookup")
	}
	for _, s := range tb.Sets() {
		if s != 0 {
			t.Fatalf("over-budget run enumerated sets: %v", tb.Sets())
		}
	}

	if got := NewTailBound(c, nil, Options{TailLength: 9}).MaxLen(); got != maxTailBoundLen {
		t.Fatalf("TailLength cap: MaxLen = %d, want %d", got, maxTailBoundLen)
	}

	var nilTB *TailBound
	if nilTB.MaxLen() != 0 || nilTB.Sets() != nil {
		t.Fatal("nil TailBound not inert")
	}
	if _, ok := nilTB.Lookup([]int{0, 1}); ok {
		t.Fatal("nil TailBound served a lookup")
	}
}

// TestTailBoundUnconstrainedCoverage: with no constraints every subset
// is feasible, so each table must hold exactly C(n, m) entries — the
// enumeration misses nothing.
func TestTailBoundUnconstrainedCoverage(t *testing.T) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 9
	cfg.PrecedenceProb = 0
	in := randgen.New(rand.New(rand.NewSource(5)), cfg)
	c := model.MustCompile(in)
	tb := NewTailBound(c, nil, Options{TailLength: 3})
	for m := 1; m <= 3; m++ {
		if got, want := tb.Sets()[m-1], binomial(9, m); got != want {
			t.Fatalf("length %d: %d sets enumerated, want C(9,%d)=%d", m, got, m, want)
		}
	}
}

// TestTailKeyInjective: the packed key must distinguish every set —
// a collision would merge two sets' minima and could make the bound
// unsound. All 3-subsets of 0..19 must map to distinct keys, and the
// packing must be order-normalized by construction (ascending input).
func TestTailKeyInjective(t *testing.T) {
	seen := make(map[uint64][3]int)
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			for c := b + 1; c < 20; c++ {
				k := tailKey([]int{a, b, c})
				if prev, dup := seen[k]; dup {
					t.Fatalf("key collision: %v and [%d %d %d]", prev, a, b, c)
				}
				seen[k] = [3]int{a, b, c}
			}
		}
	}
	if len(seen) != binomial(20, 3) {
		t.Fatalf("enumerated %d keys, want %d", len(seen), binomial(20, 3))
	}
}

func sortInts(xs []int) {
	for a := 1; a < len(xs); a++ {
		for b := a; b > 0 && xs[b] < xs[b-1]; b-- {
			xs[b], xs[b-1] = xs[b-1], xs[b]
		}
	}
}
