package cp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

// FuzzCP cross-checks the proof search against exhaustive enumeration
// on tiny random instances: for any instance shape and tail-bound
// configuration (off, or tables of length 1..4), CP must prove the
// brute-force optimum with a feasible order — the tail bound may only
// shrink the tree, never change what is proved.
func FuzzCP(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(20), uint8(0))
	f.Add(int64(7), uint8(8), uint8(0), uint8(1))
	f.Add(int64(42), uint8(4), uint8(45), uint8(7))
	f.Add(int64(3), uint8(5), uint8(30), uint8(3))
	f.Add(int64(11), uint8(7), uint8(10), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, precPct, tail uint8) {
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 3 + int(n%6) // 3..8: brute force is instant
		cfg.Queries = 3 + int(n%4)
		cfg.PrecedenceProb = float64(precPct%50) / 100
		cfg.BuildInteractionProb = 0.1
		in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		bf, err := bruteforce.Solve(c, cs, true)
		if err != nil {
			t.Fatal(err)
		}
		var tb *prune.TailBound
		if tail%5 != 0 { // 0 = bound off; 1..4 = table length
			tb = prune.NewTailBound(c, cs, prune.Options{TailLength: int(tail % 5)})
		}
		res := Solve(c, cs, Options{TailBound: tb})
		if !res.Proved {
			t.Fatalf("search not exhausted on %d indexes", c.N)
		}
		if math.Abs(res.Objective-bf.Objective) > 1e-9*(1+bf.Objective) {
			t.Fatalf("cp %v != bruteforce %v", res.Objective, bf.Objective)
		}
		if err := in.ValidOrder(res.Order); err != nil {
			t.Fatalf("infeasible order: %v", err)
		}
	})
}
