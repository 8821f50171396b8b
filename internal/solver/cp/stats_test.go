package cp

import (
	"math/rand"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// checkStats asserts the structural invariants of a solve's effort
// breakdown against its headline counters.
func checkStats(t *testing.T, tag string, res Result) {
	t.Helper()
	st := res.Stats
	if got := st.PrunedBound + st.PrunedTail + st.Infeasible; got != res.Fails {
		t.Errorf("%s: prune causes %d+%d+%d = %d != fails %d",
			tag, st.PrunedBound, st.PrunedTail, st.Infeasible, got, res.Fails)
	}
}

// TestStatsPruneCausesSumToFails is the acceptance-criterion check on a
// real corpus instance: every recorded dead end has exactly one cause,
// tail bound on and off.
func TestStatsPruneCausesSumToFails(t *testing.T) {
	for ci, in := range solvertest.CorpusInstances()[:6] {
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		tb := prune.NewTailBound(c, cs, prune.Options{})
		for _, tail := range []*prune.TailBound{nil, tb} {
			res := Solve(c, cs, Options{TailBound: tail})
			if !res.Proved {
				t.Fatalf("corpus %d: not proved", ci)
			}
			checkStats(t, "corpus", res)
			if res.Fails > 0 && res.Stats.PrunedBound == 0 && res.Stats.Infeasible == 0 && res.Stats.PrunedTail == 0 {
				t.Errorf("corpus %d: fails %d but no causes recorded", ci, res.Fails)
			}
			if tail == nil && res.Stats.PrunedTail != 0 {
				t.Errorf("corpus %d: tail prunes %d without a tail bound", ci, res.Stats.PrunedTail)
			}
		}
	}
}

func TestStatsSerialDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 9
	cfg.PrecedenceProb = 0.2
	in := randgen.New(rng, cfg)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	a := Solve(c, cs, Options{})
	b := Solve(c, cs, Options{})
	if a.Stats != b.Stats {
		t.Fatalf("serial stats differ across identical runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
	checkStats(t, "serial", a)
}
