package astar

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

func inst(seed int64, n int) (*model.Instance, *model.Compiled) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = n
	cfg.Queries = 5
	in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
	return in, model.MustCompile(in)
}

func TestMatchesBruteforce(t *testing.T) {
	f := func(seed int64) bool {
		_, c := inst(seed, 7)
		bf, err := bruteforce.Solve(c, nil, true)
		if err != nil {
			return false
		}
		res, err := Solve(c, nil, Options{})
		if err != nil || !res.Proved {
			return false
		}
		return math.Abs(res.Objective-bf.Objective) < 1e-9*(1+bf.Objective)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRespectsPrecedences(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 8
	cfg.PrecedenceProb = 0.25
	for rep := 0; rep < 5; rep++ {
		in := randgen.New(rng, cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		res, err := Solve(c, cs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proved {
			t.Fatal("not proved on 8 indexes")
		}
		if err := in.ValidOrder(res.Order); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		bf, err := bruteforce.Solve(c, cs, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Objective-bf.Objective) > 1e-9*(1+bf.Objective) {
			t.Fatalf("rep %d: astar %v != bf %v", rep, res.Objective, bf.Objective)
		}
	}
}

func TestRejectsOversized(t *testing.T) {
	_, c := inst(1, 10)
	_ = c
	cfg := randgen.DefaultConfig()
	cfg.Indexes = MaxN + 1
	big := model.MustCompile(randgen.New(rand.New(rand.NewSource(2)), cfg))
	if _, err := Solve(big, nil, Options{}); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

func TestNodeLimitAborts(t *testing.T) {
	_, c := inst(3, 12)
	res, err := Solve(c, nil, Options{NodeLimit: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proved {
		t.Fatal("20-expansion search claimed a proof on 12 indexes")
	}
}

func TestSubsetDeduplicationBoundsStates(t *testing.T) {
	// A* must see at most 2^n distinct subsets, far below n! prefixes.
	_, c := inst(4, 9)
	res, err := Solve(c, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("not proved")
	}
	if res.States > 1<<9 {
		t.Errorf("states = %d exceeds 2^9", res.States)
	}
	if res.Expanded > res.States {
		t.Errorf("expanded %d > states %d: dedup is broken", res.Expanded, res.States)
	}
}

// TestPinnedWorkTPCH pins A*'s deterministic search effort on TPC-H
// reductions under the analyzed constraint set: the expansion sequence
// depends only on the instance, the heuristic's bits and the open
// list's tie-breaking, so any drift in those shows up here as a changed
// count, not as a slower proof.
func TestPinnedWorkTPCH(t *testing.T) {
	for _, tc := range []struct {
		n                int
		d                datasets.Density
		expanded, states int64
	}{
		{16, datasets.Full, 3534, 16643},
		{18, datasets.Mid, 6850, 16080},
		{18, datasets.Full, 50377, 101607},
		{20, datasets.Mid, 20702, 46823},
	} {
		c := model.MustCompile(datasets.ReducedTPCH(tc.n, tc.d))
		cs, _ := prune.Analyze(c, prune.Options{})
		res, err := Solve(c, cs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proved {
			t.Fatalf("r%d_%v: not proved", tc.n, tc.d)
		}
		if res.Expanded != tc.expanded || res.States != tc.states {
			t.Errorf("r%d_%v: expanded/states = %d/%d, want %d/%d",
				tc.n, tc.d, res.Expanded, res.States, tc.expanded, tc.states)
		}
	}
}

// TestCountersMirrorResult: the telemetry the backend reports is
// exactly the search's four effort counters, and the memory counter is
// a deterministic function of the instance.
func TestCountersMirrorResult(t *testing.T) {
	in, c := inst(5, 11)
	cs := sched.PrecedenceSet(in)
	res, err := Solve(c, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"expanded":    res.Expanded,
		"states":      res.States,
		"pushed":      res.Pushed,
		"arena_bytes": res.ArenaBytes,
	}
	out := asBackend{}.Solve(context.Background(), backend.Request{Compiled: c, Constraints: cs})
	for _, got := range []map[string]int64{res.Counters(), out.Counters} {
		if len(got) != len(want) {
			t.Fatalf("counters %v, want exactly the keys of %v", got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("counter %s = %d, want %d", k, got[k], v)
			}
		}
	}
	if res.Expanded == 0 || res.States > res.Pushed || res.Expanded > res.States || res.ArenaBytes <= 0 {
		t.Fatalf("inconsistent effort counters: %v", want)
	}
}
