package main

import (
	"strings"
	"testing"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/service"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

func TestCheckResultCatchesWrongAnswers(t *testing.T) {
	in := datasets.ReducedTPCH(10, datasets.Full)
	in.Precedences = append(in.Precedences, model.Precedence{Before: 0, After: 1})
	c := model.MustCompile(in)
	order := greedy.Solve(c, sched.PrecedenceSet(in))
	good := func() *service.SolveResult {
		res := &service.SolveResult{Order: append([]int(nil), order...), Objective: c.Objective(order)}
		for _, ix := range order {
			res.Names = append(res.Names, in.Indexes[ix].Name)
		}
		return res
	}
	if err := checkResult(in, good(), true); err != nil {
		t.Fatalf("a correct answer failed the check: %v", err)
	}

	off := good()
	off.Objective *= 1 + 1e-6
	repeated := good()
	repeated.Names[1] = repeated.Names[0]
	swapped := good() // index 1 ahead of index 0 breaks the precedence
	var p0, p1 int
	for k, ix := range order {
		switch ix {
		case 0:
			p0 = k
		case 1:
			p1 = k
		}
	}
	swapped.Names[p0], swapped.Names[p1] = swapped.Names[p1], swapped.Names[p0]
	swapped.Order[p0], swapped.Order[p1] = swapped.Order[p1], swapped.Order[p0]
	short := good()
	short.Names = short.Names[1:]
	mismatch := good()
	mismatch.Order[0], mismatch.Order[1] = mismatch.Order[1], mismatch.Order[0]

	for name, c := range map[string]struct {
		res  *service.SolveResult
		want string
	}{
		"objective":  {off, "recomputed"},
		"repeated":   {repeated, "repeated"},
		"infeasible": {swapped, "precedence"},
		"short":      {short, "plan has"},
		"order":      {mismatch, "disagree"},
	} {
		err := checkResult(in, c.res, true)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
		}
	}
}

func TestReferenceOptimumIsAtMostGreedy(t *testing.T) {
	in := datasets.ReducedTPCH(12, datasets.Mid)
	refs := newReferences()
	opt, err := refs.optimum(in)
	if err != nil {
		t.Fatal(err)
	}
	g, err := refs.greedyObjective(in)
	if err != nil {
		t.Fatal(err)
	}
	if opt > g*(1+objTol) {
		t.Errorf("reference optimum %v above greedy %v", opt, g)
	}
}
