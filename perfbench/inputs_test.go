package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/service"
)

func TestProofInputsDeterministicInSeed(t *testing.T) {
	a, b, c := proofInputs(1), proofInputs(1), proofInputs(2)
	for p := range a {
		for i := range a[p] {
			x, y, z := a[p][i], b[p][i], c[p][i]
			if !bytes.Equal(x.Body, y.Body) {
				t.Fatalf("pass %d %s: bodies differ for one seed", p, x.Name)
			}
			if bytes.Equal(x.Body, z.Body) {
				t.Errorf("pass %d %s: seeds 1 and 2 give the same body", p, x.Name)
			}
			if p > 0 && bytes.Equal(x.Body, a[0][i].Body) {
				t.Errorf("%s: passes 0 and %d send the same body", x.Name, p)
			}
			if codec.CanonicalHash(x.In) != codec.CanonicalHash(z.In) {
				t.Errorf("%s: the seed changed the problem, not only its labelling", x.Name)
			}
		}
	}
}

func TestEvolveInputsDeterministicAndValid(t *testing.T) {
	a, b := evolveInputs(5, 12), evolveInputs(5, 12)
	for k := range a {
		if !bytes.Equal(a[k].Create, b[k].Create) || len(a[k].Deltas) != len(b[k].Deltas) {
			t.Fatalf("%s: create or delta count differs for one seed", a[k].Name)
		}
		for j := range a[k].Deltas {
			if !bytes.Equal(a[k].Deltas[j], b[k].Deltas[j]) {
				t.Fatalf("%s delta %d differs for one seed", a[k].Name, j)
			}
		}
		for j := range a[k].States {
			if err := a[k].States[j].Validate(); err != nil {
				t.Errorf("%s state %d: %v", a[k].Name, j, err)
			}
			in, err := projectBuilt(a[k].States[j], a[k].Built[j])
			if err != nil || in.N() == 0 {
				t.Errorf("%s state %d: projected instance: %v (n=%d)", a[k].Name, j, err, in.N())
			}
		}
	}
	if c := evolveInputs(6, 12); bytes.Equal(c[0].Deltas[0], a[0].Deltas[0]) && bytes.Equal(c[0].Deltas[1], a[0].Deltas[1]) {
		t.Errorf("seeds 5 and 6 produced the same delta sequence")
	}
}

func TestRelabelKeepsTheProblem(t *testing.T) {
	in := datasets.ReducedTPCH(12, datasets.Mid)
	out := relabel(in, rand.New(rand.NewSource(1)))
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if codec.CanonicalHash(in) != codec.CanonicalHash(out) {
		t.Fatal("relabel changed the canonical hash")
	}
}

func TestBuiltInstancesMatchDatasets(t *testing.T) {
	if codec.CanonicalHash(buildTPCH()) != codec.CanonicalHash(datasets.TPCH()) {
		t.Error("buildTPCH differs from datasets.TPCH")
	}
	if codec.CanonicalHash(buildTPCDS()) != codec.CanonicalHash(datasets.TPCDS()) {
		t.Error("buildTPCDS differs from datasets.TPCDS")
	}
}

func TestProofRepeatHitsTheCanonicalHash(t *testing.T) {
	for p, ops := range proofInputs(3) {
		repeats := 0
		for _, op := range ops {
			if op.Repeat < 0 {
				continue
			}
			repeats++
			orig := ops[op.Repeat]
			if bytes.Equal(op.Body, orig.Body) {
				t.Errorf("pass %d: the repeat is byte-identical to its original; it should be relabelled", p)
			}
			if codec.CanonicalHash(op.In) != codec.CanonicalHash(orig.In) || op.Budget != orig.Budget {
				t.Errorf("pass %d: the repeat does not share its original's cache key", p)
			}
		}
		if repeats != 1 {
			t.Errorf("pass %d: %d repeats, want 1", p, repeats)
		}
	}
}

func TestPlanHeadFollowsThePlanThenTheWorkload(t *testing.T) {
	plan := []string{"a", "b", "c"}
	if got := planHead(plan, []string{"c", "x", "b"}, 2); fmt.Sprint(got) != "[b c]" {
		t.Errorf("planHead = %v, want [b c]", got)
	}
	if got := planHead(plan, []string{"y", "c", "x"}, 3); fmt.Sprint(got) != "[c y x]" {
		t.Errorf("planHead = %v, want [c y x]", got)
	}
}

// The evolve workload stays near its created instance, so the work per
// delta does not drift with the seed: at most three query weights are
// off their created values, by at most 25%, and a dropped index is one
// the session added.
func TestEvolveStaysNearTheCreatedWorkload(t *testing.T) {
	for _, sess := range evolveInputs(4, 30) {
		base := sess.States[0]
		for j, st := range sess.States {
			off := 0
			for q := range st.Queries {
				w, w0 := st.QueryWeight(q), base.QueryWeight(q)
				if w != w0 {
					off++
				}
				if w > w0*1.25*(1+1e-12) || w < w0/1.25*(1-1e-12) {
					t.Errorf("%s state %d: query %s weight %v, created %v", sess.Name, j, st.Queries[q].Name, w, w0)
				}
			}
			if off > 3 {
				t.Errorf("%s state %d: %d weights off their created values", sess.Name, j, off)
			}
		}
		for j, body := range sess.Deltas {
			var d service.SessionDelta
			if err := json.Unmarshal(body, &d); err != nil {
				t.Fatal(err)
			}
			for _, name := range d.DropIndexes {
				if !strings.Contains(name, "_new") {
					t.Errorf("%s delta %d drops %s, which the session did not add", sess.Name, j, name)
				}
			}
		}
	}
}
