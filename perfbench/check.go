package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/service"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/portfolio"
)

// objTol is the relative tolerance between a reported objective and
// the benchmark's recomputation.
const objTol = 1e-9

func sameObjective(a, b float64) bool {
	return math.Abs(a-b) <= objTol*math.Max(1, math.Abs(b))
}

// checkResult verifies that res.Names is a precedence-feasible
// permutation of in's indexes and that the objective recomputed through
// model.Compile(in).Evaluate equals the reported one. When orderToo is
// set, res.Order must index in.Indexes consistently with res.Names.
func checkResult(in *model.Instance, res *service.SolveResult, orderToo bool) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	n := in.N()
	if len(res.Names) != n {
		return fmt.Errorf("plan has %d indexes, instance %d", len(res.Names), n)
	}
	pos := make(map[string]int, n)
	for i, ix := range in.Indexes {
		pos[ix.Name] = i
	}
	order := make([]int, n)
	seen := make([]bool, n)
	for k, name := range res.Names {
		i, ok := pos[name]
		if !ok || seen[i] {
			return fmt.Errorf("plan position %d: %q is unknown or repeated", k, name)
		}
		seen[i] = true
		order[k] = i
		if orderToo && (k >= len(res.Order) || res.Order[k] != i) {
			return fmt.Errorf("order and names disagree at position %d", k)
		}
	}
	if !sched.PrecedenceSet(in).Compatible(order) {
		return fmt.Errorf("plan violates a precedence")
	}
	c, err := model.Compile(in)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	if obj, _, _ := c.Evaluate(order); !sameObjective(res.Objective, obj) {
		return fmt.Errorf("reported objective %.12g, recomputed %.12g", res.Objective, obj)
	}
	return nil
}

// references computes reference values once per distinct problem
// (canonical hash): the optimum from A* alone run to completion under
// the §5 pruning constraints, outside the service, the router and the
// race; and greedy's objective as the quality yardstick. (A* without
// the pruning edges takes tens of seconds on the proof ladder.)
type references struct {
	mu     sync.Mutex
	opt    map[string]float64
	greedy map[string]float64
}

func newReferences() *references {
	return &references{opt: map[string]float64{}, greedy: map[string]float64{}}
}

func (r *references) optimum(in *model.Instance) (float64, error) {
	key := codec.CanonicalHash(in)
	r.mu.Lock()
	v, ok := r.opt[key]
	r.mu.Unlock()
	if ok {
		return v, nil
	}
	c, err := model.Compile(in)
	if err != nil {
		return 0, err
	}
	cs, _ := prune.Analyze(c, prune.Options{})
	res, err := portfolio.SolveSingle(context.Background(), c, cs, "astar",
		portfolio.Options{Budget: 10 * time.Minute})
	if err != nil {
		return 0, fmt.Errorf("reference solve: %w", err)
	}
	if !res.Proved {
		return 0, fmt.Errorf("reference solve did not complete")
	}
	r.mu.Lock()
	r.opt[key] = res.Objective
	r.mu.Unlock()
	return res.Objective, nil
}

func (r *references) greedyObjective(in *model.Instance) (float64, error) {
	key := codec.CanonicalHash(in)
	r.mu.Lock()
	v, ok := r.greedy[key]
	r.mu.Unlock()
	if ok {
		return v, nil
	}
	c, err := model.Compile(in)
	if err != nil {
		return 0, err
	}
	v = c.Objective(greedy.Solve(c, sched.PrecedenceSet(in)))
	r.mu.Lock()
	r.greedy[key] = v
	r.mu.Unlock()
	return v, nil
}
