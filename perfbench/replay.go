package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/evolve"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/service"
	"github.com/evolving-olap/idd/internal/solver/portfolio"
)

// replayer re-runs requests in-process, stage by stage through the
// layers' public functions, in the order service.execute calls them:
// decode → canonicalize → hash → compile → analyze → route →
// SolveSingle/Solve → evaluate → encode. It mirrors the solution cache
// (a repeated canonical key skips to encode) and the router's learning,
// and keeps its own counts for the per-layer metrics.
type replayer struct {
	rec    *recorder
	router *portfolio.Router
	cache  map[string]*service.SolveResult

	// The deterministic stages run untraced and traced (see twice); the
	// difference is the tracing overhead.
	plainNS, tracedNS int64
	calls             int

	races                    int
	edgesAdded, analyses     int
	exactSliceNS             int64
	wastedNS, busyNS         int64
	iterations, improvements map[string]int64
	wins                     map[string]int64
}

func newReplayer(rec *recorder) *replayer {
	return &replayer{rec: rec, router: portfolio.NewRouter(0), cache: map[string]*service.SolveResult{},
		iterations: map[string]int64{}, improvements: map[string]int64{}, wins: map[string]int64{}}
}

// prepared is the output of the stages before the solve.
type prepared struct {
	canon *model.Instance
	key   string
	c     *model.Compiled
	cs    *constraint.Set
	edges int
}

// prepare runs canonicalize → hash → compile → analyze under parent.
func prepare(rec *recorder, parent, req int, in *model.Instance) (prepared, error) {
	var p prepared
	rec.timed("codec.canonicalize", parent, req, func() { p.canon, _ = codec.Canonicalize(in) })
	rec.timed("codec.hash", parent, req, func() {
		p.key = codec.CanonicalHash(p.canon)
		_ = codec.StructuralHash(p.canon)
	})
	var err error
	rec.timed("model.compile", parent, req, func() { p.c, err = model.Compile(p.canon) })
	if err != nil {
		return p, fmt.Errorf("compile: %w", err)
	}
	rec.timed("prune.analyze", parent, req, func() { p.cs, _ = prune.Analyze(p.c, prune.Options{}) })
	p.edges = p.cs.Len() - len(p.canon.Precedences)
	return p, nil
}

// envelope is the body of a solve request as the benchmark sends it.
type envelope struct {
	Instance json.RawMessage  `json:"instance"`
	Budget   service.Duration `json:"budget"`
}

func decodeSolve(body []byte) (*model.Instance, time.Duration, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, 0, err
	}
	in, err := codec.ReadJSON(bytes.NewReader(env.Instance))
	return in, time.Duration(env.Budget), err
}

// twice runs f untraced and traced and adds both timings to the
// overhead tally; the traced run's values are the ones kept. An untimed
// run first warms the caches, and the order of the two timed runs
// alternates between calls, so neither side gets the warmer turn.
func (rp *replayer) twice(f func(rec *recorder) error) error {
	run := func(rec *recorder) (int64, error) {
		t := time.Now()
		err := f(rec)
		return int64(time.Since(t)), err
	}
	if _, err := run(nil); err != nil {
		return err
	}
	var plain, traced int64
	var err error
	if rp.calls++; rp.calls%2 == 0 {
		if plain, err = run(nil); err == nil {
			traced, err = run(rp.rec)
		}
	} else {
		if traced, err = run(rp.rec); err == nil {
			plain, err = run(nil)
		}
	}
	rp.plainNS += plain
	rp.tracedNS += traced
	return err
}

// solveRequest replays one solve request body (POST /solve or a session
// create) and returns the plan by index name.
func (rp *replayer) solveRequest(req int, body []byte) ([]string, error) {
	root := rp.rec.begin("request", -1, req)
	defer rp.rec.end(root)
	var (
		in     *model.Instance
		budget time.Duration
		p      prepared
	)
	err := rp.twice(func(rec *recorder) error {
		var err error
		id := rec.begin("codec.decode", root, req)
		in, budget, err = decodeSolve(body)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		p, err = prepare(rec, root, req, in)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rp.execute(root, req, in, p, budget, nil)
}

// deltaRequest replays one session delta against the benchmark's model
// of the session (state before the delta, built set, previous plan).
func (rp *replayer) deltaRequest(req int, body []byte, budget time.Duration, state *model.Instance, built map[string]bool, prevPlan []string) ([]string, error) {
	root := rp.rec.begin("request", -1, req)
	defer rp.rec.end(root)
	var (
		solveIn *model.Instance
		warm    []string
		p       prepared
	)
	err := rp.twice(func(rec *recorder) error {
		var d service.SessionDelta
		id := rec.begin("codec.decode", root, req)
		err := json.Unmarshal(body, &d)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("decode delta: %w", err)
		}
		next, nextBuilt := applyDelta(state, built, d)
		solveIn = next
		if len(nextBuilt) > 0 {
			isNew := make([]bool, next.N())
			for i, ix := range next.Indexes {
				isNew[i] = !nextBuilt[ix.Name]
			}
			rec.timed("evolve.project", root, req, func() { solveIn, _, err = evolve.ProjectDelta(next, isNew) })
			if err != nil {
				return fmt.Errorf("project: %w", err)
			}
		}
		rec.timed("evolve.repair", root, req, func() { warm, err = evolve.RepairOrder(solveIn, prevPlan) })
		if err != nil {
			warm = nil // the service falls back to a cold submission
		}
		p, err = prepare(rec, root, req, solveIn)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rp.execute(root, req, solveIn, p, budget, warm)
}

// execute is the solve half of service.execute: warm-start admission,
// route, solve, evaluate, encode.
func (rp *replayer) execute(root, req int, in *model.Instance, p prepared, budget time.Duration, warm []string) ([]string, error) {
	rp.edgesAdded += p.edges
	rp.analyses++
	key := p.key
	var initial []int
	if warm != nil {
		pos := map[string]int{}
		for i, ix := range p.canon.Indexes {
			pos[ix.Name] = i
		}
		for _, name := range warm {
			initial = append(initial, pos[name])
		}
		key += "|warm=" + fmt.Sprint(warm)
	}
	if hit, ok := rp.cache[key]; ok {
		return rp.encode(root, req, in, p, hit)
	}
	if initial != nil {
		var err error
		rp.rec.timed("portfolio.repair_initial", root, req, func() { initial, err = portfolio.RepairInitial(p.c, p.cs, initial) })
		if err != nil {
			initial = nil
		}
	}
	// CP builds its tail tables inside its own slice; the probe times
	// the same construction on its own, outside the request.
	probe := rp.rec.begin("prune.tail_build", -1, req)
	prune.NewTailBound(p.c, p.cs, prune.Options{})
	rp.rec.end(probe)

	solveSpan := rp.rec.begin("portfolio.solve", root, req)
	var mu sync.Mutex
	open := map[string]int{}
	opts := portfolio.Options{Budget: budget, Initial: initial, OnProgress: func(ev portfolio.ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case portfolio.ProgressBackendStarted:
			open[ev.Backend] = rp.rec.begin(backendMetric(ev.Backend), solveSpan, req)
		case portfolio.ProgressBackendDone:
			if id, ok := open[ev.Backend]; ok {
				rp.rec.end(id)
				delete(open, ev.Backend)
			}
		}
	}}
	var (
		res    portfolio.Result
		err    error
		routed bool
	)
	features := portfolio.FeaturesOf(p.c, p.cs)
	start := time.Now()
	var name string
	var ok bool
	rp.rec.timed("portfolio.route", root, req, func() { name, ok = rp.router.Route(p.c, p.cs) })
	if ok {
		res, err = portfolio.SolveSingle(context.Background(), p.c, p.cs, name, opts)
		if err == nil && res.Proved {
			routed = true
		} else if err == nil {
			rp.router.Observe(features, name, false, 0)
		}
	}
	if !routed && err == nil {
		rp.races++
		res, err = portfolio.Solve(context.Background(), p.c, p.cs, opts)
		if err == nil {
			rp.tallyRace(res)
		}
	}
	rp.rec.end(solveSpan)
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	rp.router.Observe(features, res.Winner, res.Proved, time.Since(start))
	for _, b := range res.Backends {
		m := backendMetric(b.Name)
		rp.iterations[m] += b.Iterations
		rp.improvements[m] += int64(b.Improvements)
	}
	rp.wins[backendMetric(res.Winner)]++
	out := &service.SolveResult{Order: res.Order, Objective: res.Objective, Proved: res.Proved,
		Winner: res.Winner, Routed: routed}
	rp.cache[key] = out
	return rp.encode(root, req, in, p, out)
}

func (rp *replayer) tallyRace(res portfolio.Result) {
	for _, b := range res.Backends {
		if b.Skipped {
			continue
		}
		rp.busyNS += int64(b.Wall)
		if b.Improvements == 0 && !b.Proved {
			rp.wastedNS += int64(b.Wall)
		}
		if b.Name == "astar" || b.Name == "cp" {
			rp.exactSliceNS += int64(b.Wall)
		}
	}
}

// encode evaluates the order, names it in request space and marshals
// the result, as the service does before answering.
func (rp *replayer) encode(root, req int, in *model.Instance, p prepared, res *service.SolveResult) ([]string, error) {
	out := *res
	var names []string
	err := rp.twice(func(rec *recorder) error {
		rec.timed("model.evaluate", root, req, func() {
			_, out.DeployTime, out.FinalRuntime = p.c.Evaluate(res.Order)
		})
		rec.timed("model.objective", root, req, func() { _ = p.c.Objective(res.Order) })
		var err error
		rec.timed("codec.encode", root, req, func() {
			out.Names = make([]string, len(res.Order))
			for k, ix := range res.Order {
				out.Names[k] = p.canon.Indexes[ix].Name
			}
			_, err = json.Marshal(&out)
		})
		names = out.Names
		return err
	})
	return names, err
}

// layerMetrics folds the replay's spans and counts into per-layer
// values: stage timings are mean self time per call, backend figures
// are totals over the replay.
func (rp *replayer) layerMetrics(out map[string]float64) {
	spans := rp.rec.snapshot()
	self := selfTimes(spans)
	calls := map[string]int{}
	for _, s := range spans {
		calls[s.Name]++
	}
	mean := func(name string, unit time.Duration) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(self[name]) / float64(calls[name]) / float64(unit)
	}
	for _, name := range []string{"codec.decode", "codec.canonicalize", "codec.hash", "codec.encode",
		"model.compile", "prune.analyze", "prune.tail_build", "evolve.repair", "evolve.project"} {
		out[name+"_ms"] = mean(name, time.Millisecond)
	}
	out["model.objective_us"] = mean("model.objective", time.Microsecond)
	if rp.analyses > 0 {
		out["prune.edges_added"] = float64(rp.edgesAdded) / float64(rp.analyses)
	}
	if rp.races > 0 {
		out["portfolio.exact_slice_ms"] = float64(rp.exactSliceNS) / float64(rp.races) / 1e6
	}
	if rp.busyNS > 0 {
		out["portfolio.wasted_slice_frac"] = float64(rp.wastedNS) / float64(rp.busyNS)
	}
	for _, b := range backendMetricNames {
		m := backendMetric(b)
		out[m+".busy_ms"] = float64(self[m]) / 1e6
		out[m+".iterations"] = float64(rp.iterations[m])
		out[m+".improvements"] = float64(rp.improvements[m])
		out[m+".wins"] = float64(rp.wins[m])
	}
	if rp.plainNS > 0 {
		out["bench.trace_overhead_frac"] = float64(rp.tracedNS-rp.plainNS) / float64(rp.plainNS)
	}
}
