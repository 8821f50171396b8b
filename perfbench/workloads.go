package main

import (
	"fmt"
	"time"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/service"
)

// outcome collects one run's results.
type outcome struct {
	attempted, failed int
	wrong             []string // output-check violations, first few
	violations        int
	e2e               map[string]float64
	layer             map[string]float64
	report            []string // human-readable lines, printed before the result
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// bad records an op that failed, was refused, or returned a wrong answer.
func (o *outcome) bad(check bool, format string, args ...any) {
	o.failed++
	if check {
		o.violations++
	}
	if len(o.wrong) < 10 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) line(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// workload is one prepared input set.
type workload interface {
	// drive runs the measured phase on servers of its own.
	drive() error
	// verify checks every answer and derives the metrics.
	verify(o *outcome, refs *references) error
	// replay re-runs the same requests stage by stage for the trace.
	replay(rp *replayer) error
}

func ratio(refs *references, in *model.Instance, obj float64) (float64, error) {
	g, err := refs.greedyObjective(in)
	if err != nil {
		return 0, err
	}
	return obj / g, nil
}

// ---- proof ----

type proofCall struct {
	res *service.SolveResult
	err error
	lat time.Duration
}

type proofWorkload struct {
	passes [][]proofOp
	calls  [][]proofCall
	// routed and fallback sum the servers' fast-path counters.
	routed, fallback int64
}

// drive climbs the ladder once per pass, each pass on a fresh server.
func (w *proofWorkload) drive() error {
	for _, ops := range w.passes {
		s, err := startServer()
		if err != nil {
			return err
		}
		calls := make([]proofCall, len(ops))
		for i, op := range ops {
			c := &calls[i]
			c.res = &service.SolveResult{}
			t := time.Now()
			c.err = s.do("POST", "/solve", op.Body, c.res)
			c.lat = time.Since(t)
		}
		m, err := s.metrics()
		s.stop()
		if err != nil {
			return err
		}
		w.routed += m.FastPath.Routed
		w.fallback += m.FastPath.Fallback
		w.calls = append(w.calls, calls)
	}
	return nil
}

func (w *proofWorkload) verify(o *outcome, refs *references) error {
	var ratios, overhead, actual, hitLat []float64
	provedN, solved, routed, hits := 0, 0, 0, 0
	perInstance := make([][]float64, len(proofLadder)) // time to proof, one per pass
	for p, ops := range w.passes {
		for i, op := range ops {
			o.attempted++
			c := w.calls[p][i]
			if c.err != nil {
				o.bad(false, "%s: %v", op.Name, c.err)
				continue
			}
			if err := checkResult(op.In, c.res, true); err != nil {
				o.bad(true, "%s: %v", op.Name, err)
				continue
			}
			if op.Repeat >= 0 {
				orig := w.calls[p][op.Repeat]
				if orig.err == nil && !sameObjective(c.res.Objective, orig.res.Objective) {
					o.bad(true, "%s: objective %.12g, original %.12g", op.Name, c.res.Objective, orig.res.Objective)
					continue
				}
				if c.res.CacheHit || c.res.Shared {
					hits++
				}
				hitLat = append(hitLat, ms(c.lat))
				continue
			}
			solved++
			if c.res.Routed {
				routed++
			}
			t := ms(op.Budget) // an unproved instance counts at its budget
			if c.res.Proved {
				opt, err := refs.optimum(op.In)
				if err != nil {
					return fmt.Errorf("%s: %w", op.Name, err)
				}
				if !sameObjective(c.res.Objective, opt) {
					o.bad(true, "%s: proved objective %.12g, reference optimum %.12g", op.Name, c.res.Objective, opt)
					continue
				}
				provedN++
				t = ms(c.lat)
			}
			perInstance[i] = append(perInstance[i], t)
			actual = append(actual, ms(c.lat))
			v, err := ratio(refs, op.In, c.res.Objective)
			if err != nil {
				return err
			}
			ratios = append(ratios, v)
			overhead = append(overhead, ms(c.lat-time.Duration(c.res.Wall)))
		}
	}
	o.line("proof: closed loop, one client, TPC-H reductions through POST /solve, %d passes on fresh servers", len(w.passes))
	var toProof []float64
	for i, ts := range perInstance {
		if len(ts) == 0 {
			continue
		}
		t := median(sortedCopy(ts))
		toProof = append(toProof, t)
		r := proofLadder[i]
		o.line("  r%d_%-5s budget %-4v time to proof %9.1f ms (median of %v)", r.N, r.Density, r.Budget, t, ts)
	}
	g := shiftedGeomean(toProof, geoShift)
	o.e2e["geomean_ms"] = g
	o.e2e["objective_ratio"] = geomean(ratios)
	o.line("proof_geomean_ms %.3f ms (shift %.0f ms, unproved at budget, n=%d instances)", g, geoShift, len(toProof))
	o.line("proved_frac %.4f (%d of %d ladder solves)", frac(provedN, solved), provedN, solved)
	o.line("time to proof per instance: %s; request latency: %s", summarize(toProof), summarize(actual))
	o.line("repeats: %d of %d answered from the cache, latency %v ms; fast path routed %d, fallback %d",
		hits, len(hitLat), hitLat, w.routed, w.fallback)
	o.layer["service.overhead_ms"] = mean(overhead)
	o.layer["service.cache_hit_frac"] = frac(hits, solved+len(hitLat))
	o.layer["portfolio.proved_frac"] = frac(provedN, solved)
	o.layer["portfolio.routed_frac"] = frac(routed, solved)
	o.layer["portfolio.fallback_frac"] = frac(int(w.fallback), int(w.routed+w.fallback))
	return nil
}

func (w *proofWorkload) replay(rp *replayer) error {
	for i, op := range w.passes[0] {
		if _, err := rp.solveRequest(i, op.Body); err != nil {
			return fmt.Errorf("replay %s: %w", op.Name, err)
		}
	}
	return nil
}

// ---- evolve ----

type evolveCall struct {
	lat    time.Duration
	err    error
	status service.SessionStatus
	delta  service.SessionDeltaResult
	job    service.JobStatus
}

type evolveWorkload struct {
	sessions []evolveSession
	creates  []evolveCall
	deltas   [][]evolveCall
}

func (w *evolveWorkload) drive() error {
	s, err := startServer()
	if err != nil {
		return err
	}
	defer s.stop()
	w.creates = make([]evolveCall, len(w.sessions))
	w.deltas = make([][]evolveCall, len(w.sessions))
	for k, sess := range w.sessions {
		c := &w.creates[k]
		t := time.Now()
		c.err = s.do("POST", "/sessions", sess.Create, &c.status)
		c.lat = time.Since(t)
		if c.err != nil {
			continue
		}
		id := c.status.ID
		// The job status only feeds service.queue_wait_ms; without it
		// the solve just contributes no queue-wait sample.
		_ = s.do("GET", "/jobs/"+c.status.LastJobID, nil, &c.job)
		w.deltas[k] = make([]evolveCall, len(sess.Deltas))
		for j, body := range sess.Deltas {
			d := &w.deltas[k][j]
			t := time.Now()
			d.err = s.do("POST", "/sessions/"+id+"/delta", body, &d.delta)
			d.lat = time.Since(t)
			if d.err == nil {
				_ = s.do("GET", "/jobs/"+d.delta.LastJobID, nil, &d.job)
			}
		}
		_ = s.do("DELETE", "/sessions/"+id, nil, nil)
	}
	return nil
}

func (w *evolveWorkload) verify(o *outcome, refs *references) error {
	var lat, outside, coldObj, warmObj, ratios, qwait, overhead, kept []float64
	var sessRatios []string
	var warm, solves int
	var total time.Duration
	note := func(c *evolveCall, res *service.SolveResult) {
		solves++
		if res.WarmStarted {
			warm++
		}
		if c.job.StartedAt != nil {
			qwait = append(qwait, ms(c.job.StartedAt.Sub(c.job.QueuedAt)))
		}
		overhead = append(overhead, ms(c.lat-time.Duration(res.Wall)))
	}
	for k, sess := range w.sessions {
		c := &w.creates[k]
		o.attempted++
		if c.err != nil {
			o.bad(false, "%s create: %v", sess.Name, c.err)
			o.attempted += len(sess.Deltas)
			o.failed += len(sess.Deltas)
			continue
		}
		if err := checkResult(sess.States[0], c.status.Result, true); err != nil {
			o.bad(true, "%s create: %v", sess.Name, err)
		} else {
			coldObj = append(coldObj, c.status.Result.Objective)
			note(c, c.status.Result)
		}
		prev := c.status.Plan
		for j := range sess.Deltas {
			d := &w.deltas[k][j]
			o.attempted++
			if d.err != nil {
				o.bad(false, "%s delta %d: %v", sess.Name, j, d.err)
				continue
			}
			in, err := projectBuilt(sess.States[j+1], sess.Built[j+1])
			if err != nil {
				return err
			}
			res := d.delta.Result
			if err := checkResult(in, res, false); err != nil {
				o.bad(true, "%s delta %d: %v", sess.Name, j, err)
				continue
			}
			if d.delta.TailFrom > len(prev) || d.delta.TailFrom > len(res.Names) {
				o.bad(true, "%s delta %d: tail_from %d beyond the plans", sess.Name, j, d.delta.TailFrom)
				continue
			}
			note(d, res)
			lat = append(lat, ms(d.lat))
			outside = append(outside, ms(d.lat-time.Duration(res.Wall)))
			total += d.lat
			warmObj = append(warmObj, res.Objective)
			kept = append(kept, frac(d.delta.TailFrom, len(res.Names)))
			v, err := ratio(refs, in, res.Objective)
			if err != nil {
				return err
			}
			ratios = append(ratios, v)
			sessRatios = append(sessRatios, fmt.Sprintf("%.3f", v))
			prev = res.Names
		}
		o.line("  %s: objective/greedy per delta %v", sess.Name, sessRatios)
		sessRatios = nil
	}
	t := summarize(lat)
	// Every solve runs its whole fixed budget, so the latency is mostly
	// budget; the gated time is the part of a delta spent outside the
	// solve: decode, project, repair, canonicalize, hash, compile,
	// analyze, warm-start admission, evaluate, encode and HTTP.
	o.e2e["geomean_ms"] = shiftedGeomean(outside, geoShift)
	o.e2e["objective_ratio"] = geomean(ratios)
	o.line("evolve: closed loop, one client, sessions on TPC-H n=31 (%v per solve) and TPC-DS n=123 (%v per solve)",
		evolveBudgetTPCH, evolveBudgetTPCDS)
	o.line("delta_p50_ms %.3f ms (%s; %.3f deltas/s)", t.P50, t, float64(len(lat))/total.Seconds())
	o.line("per delta outside the solve: %s; shifted geomean %.3f ms", summarize(outside), o.e2e["geomean_ms"])
	o.line("cold_objective %.6g (geomean of %d creates)", geomean(coldObj), len(coldObj))
	o.line("warm_objective %.6g (geomean of %d deltas; vs greedy %.4f)", geomean(warmObj), len(warmObj), geomean(ratios))
	o.layer["service.queue_wait_ms"] = mean(qwait)
	o.layer["service.overhead_ms"] = mean(overhead)
	o.layer["service.warm_start_frac"] = frac(warm, solves)
	o.layer["evolve.tail_kept_frac"] = mean(kept)
	return nil
}

func (w *evolveWorkload) replay(rp *replayer) error {
	req := 0
	for _, sess := range w.sessions {
		plan, err := rp.solveRequest(req, sess.Create)
		if err != nil {
			return fmt.Errorf("replay %s create: %w", sess.Name, err)
		}
		req++
		for j, body := range sess.Deltas {
			if plan, err = rp.deltaRequest(req, body, sess.Budget, sess.States[j], sess.Built[j], plan); err != nil {
				return fmt.Errorf("replay %s delta %d: %w", sess.Name, j, err)
			}
			req++
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
