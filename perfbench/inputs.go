package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/evolving-olap/idd/internal/advisor"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/dbsim"
	"github.com/evolving-olap/idd/internal/evolve"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/service"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/tpcds"
	"github.com/evolving-olap/idd/internal/tpch"
)

// Every input is a pure function of the seed: the same seed yields
// byte-identical request bodies and delta sequences
// (inputs_test.go asserts it). The program only ever receives these
// bodies.

// relabel returns a copy of in with its index, query and plan slices
// permuted (references rewritten to match). The problem is unchanged,
// so the canonical hash is too: a relabelled repeat is a cache hit.
func relabel(in *model.Instance, rng *rand.Rand) *model.Instance {
	ixPerm := rng.Perm(len(in.Indexes)) // old index -> new position
	qPerm := rng.Perm(len(in.Queries))
	out := &model.Instance{Name: in.Name,
		Indexes: make([]model.Index, len(in.Indexes)),
		Queries: make([]model.Query, len(in.Queries)),
	}
	for i, ix := range in.Indexes {
		out.Indexes[ixPerm[i]] = ix
	}
	for q, qu := range in.Queries {
		out.Queries[qPerm[q]] = qu
	}
	for _, k := range rng.Perm(len(in.Plans)) {
		p := in.Plans[k]
		np := model.Plan{Query: qPerm[p.Query], Speedup: p.Speedup}
		for _, ix := range p.Indexes {
			np.Indexes = append(np.Indexes, ixPerm[ix])
		}
		out.Plans = append(out.Plans, np)
	}
	for _, b := range in.BuildInteractions {
		b.Target, b.Helper = ixPerm[b.Target], ixPerm[b.Helper]
		out.BuildInteractions = append(out.BuildInteractions, b)
	}
	for _, p := range in.Precedences {
		p.Before, p.After = ixPerm[p.Before], ixPerm[p.After]
		out.Precedences = append(out.Precedences, p)
	}
	return out
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data structs always marshal
	}
	return data
}

// solveBody is the JSON envelope of POST /solve, /jobs and /sessions.
func solveBody(in *model.Instance, budget time.Duration, tenant string) []byte {
	return mustJSON(map[string]any{"instance": in, "budget": budget.String(), "tenant": tenant})
}

// The TPC-H and TPC-DS instances come out of the what-if advisor with
// the options internal/datasets uses (inputs_test.go checks that they
// match). datasets caches its copies for the life of the process; the
// benchmark builds them afresh, so every set-up pays for generating its
// inputs from the schemas and queries.
func buildTPCH() *model.Instance {
	return mustBuild(advisor.BuildInstance("tpch", tpch.Schema(), tpch.Queries(), advisor.Options{
		MaxIndexes: 32, MaxPlansPerQuery: 20, MinBuildInteraction: 0.22}))
}

func buildTPCDS() *model.Instance {
	return mustBuild(advisor.BuildInstance("tpcds", tpcds.Schema(), tpcds.Queries(), advisor.Options{
		MaxIndexes: 170, MaxPlansPerQuery: 33, MinBuildInteraction: 0.22}))
}

func mustBuild(in *model.Instance, _ []dbsim.IndexDef, err error) *model.Instance {
	if err != nil {
		panic("perfbench: advisor build of a built-in benchmark: " + err.Error())
	}
	return in
}

// ---- proof ----

// proofRung is one TPC-H reduction of the proof ladder with its budget.
// Budgets sit away from each instance's proof cliff on the parent
// commit: the proved ones prove in well under their budget, the rest
// never prove at it (see METRICS.md for the measurements).
type proofRung struct {
	N       int
	Density datasets.Density
	Budget  time.Duration
}

// The n=10 and n=12 rungs fall in the router's fast-path window
// (n ≤ 12), and at n ≤ 10 brute force is one of the provers it
// explores; every pass starts with a fresh router, so each pass routes
// them the same way. The rest are always raced.
var proofLadder = []proofRung{
	{10, datasets.Low, 5 * time.Second}, {10, datasets.Mid, 5 * time.Second}, {10, datasets.Full, 5 * time.Second},
	{12, datasets.Low, 5 * time.Second}, {12, datasets.Mid, 5 * time.Second}, {12, datasets.Full, 5 * time.Second},
	{16, datasets.Low, 5 * time.Second}, {16, datasets.Mid, 5 * time.Second}, {16, datasets.Full, 5 * time.Second},
	{18, datasets.Low, 5 * time.Second}, {18, datasets.Mid, 5 * time.Second}, {18, datasets.Full, 8 * time.Second},
	{20, datasets.Low, 5 * time.Second}, {20, datasets.Mid, 5 * time.Second}, {20, datasets.Full, 3 * time.Second},
	{22, datasets.Low, 5 * time.Second}, {22, datasets.Mid, 8 * time.Second}, {22, datasets.Full, 3 * time.Second},
	{24, datasets.Low, 5 * time.Second}, {24, datasets.Mid, 3 * time.Second}, {24, datasets.Full, 3 * time.Second},
}

// proofRepeatOf is the rung each pass sends once more after the ladder,
// relabelled: the server must answer it from its solution cache with
// the original's objective.
const proofRepeatOf = 6 // r16_low

type proofOp struct {
	Name   string
	Budget time.Duration
	Repeat int // ladder position this op repeats, or -1
	In     *model.Instance
	Body   []byte
}

// proofPasses is how many times a run climbs the ladder, each pass on a
// fresh server (so no pass hits another pass's cache) with its own
// relabelling. An instance's time to proof is its median over passes:
// which backend the race schedules first moves a single proof by tens
// of milliseconds.
const proofPasses = 3

// proofInputs returns the ladder and its repeat once per pass.
func proofInputs(seed int64) [][]proofOp {
	rng := rand.New(rand.NewSource(seed))
	tpch := buildTPCH()
	passes := make([][]proofOp, proofPasses)
	for p := range passes {
		for _, r := range proofLadder {
			in := relabel(datasets.Reduce(tpch, r.N, r.Density), rng)
			passes[p] = append(passes[p], proofOp{
				Name:   fmt.Sprintf("r%d_%s", r.N, r.Density),
				Budget: r.Budget,
				Repeat: -1,
				In:     in,
				Body:   solveBody(in, r.Budget, "proof"),
			})
		}
		orig := passes[p][proofRepeatOf]
		in := relabel(orig.In, rng)
		passes[p] = append(passes[p], proofOp{
			Name:   orig.Name + "_repeat",
			Budget: orig.Budget,
			Repeat: proofRepeatOf,
			In:     in,
			Body:   solveBody(in, orig.Budget, "proof"),
		})
	}
	return passes
}

// ---- evolve ----

// Fixed budgets of every solve in a session, cold or warm. At 1 s the
// TPC-DS local searches are far from converged, so the objective they
// reach tracks how much CPU the machine happened to give; at 2 s it
// settles.
const (
	evolveBudgetTPCH  = time.Second
	evolveBudgetTPCDS = 2 * time.Second
)

// evolveSession is one session: a cold create and a seeded delta
// sequence. States[k] is the full workload after delta k (States[0] is
// the created instance) and Built[k] the indexes marked built by then;
// both are the benchmark's own model of the session, used to check the
// server's answers.
type evolveSession struct {
	Name   string
	Budget time.Duration
	Create []byte
	Deltas [][]byte
	States []*model.Instance
	Built  []map[string]bool
}

// evolveInputs builds the TPC-H (n=31) and TPC-DS (n=123) sessions,
// each with as many deltas as fill the run.
func evolveInputs(seed int64, seconds int) []evolveSession {
	rng := rand.New(rand.NewSource(seed))
	perPair := evolveBudgetTPCH + evolveBudgetTPCDS
	deltas := max(2, int(time.Duration(seconds)*time.Second/perPair)-1)
	return []evolveSession{
		newEvolveSession("tpch", relabel(buildTPCH(), rng), evolveBudgetTPCH, deltas, rng),
		newEvolveSession("tpcds", relabel(buildTPCDS(), rng), evolveBudgetTPCDS, deltas, rng),
	}
}

// deltaKinds is the order in which a session's deltas change the
// workload, repeated. The seed draws what each delta touches, not its
// kind: every seed asks the server for the same mix of work, and the
// workload keeps about its size.
var deltaKinds = []string{"weights", "add", "weights", "built", "weights", "drop", "weights", "built"}

func newEvolveSession(name string, in *model.Instance, budget time.Duration, deltas int, rng *rand.Rand) evolveSession {
	s := evolveSession{Name: name, Budget: budget, Create: solveBody(in, budget, "evolve-"+name),
		States: []*model.Instance{in}, Built: []map[string]bool{{}}}
	plan := greedyPlan(in)
	added, lastAdded := 0, ""
	var drifted []int // queries the last weights delta moved
	for k := 0; k < deltas; k++ {
		cur, built := s.States[k], s.Built[k]
		var open []string // indexes neither built nor about to vanish
		for _, ix := range cur.Indexes {
			if !built[ix.Name] {
				open = append(open, ix.Name)
			}
		}
		var d service.SessionDelta
		switch kind := deltaKinds[k%len(deltaKinds)]; {
		case kind == "weights":
			// Three queries drift from their created weight by up to 25%
			// either way, and the previous drift's queries return to
			// theirs. Weights fluctuate around the created workload's
			// rather than random-walking away from it, which let the seed
			// set the analysis work of every later delta.
			d.Weights = map[string]float64{}
			for _, q := range drifted {
				d.Weights[in.Queries[q].Name] = in.QueryWeight(q)
			}
			drifted = rng.Perm(len(in.Queries))[:min(3, len(in.Queries))]
			for _, q := range drifted {
				d.Weights[in.Queries[q].Name] = in.QueryWeight(q) * math.Pow(1.25, 2*rng.Float64()-1)
			}
		case kind == "add": // a new candidate index with one single-index plan
			added++
			like := cur.Indexes[rng.Intn(cur.N())]
			ix := model.Index{Name: fmt.Sprintf("%s_new%d", like.Name, added), Table: like.Table,
				Columns: like.Columns, CreateCost: like.CreateCost * (0.5 + rng.Float64())}
			q := cur.Queries[rng.Intn(len(cur.Queries))]
			d.AddIndexes = []model.Index{ix}
			lastAdded = ix.Name
			d.AddPlans = []service.SessionPlan{{Query: q.Name, Indexes: []string{ix.Name},
				Speedup: q.Runtime * (0.05 + 0.25*rng.Float64())}}
		case kind == "drop" && lastAdded != "":
			// The candidate added earlier in the cycle leaves the design.
			// Dropping a random index instead let the seed decide how much
			// structure the workload lost, and with it the work per delta.
			d.DropIndexes = []string{lastAdded}
			lastAdded = ""
		default: // the head of the deployment plan got built
			d.Built = planHead(plan, open, 1)
		}
		next, nextBuilt := applyDelta(cur, built, d)
		s.Deltas = append(s.Deltas, mustJSON(d))
		s.States = append(s.States, next)
		s.Built = append(s.Built, nextBuilt)
	}
	return s
}

// greedyPlan is greedy's order over the created workload, by index
// name. Computable from the inputs alone, it stands in for the
// deployment plan whose head gets built first. It is computed once per
// session, so generating the deltas costs the same for every seed.
func greedyPlan(in *model.Instance) []string {
	c := model.MustCompile(in)
	var names []string
	for _, ix := range greedy.Solve(c, sched.PrecedenceSet(in)) {
		names = append(names, in.Indexes[ix].Name)
	}
	return names
}

// planHead names the first k open indexes in plan order, then in
// workload order for indexes added after the plan was made. Every
// precedence predecessor of a plan index comes earlier in the plan, and
// added indexes have none, so the names can be built in this order.
func planHead(plan, open []string, k int) []string {
	isOpen := map[string]bool{}
	for _, name := range open {
		isOpen[name] = true
	}
	var names []string
	for _, list := range [][]string{plan, open} {
		for _, name := range list {
			if len(names) < k && isOpen[name] {
				names = append(names, name)
				delete(isOpen, name)
			}
		}
	}
	return names
}

// projectBuilt is what the server solves for a session: the workload
// with every built index projected out.
func projectBuilt(in *model.Instance, built map[string]bool) (*model.Instance, error) {
	if len(built) == 0 {
		return in, nil
	}
	isNew := make([]bool, in.N())
	for i, ix := range in.Indexes {
		isNew[i] = !built[ix.Name]
	}
	proj, _, err := evolve.ProjectDelta(in, isNew)
	return proj, err
}

// applyDelta is the benchmark's model of a session delta, restricted to
// the kinds newEvolveSession emits: weights, an added index with its
// plans, dropped indexes, and built markers.
func applyDelta(in *model.Instance, built map[string]bool, d service.SessionDelta) (*model.Instance, map[string]bool) {
	out := datasets.Clone(in)
	nb := map[string]bool{}
	for k := range built {
		nb[k] = true
	}
	for name, w := range d.Weights {
		for q := range out.Queries {
			if out.Queries[q].Name == name {
				out.Queries[q].Weight = w
			}
		}
	}
	if len(d.DropIndexes) > 0 {
		keep := make([]bool, out.N())
		for i, ix := range out.Indexes {
			keep[i] = true
			for _, name := range d.DropIndexes {
				if ix.Name == name {
					keep[i] = false
					delete(nb, name)
				}
			}
		}
		out = restrict(out, keep)
	}
	for _, ix := range d.AddIndexes {
		out.Indexes = append(out.Indexes, ix)
	}
	for _, sp := range d.AddPlans {
		p := model.Plan{Query: queryPos(out, sp.Query), Speedup: sp.Speedup}
		for _, name := range sp.Indexes {
			p.Indexes = append(p.Indexes, indexPos(out, name))
		}
		out.Plans = append(out.Plans, p)
	}
	for _, name := range d.Built {
		nb[name] = true
	}
	return out, nb
}

// restrict keeps the indexes with keep[i] and everything that only
// references kept indexes.
func restrict(in *model.Instance, keep []bool) *model.Instance {
	remap := make([]int, in.N())
	out := &model.Instance{Name: in.Name, Queries: in.Queries}
	for i, ix := range in.Indexes {
		remap[i] = -1
		if keep[i] {
			remap[i] = len(out.Indexes)
			out.Indexes = append(out.Indexes, ix)
		}
	}
plans:
	for _, p := range in.Plans {
		np := model.Plan{Query: p.Query, Speedup: p.Speedup}
		for _, ix := range p.Indexes {
			if remap[ix] < 0 {
				continue plans
			}
			np.Indexes = append(np.Indexes, remap[ix])
		}
		out.Plans = append(out.Plans, np)
	}
	for _, b := range in.BuildInteractions {
		if remap[b.Target] >= 0 && remap[b.Helper] >= 0 {
			b.Target, b.Helper = remap[b.Target], remap[b.Helper]
			out.BuildInteractions = append(out.BuildInteractions, b)
		}
	}
	for _, p := range in.Precedences {
		if remap[p.Before] >= 0 && remap[p.After] >= 0 {
			p.Before, p.After = remap[p.Before], remap[p.After]
			out.Precedences = append(out.Precedences, p)
		}
	}
	return out
}

func queryPos(in *model.Instance, name string) int {
	for q, qu := range in.Queries {
		if qu.Name == name {
			return q
		}
	}
	panic("perfbench: unknown query " + name)
}

func indexPos(in *model.Instance, name string) int {
	for i, ix := range in.Indexes {
		if ix.Name == name {
			return i
		}
	}
	panic("perfbench: unknown index " + name)
}
