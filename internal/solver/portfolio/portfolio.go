// Package portfolio races several solver backends concurrently over one
// problem instance, sharing the best-known schedule through a lock-guarded
// incumbent store. Algorithm portfolios are the standard way to turn a
// collection of complementary anytime solvers into a single robust one:
// exact backends (cp, astar, bruteforce) publish proofs and prune against
// the best heuristic incumbent, while the anytime backends (tabu, lns,
// vns, anneal, mip) adopt whatever the portfolio has found so far and keep
// improving it. The orchestrator runs backends on a bounded worker pool
// with per-backend deadline slices carved out of one overall budget,
// cancels everything through a context as soon as some backend proves the
// incumbent optimal, and reports per-backend telemetry alongside the
// winning schedule.
//
// The backends themselves come from the self-describing registry in
// internal/solver/backend: the orchestrator derives the default
// selection from each backend's declared applicability, the finisher
// from the declared anytime ranking, and hands every backend the same
// backend.Request envelope (instance, budget slice, seed, typed params,
// publish/consume hooks). Registering a new backend — even from a test
// file — makes it available here with no portfolio edits.
package portfolio

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/greedy"

	// Every built-in solver registers itself into the backend registry
	// from init(); importing them here is what puts them on the roster
	// for any program that links the portfolio.
	_ "github.com/evolving-olap/idd/internal/solver/astar"
	_ "github.com/evolving-olap/idd/internal/solver/bruteforce"
	_ "github.com/evolving-olap/idd/internal/solver/cp"
	_ "github.com/evolving-olap/idd/internal/solver/dp"
	_ "github.com/evolving-olap/idd/internal/solver/local"
	_ "github.com/evolving-olap/idd/internal/solver/mip"
)

const eps = 1e-12

// Store is the shared incumbent: the best feasible schedule any backend
// has published so far. The objective is mirrored in an atomic word so
// the hot consume path (solvers polling "is there anything better?")
// never takes the mutex unless there is.
type Store struct {
	mu    sync.Mutex
	bits  atomic.Uint64 // math.Float64bits of the incumbent objective
	order []int
	owner string
	n     int
	cs    *constraint.Set
}

// NewStore returns an empty store for n-index schedules validated against
// cs (nil = no precedence constraints).
func NewStore(n int, cs *constraint.Set) *Store {
	s := &Store{n: n, cs: cs}
	s.bits.Store(math.Float64bits(math.Inf(1)))
	return s
}

// Objective returns the incumbent objective (+Inf when empty). Lock-free.
func (s *Store) Objective() float64 {
	return math.Float64frombits(s.bits.Load())
}

// Offer publishes a candidate schedule on behalf of owner. Infeasible
// orders and orders that do not strictly improve the incumbent are
// rejected. Returns true when the candidate became the incumbent.
func (s *Store) Offer(owner string, order []int, obj float64) bool {
	if obj >= s.Objective()-eps {
		return false
	}
	if !s.feasible(order) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj >= s.Objective()-eps {
		return false // raced with a better offer
	}
	s.order = append([]int(nil), order...)
	s.owner = owner
	s.bits.Store(math.Float64bits(obj))
	return true
}

// Best returns a copy of the incumbent, its objective, and the backend
// that published it (nil, +Inf, "" when empty).
func (s *Store) Best() ([]int, float64, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.order == nil {
		return nil, math.Inf(1), ""
	}
	return append([]int(nil), s.order...), s.Objective(), s.owner
}

// BetterThan returns a copy of the incumbent and its objective when it is
// strictly better than than, else (nil, 0). This is the consume callback
// handed to the anytime backends.
func (s *Store) BetterThan(than float64) ([]int, float64) {
	if s.Objective() >= than-eps {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	obj := s.Objective()
	if obj >= than-eps || s.order == nil {
		return nil, 0
	}
	return append([]int(nil), s.order...), obj
}

func (s *Store) feasible(order []int) bool {
	return validOrder(s.n, s.cs, order) == nil
}

// ValidateInitial reports why initial cannot seed a solve of c under cs:
// wrong length, not a permutation, or incompatible with the precedence
// constraints. It is Solve's admission check for Options.Initial,
// exported so warm-start callers (the service session path) can decide
// to degrade to a cold start instead of failing the run.
func ValidateInitial(c *model.Compiled, cs *constraint.Set, initial []int) error {
	return validOrder(c.N, cs, initial)
}

// RepairInitial returns initial unchanged when it is already a feasible
// seed, and otherwise reorders it stably (sched.Repair): items keep
// their given relative order except where cs forces a swap. This rescues
// warm starts whose order predates extra constraints (e.g. the pruning
// analysis adds precedence edges a previous incumbent never saw). It
// fails only when initial is not a permutation at all.
func RepairInitial(c *model.Compiled, cs *constraint.Set, initial []int) ([]int, error) {
	if ValidateInitial(c, cs, initial) == nil {
		return initial, nil
	}
	// Only a precedence violation is repairable; re-check the shape.
	if serr := validOrder(c.N, nil, initial); serr != nil {
		return nil, serr
	}
	return sched.Repair(initial, cs), nil
}

func validOrder(n int, cs *constraint.Set, order []int) error {
	if len(order) != n {
		return fmt.Errorf("initial order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("initial order is not a permutation of 0..%d", n-1)
		}
		seen[i] = true
	}
	if cs != nil && !cs.Compatible(order) {
		return fmt.Errorf("initial order violates precedence constraints")
	}
	return nil
}

// Options configures a portfolio run.
type Options struct {
	// Backends names the backends to race (see Names); nil = Default.
	Backends []string
	// Workers bounds concurrent backends (0 = GOMAXPROCS, capped at the
	// number of backends).
	Workers int
	// Budget is the overall wall-clock budget shared by all backends
	// (0 = 10s). When there are more backends than workers the remaining
	// budget is sliced across the queued backends so late starters still
	// get a fair share.
	Budget time.Duration
	// StepLimit, when positive, additionally bounds every backend's
	// search steps (local-search steps / CP, A*, MIP nodes), making runs
	// reproducible for tests regardless of wall-clock speed.
	StepLimit int64
	// Params is the typed registry-declared parameter bag handed to
	// every backend (e.g. "cp.tail_bound"). Build it with
	// backend.ValidateParams / backend.ParseParams; backends read only
	// their own declared keys.
	Params backend.Params
	// Seed derives each randomized backend's private RNG.
	Seed int64
	// Initial seeds the incumbent store (nil = greedy.Solve).
	Initial []int
	// Store, when non-nil, is used as the shared incumbent store instead
	// of a run-private one. It must have been built with NewStore(c.N,
	// cs) for the same instance and constraint set. The distributed
	// cluster injects a store it also feeds remote incumbents into, so
	// exact provers on this node prune against bests found on another.
	Store *Store
	// OnImprove, when non-nil, observes every change of the shared
	// incumbent (with a copy of the order). It may be invoked from
	// multiple backend goroutines; each call was an improvement at the
	// moment it was committed to the store, but delivery order between
	// goroutines is not synchronized, so a slightly stale (larger)
	// objective can arrive after a fresher one.
	OnImprove func(backend string, order []int, objective float64)
	// OnProgress, when non-nil, observes the full anytime progress of the
	// run: every backend start, every incumbent improvement, every
	// backend completion, and the optimality proof if one lands. It is
	// invoked from backend worker
	// goroutines and must be safe for concurrent use; event order between
	// goroutines is not synchronized (see OnImprove). The solve service
	// turns this stream into server-sent events.
	OnProgress func(ProgressEvent)
}

// ProgressKind discriminates OnProgress events.
type ProgressKind uint8

const (
	// ProgressImproved: a backend replaced the shared incumbent. Order
	// (a private copy) and Objective carry the new incumbent.
	ProgressImproved ProgressKind = iota
	// ProgressBackendDone: one backend finished, failed, or was skipped.
	// Objective/Err/Skipped/Iterations/Wall mirror its BackendResult.
	ProgressBackendDone
	// ProgressProved: an exact backend proved the shared incumbent
	// optimal. Order and Objective carry the proved incumbent.
	ProgressProved
	// ProgressBackendStarted: a backend is about to run (never emitted
	// for skipped backends). Declared after the original kinds so their
	// wire values are unchanged.
	ProgressBackendStarted
)

func (k ProgressKind) String() string {
	switch k {
	case ProgressImproved:
		return "improved"
	case ProgressBackendDone:
		return "backend-done"
	case ProgressProved:
		return "proved"
	case ProgressBackendStarted:
		return "backend-start"
	default:
		return "unknown"
	}
}

// ProgressEvent is one step of a portfolio run's anytime progress.
type ProgressEvent struct {
	Kind    ProgressKind
	Backend string
	// Order is a private copy of the incumbent for Improved/Proved events
	// (nil for BackendDone).
	Order     []int
	Objective float64
	// BackendDone details.
	Err        error
	Skipped    bool
	Iterations int64
	Wall       time.Duration
}

// BackendResult is per-backend telemetry.
type BackendResult struct {
	Name string
	// Objective is the objective of the backend's final solution. For
	// anytime backends this includes portfolio incumbents adopted
	// mid-run, so identical values across backends are expected; use
	// BestPublished/Improvements for what a backend itself contributed
	// (+Inf when it produced nothing).
	Objective float64
	// BestPublished is the best objective this backend committed to the
	// shared store (+Inf when it never improved the portfolio incumbent).
	BestPublished float64
	// Improvements counts the backend's accepted incumbent publications.
	Improvements int
	// Proved marks an exact optimality proof (cp, astar, bruteforce
	// only; the MIP proof is w.r.t. its discretized model and does not
	// count).
	Proved bool
	// Iterations counts backend-specific search effort: local-search
	// steps, CP/MIP nodes, A* expansions, brute-force permutations.
	Iterations int64
	// Counters is the backend's own effort breakdown (nil when the
	// backend reports none): cp's prune-cause split,
	// the local searches' accepted/adopted move counts. Passed through
	// verbatim from backend.Outcome.Counters.
	Counters map[string]int64
	// Wall is the backend's own wall-clock time.
	Wall time.Duration
	// Err reports a backend that refused or failed the instance (e.g.
	// bruteforce/astar beyond MaxN, the MIP formulation too large).
	Err error
	// Skipped marks a backend never started: the budget was exhausted or
	// an earlier backend proved optimality.
	Skipped bool
}

// Result is the portfolio outcome.
type Result struct {
	// Order is the incumbent schedule and Objective its objective.
	Order     []int
	Objective float64
	// Winner is the backend that published the incumbent ("seed" when no
	// backend improved on the initial order, "<name>+" when the finisher
	// pass improved it further).
	Winner string
	// Proved is true when some exact backend proved the incumbent
	// optimal.
	Proved bool
	// Backends holds telemetry in Options.Backends order, followed by
	// the finisher pass when one ran.
	Backends []BackendResult
}

// Names lists every registered backend, in the order Default considers
// them (the registry's rank order).
func Names() []string { return backend.Names() }

// Default picks the backends applicable to an instance, derived from
// each registered backend's declared applicability predicate: the cheap
// constructive solvers and every anytime search always volunteer; A* is
// the one exact prover up to astar.MaxN indexes and cp beyond it; brute
// force never races by default, and the MIP bows out when the instance
// is too large for it to contribute within a portfolio slice.
func Default(c *model.Compiled) []string { return backend.Default(c) }

// Solve races the configured backends and returns the best schedule found
// plus per-backend telemetry. cs may be nil. The error is non-nil only
// for an unknown backend name.
func Solve(ctx context.Context, c *model.Compiled, cs *constraint.Set, opt Options) (Result, error) {
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	names := opt.Backends
	if len(names) == 0 {
		names = Default(c)
	}
	if err := backend.CheckNames(names); err != nil {
		return Result{}, fmt.Errorf("portfolio: %w", err)
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = 10 * time.Second
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	emit := func(ev ProgressEvent) {
		if opt.OnProgress != nil {
			opt.OnProgress(ev)
		}
	}
	improved := func(backend string, order []int, obj float64) {
		if opt.OnImprove != nil {
			opt.OnImprove(backend, order, obj)
		}
		if opt.OnProgress != nil {
			opt.OnProgress(ProgressEvent{
				Kind: ProgressImproved, Backend: backend,
				Order: append([]int(nil), order...), Objective: obj,
			})
		}
	}

	sh := opt.Store
	if sh == nil {
		sh = NewStore(c.N, cs)
	}
	initial := opt.Initial
	if initial == nil {
		initial = greedy.Solve(c, cs)
	} else if err := ValidateInitial(c, cs, initial); err != nil {
		// An infeasible seed would silently poison every backend (they
		// all start from it and prune against its objective).
		return Result{}, fmt.Errorf("portfolio: Options.Initial is not a feasible order: %w", err)
	}
	sh.Offer("seed", initial, c.Objective(initial))

	if ctx == nil {
		ctx = context.Background()
	}
	parent, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	overall := start.Add(budget)

	// When there are more backends than workers the exploration phase is
	// time-sliced, which handicaps every anytime solver against a
	// standalone full-budget run. Reserve an exploitation tail: after the
	// sliced race, the strongest anytime backend restarts from the shared
	// incumbent with everything that is left (see the finisher pass
	// below). With enough workers the race itself gets the whole budget.
	exploreDeadline := overall
	finisher := backend.Finisher(names)
	if workers < len(names) && finisher != "" {
		// The fewer the workers, the more the race is sliced and the more
		// budget the finisher needs to compete with a standalone
		// full-budget run: 1 worker keeps 1/3 for exploration, many
		// workers keep nearly all of it.
		exploreDeadline = start.Add(budget * time.Duration(workers) / time.Duration(workers+2))
	}

	results := make([]BackendResult, len(names))
	var queued atomic.Int64
	queued.Store(int64(len(names)))
	var proved atomic.Bool

	jobs := make(chan int, len(names))
	for j := range names {
		jobs <- j
	}
	close(jobs)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				name := names[j]
				b, _ := backend.Lookup(name)
				exact := b.Info().Kind == backend.KindExact
				left := queued.Add(-1) + 1 // backends not yet started, incl. this one
				remaining := time.Until(exploreDeadline)
				br := BackendResult{Name: name, Objective: math.Inf(1), BestPublished: math.Inf(1)}
				if remaining <= 0 || parent.Err() != nil {
					br.Skipped = true
					results[j] = br
					emit(ProgressEvent{Kind: ProgressBackendDone, Backend: name,
						Objective: br.Objective, Skipped: true})
					continue
				}
				// Deadline slicing: workers run concurrently, so the
				// remaining wall budget funds `workers` seconds of solver
				// time per second; divide it fairly across the queue.
				slice := remaining
				if left > int64(workers) {
					slice = time.Duration(int64(remaining) * int64(workers) / left)
				}
				if slice < time.Millisecond {
					slice = time.Millisecond
				}
				bctx, bcancel := context.WithTimeout(parent, slice)
				// A backend may invoke its publish callback from
				// goroutines of its own, so the orchestrator guards br's
				// contribution counters with its own mutex instead of
				// relying on any backend's internal locking. Backends
				// join their goroutines before returning, so br is
				// settled when it is read below.
				var pubMu sync.Mutex
				publish := func(order []int, obj float64) {
					if !sh.Offer(name, order, obj) {
						return
					}
					pubMu.Lock()
					br.BestPublished = obj
					br.Improvements++
					pubMu.Unlock()
					improved(name, order, obj)
				}
				req := backend.Request{
					Compiled:    c,
					Constraints: cs,
					Budget:      slice,
					StepLimit:   opt.StepLimit,
					Seed:        opt.Seed + int64(j)*0x9E3779B9,
					Initial:     initial,
					Params:      opt.Params,
					Publish:     publish,
					Incumbent:   sh.BetterThan,
					Bound:       sh.Objective,
				}
				emit(ProgressEvent{Kind: ProgressBackendStarted, Backend: name,
					Objective: sh.Objective()})
				start := time.Now()
				out := b.Solve(bctx, req)
				bcancel()
				br.Wall = time.Since(start)
				br.Objective = out.Objective
				// Only an exact backend's exhausted search is an
				// optimality certificate; mip's discretized proof (and
				// whatever a misbehaving backend might claim) is
				// telemetry at best.
				br.Proved = out.Proved && exact
				br.Iterations = out.Iterations
				br.Counters = out.Counters
				br.Err = out.Err
				if out.Order != nil {
					publish(out.Order, out.Objective)
				}
				results[j] = br
				emit(ProgressEvent{Kind: ProgressBackendDone, Backend: name,
					Objective: br.Objective, Err: br.Err,
					Iterations: br.Iterations, Wall: br.Wall})
				if br.Proved && proved.CompareAndSwap(false, true) {
					// The incumbent is optimal; stop the other backends.
					// The CAS elects a single prover so concurrent exact
					// backends cannot double-emit the proof event.
					cancel()
					border, bobj, _ := sh.Best()
					emit(ProgressEvent{Kind: ProgressProved, Backend: name,
						Order: border, Objective: bobj})
				}
			}
		}()
	}
	wg.Wait()

	// Finisher pass: exploitation of whatever budget the sliced race left
	// over. The strongest anytime backend in the set reruns undisturbed
	// until the overall deadline, starting from the *initial* order, not
	// the incumbent: a heuristic incumbent can sit in a worse basin than
	// the greedy seed, and adopting it would trap the finisher there. The
	// store keeps whichever of the race and the finisher ends up best, so
	// the portfolio result is the minimum of both.
	if finisher != "" && !proved.Load() && parent.Err() == nil {
		if rem := time.Until(overall); rem > budget/20 {
			fb, _ := backend.Lookup(finisher)
			fname := finisher + "+"
			fbr := BackendResult{Name: fname, BestPublished: math.Inf(1)}
			publish := func(o []int, obj float64) {
				if !sh.Offer(fname, o, obj) {
					return
				}
				fbr.BestPublished = obj
				fbr.Improvements++
				improved(fname, o, obj)
			}
			emit(ProgressEvent{Kind: ProgressBackendStarted, Backend: fname,
				Objective: sh.Objective()})
			fstart := time.Now()
			// Seed is Options.Seed alone (not a per-backend mix) so the
			// finisher walks the same trajectory a standalone run of the
			// same searcher with the same seed would. No Incumbent hook:
			// the finisher restarts from the initial order on purpose
			// (see above) and must not re-adopt the race's incumbent.
			fout := fb.Solve(parent, backend.Request{
				Compiled:    c,
				Constraints: cs,
				Budget:      rem,
				StepLimit:   opt.StepLimit,
				Seed:        opt.Seed,
				Initial:     initial,
				Params:      opt.Params,
				Publish:     publish,
			})
			if fout.Order != nil {
				publish(fout.Order, fout.Objective)
			}
			fbr.Objective = fout.Objective
			fbr.Iterations = fout.Iterations
			fbr.Counters = fout.Counters
			fbr.Wall = time.Since(fstart)
			results = append(results, fbr)
			emit(ProgressEvent{Kind: ProgressBackendDone, Backend: fname,
				Objective: fbr.Objective, Iterations: fbr.Iterations, Wall: fbr.Wall})
		}
	}

	order, obj, winner := sh.Best()
	return Result{
		Order:     order,
		Objective: obj,
		Winner:    winner,
		Proved:    proved.Load(),
		Backends:  results,
	}, nil
}
