// Package astar implements the A* exact search the paper discusses as a
// branch-and-bound alternative (§1, §3.3): best-first search over prefix
// states. A state is the *set* of deployed indexes — the objective of any
// completion depends on the prefix only through its set, so states are
// deduplicated by set with the best-known prefix objective (g). The
// heuristic h is the same admissible completion bound used by CP and
// bruteforce, so the first goal expansion is optimal.
//
// The search runs on a parent-pointer arena: every pushed state is one
// fixed-size record naming its parent and the index it added, so a
// prefix is never copied; it is rebuilt from the parent links only when
// its state is expanded. Memory grows with the number of pushed states
// (bounded by the reachable subsets, up to 2^n), which is precisely why
// the paper dismisses A* for larger instances; MaxN caps n at 24.
package astar

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

// MaxN is the largest instance A* accepts (2^24 subsets already strains
// memory).
const MaxN = 24

// Options bounds the search.
type Options struct {
	// NodeLimit aborts after expanding this many states (0 = unlimited).
	NodeLimit int64
	// Context, when non-nil, aborts the search when cancelled (checked
	// every 256 expansions).
	Context context.Context
	// ExternalBound, when non-nil, is polled for the best objective known
	// outside this search (the portfolio's shared incumbent). Because the
	// open list is ordered by an admissible f, the whole search stops —
	// with Proved=true and a nil Order — as soon as the head of the queue
	// can no longer beat the external incumbent: the incumbent is then
	// proved optimal even though A* never reconstructed it.
	ExternalBound func() float64
	// OnSolution, when non-nil, is invoked with the optimal order when
	// the goal state is expanded (portfolio incumbent publishing).
	OnSolution func(order []int, objective float64)
}

// Result reports the search outcome.
type Result struct {
	Order     []int
	Objective float64
	// Proved is true when the search space was exhausted: either Order is
	// the proved optimum, or Order is nil and no order beating
	// Options.ExternalBound exists (the external incumbent is optimal).
	Proved bool
	// Expanded counts expanded states; States counts distinct subsets
	// seen; Pushed counts states entered into the open list (arena
	// records). ArenaBytes is the capacity of the search's arena, open
	// list and subset table in bytes — the search's memory footprint,
	// deterministic for a given instance and stopping point.
	Expanded, States, Pushed, ArenaBytes int64
}

// Counters returns the search-effort telemetry under the stable
// snake_case keys the portfolio and the service surface.
func (r Result) Counters() map[string]int64 {
	return map[string]int64{
		"expanded":    r.Expanded,
		"states":      r.States,
		"pushed":      r.Pushed,
		"arena_bytes": r.ArenaBytes,
	}
}

// node is one pushed state: its subset, the exact objective of the
// prefix that reached it, and the link that rebuilds that prefix.
type node struct {
	mask   uint64
	g      float64
	parent int32 // arena id of the predecessor state (-1 for the root)
	last   int8  // index deployed on the step from parent
}

// entry is one open-list item: f = g + h of arena node id.
type entry struct {
	f  float64
	id int32
}

// openList is a binary min-heap on f. push and pop repeat
// container/heap's up and down step for step, so equal-f entries leave
// the heap in the order container/heap would give them — the expansion
// sequence, and with it Expanded and the returned order, is the one the
// search has always had.
type openList []entry

func (h *openList) push(e entry) {
	*h = grow(*h)
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].f < s[i].f) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *openList) pop() entry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].f < s[j1].f {
			j = j2
		}
		if !(s[j].f < s[i].f) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// slot is one gTable cell; key is mask+1 so the zero value marks an
// empty cell (mask 0, the root, is a real key).
type slot struct {
	key uint64
	g   float64
}

// gTable maps a subset to the best prefix objective seen for it, by
// open addressing with linear probing on a power-of-two table kept at
// most half full.
type gTable struct {
	slots []slot
	shift uint // 64 - log2(len(slots))
	n     int
}

func newGTable() gTable {
	const bitsInit = 10
	return gTable{slots: make([]slot, 1<<bitsInit), shift: 64 - bitsInit}
}

// find returns the cell holding mask, or the empty cell where it
// belongs.
func (t *gTable) find(mask uint64) *slot {
	key := mask + 1
	m := uint64(len(t.slots) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & m {
		if s := &t.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// get returns the best g recorded for mask (every queued state's mask
// is recorded).
func (t *gTable) get(mask uint64) float64 { return t.find(mask).g }

// improve records g for mask when mask is new or g beats the recorded
// value by more than the search's epsilon, and reports whether it did.
// It doubles the table first when an insert would fill it past half.
func (t *gTable) improve(mask uint64, g float64) bool {
	s := t.find(mask)
	if s.key != 0 {
		if !(g < s.g-1e-12) {
			return false
		}
		s.g = g
		return true
	}
	if 2*(t.n+1) > len(t.slots) {
		t.rehash()
		s = t.find(mask)
	}
	*s = slot{key: mask + 1, g: g}
	t.n++
	return true
}

func (t *gTable) rehash() {
	old := t.slots
	t.slots = make([]slot, 2*len(old))
	t.shift--
	for _, s := range old {
		if s.key != 0 {
			*t.find(s.key - 1) = s
		}
	}
}

// grow returns s with room for one more element, doubling the capacity
// when it is full: the search allocates once per doubling, never per
// state.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	out := make([]T, len(s), 2*cap(s)+16)
	copy(out, s)
	return out
}

// Solve runs A*. cs may be nil. The error is non-nil only when the
// instance exceeds MaxN.
func Solve(c *model.Compiled, cs *constraint.Set, opt Options) (Result, error) {
	if c.N > MaxN {
		return Result{}, fmt.Errorf("astar: %d indexes exceeds MaxN=%d", c.N, MaxN)
	}
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	lb := bruteforce.NewLowerBound(c)

	// Precompute predecessor masks for readiness checks.
	predMask := make([]uint64, c.N)
	for i := 0; i < c.N; i++ {
		cs.Predecessors(i).ForEach(func(p int) bool {
			predMask[i] |= 1 << uint(p)
			return true
		})
	}

	w := model.NewWalker(c)
	goal := uint64(1)<<uint(c.N) - 1
	gBest := newGTable()
	gBest.improve(0, 0)
	arena := []node{{mask: 0, g: 0, parent: -1}}
	open := openList{{f: 0, id: 0}}
	prefix := make([]int, c.N)

	var res Result
	res.Objective = math.Inf(1)
	// finish stamps the memory and state telemetry on every exit.
	finish := func() (Result, error) {
		res.States = int64(gBest.n)
		res.Pushed = int64(len(arena))
		res.ArenaBytes = int64(cap(arena))*int64(unsafe.Sizeof(node{})) +
			int64(cap(open))*int64(unsafe.Sizeof(entry{})) +
			int64(cap(gBest.slots))*int64(unsafe.Sizeof(slot{}))
		return res, nil
	}

	for len(open) > 0 {
		top := open.pop()
		cur := arena[top.id]
		if cur.g > gBest.get(cur.mask)+1e-12 {
			continue // stale entry
		}
		res.Expanded++
		if opt.NodeLimit > 0 && res.Expanded > opt.NodeLimit {
			return finish() // aborted: Proved stays false
		}
		if opt.Context != nil && res.Expanded%256 == 0 {
			select {
			case <-opt.Context.Done():
				return finish() // aborted: Proved stays false
			default:
			}
		}
		if opt.ExternalBound != nil {
			// f is admissible and the queue is ordered by f, so once the
			// head cannot beat the external incumbent, nothing can.
			if e := opt.ExternalBound(); top.f > e+1e-9 {
				break
			}
		}
		// Rebuild the prefix from the parent links, deepest step last.
		depth := bits.OnesCount64(cur.mask)
		for k, id := depth-1, top.id; k >= 0; k-- {
			prefix[k] = int(arena[id].last)
			id = arena[id].parent
		}
		if cur.mask == goal {
			res.Order = append([]int(nil), prefix...)
			res.Objective = cur.g
			res.Proved = true
			if opt.OnSolution != nil {
				opt.OnSolution(append([]int(nil), prefix...), cur.g)
			}
			return finish()
		}
		// Reposition the walker onto this node's prefix: only the tail
		// diverging from the previous expansion is popped/pushed, so
		// neighboring expansions cost the prefix difference instead of a
		// full replay.
		w.Sync(prefix[:depth])
		for free := goal &^ cur.mask; free != 0; free &= free - 1 {
			i := bits.TrailingZeros64(free)
			bit := uint64(1) << uint(i)
			if cur.mask&predMask[i] != predMask[i] {
				continue
			}
			w.Push(i)
			ng := w.Objective()
			nmask := cur.mask | bit
			if gBest.improve(nmask, ng) {
				// h: cheapest remaining best-case cost at current
				// runtime + the rest at the floor runtime. The sum runs
				// in ascending index order, so f is bit-stable.
				var restSum float64
				restMin := math.Inf(1)
				for rest := goal &^ nmask; rest != 0; rest &= rest - 1 {
					mc := lb.MinCost(bits.TrailingZeros64(rest))
					restSum += mc
					if mc < restMin {
						restMin = mc
					}
				}
				h := 0.0
				if !math.IsInf(restMin, 1) {
					h = w.Runtime()*restMin + lb.MinRuntime()*(restSum-restMin)
				}
				arena = grow(arena)
				arena = append(arena, node{mask: nmask, g: ng, parent: top.id, last: int8(i)})
				open.push(entry{f: ng + h, id: int32(len(arena) - 1)})
			}
			w.Pop()
		}
	}
	// Exhausted without reaching the goal: with an external bound this is
	// a proof that the external incumbent cannot be beaten; without one it
	// only happens on contradictory constraints (which Validate rejects).
	res.Proved = opt.ExternalBound != nil
	return finish()
}
