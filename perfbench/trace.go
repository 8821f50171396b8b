package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// id of the enclosing span (-1 for a request's root); every span of one
// replayed request shares Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, at exit.
// A nil recorder records nothing, which is the untraced replay.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: req, Name: name, Start: t, End: -1})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent, req int, f func()) {
	id := r.begin(name, parent, req)
	f()
	r.end(id)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON.
func (r *recorder) write(path string, stamp map[string]any) error {
	data, err := json.Marshal(map[string]any{"stamp": stamp, "spans": r.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each closed span's duration minus the part of its
// interval covered by the union of its closed children.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo,hi) covered by the union of the spans.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	first := true
	for _, x := range iv {
		switch {
		case first:
			curA, curB, first = x[0], x[1], false
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if !first {
		total += curB - curA
	}
	return total
}
