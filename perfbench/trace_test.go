package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 3, Parent: 0, Name: "a", Start: 60, End: 70},
		{ID: 4, Parent: 0, Name: "late", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "c", Start: 25, End: 35},
		{ID: 6, Parent: 0, Name: "open", Start: 95, End: -1}, // never closed
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"request": 100 - (40 + 10 + 10), // [10,50) ∪ [60,70) ∪ [90,100)
		"a":       20 + 10,
		"b":       30 - 10,
		"c":       10,
		"late":    30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Errorf("an unclosed span got a self time")
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var r *recorder
	ran := false
	r.timed("x", -1, 0, func() { ran = true })
	if !ran || r.snapshot() != nil {
		t.Fatalf("nil recorder: ran=%v spans=%v", ran, r.snapshot())
	}
	rec := newRecorder()
	root := rec.begin("request", -1, 7)
	rec.timed("child", root, 7, func() {})
	rec.end(root)
	s := rec.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Req != 7 || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}
