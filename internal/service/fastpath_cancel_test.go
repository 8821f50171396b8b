package service

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

// blockN is the only instance size blockingProver applies to; no other
// test in this package solves an instance of that size.
const blockN = 9

// blockingProver is a test-only exact prover ranked ahead of astar at
// n = blockN, so the router picks it. It never proves: it signals that
// it started, then blocks until its context ends.
type blockingProver struct{}

var (
	blockStarted = make(chan struct{}, 8)
	blockCalls   atomic.Int64
)

func init() { backend.Register(blockingProver{}) }

func (blockingProver) Info() backend.Info {
	return backend.Info{
		Name: "zblock", Kind: backend.KindExact, Rank: 39, Proves: true,
		Summary:    "test-only exact prover that blocks until its context ends",
		Applicable: func(c *model.Compiled) bool { return c.N == blockN },
	}
}

func (blockingProver) Solve(ctx context.Context, _ backend.Request) backend.Outcome {
	blockCalls.Add(1)
	blockStarted <- struct{}{}
	<-ctx.Done()
	return backend.Outcome{Objective: math.Inf(1), Err: ctx.Err()}
}

// TestCancelledRoutedSolveDoesNotFallBack: a job cancelled while its
// routed solve runs keeps the routed incumbent. It must not count as a
// fast-path fallback, and no race may start on the dead context.
func TestCancelledRoutedSolveDoesNotFallBack(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	in := datasets.ReducedTPCH(blockN, datasets.Low)
	if got := backend.ExactProvers(model.MustCompile(in)); len(got) == 0 || got[0] != "zblock" {
		t.Fatalf("ExactProvers(n=%d) = %v, want zblock first", blockN, got)
	}
	calls := blockCalls.Load()
	j, err := m.Submit(in, Params{Budget: Duration(30 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-blockStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("routed solve never reached the blocking prover")
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Metrics().Running != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker still busy after the cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap := m.Metrics()
	if snap.FastPath.Fallback != 0 {
		t.Errorf("fastpath fallback = %d after a cancelled routed solve, want 0", snap.FastPath.Fallback)
	}
	if snap.FastPath.Routed != 0 {
		t.Errorf("fastpath routed = %d for an unproved solve, want 0", snap.FastPath.Routed)
	}
	if n := blockCalls.Load() - calls; n != 1 {
		t.Errorf("blocking prover ran %d times, want once (the race must not start it)", n)
	}
}
