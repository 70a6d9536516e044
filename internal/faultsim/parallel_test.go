package faultsim

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

// TestParallelBitIdentical is the core determinism contract of the worker
// pool: the Result of a campaign is DeepEqual-identical for every worker
// count, including the float64 CriticalityLoss accumulator.
func TestParallelBitIdentical(t *testing.T) {
	g, hw := web(t)
	base := campaign(g, hw, "")
	base.Workers = 1
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		c := campaign(g, hw, "")
		c.Workers = workers
		got, err := Run(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d result differs from serial:\n got: %+v\nwant: %+v",
				workers, got, want)
		}
	}
}

// TestParallelBitIdenticalWithWeightsAndHops covers the remaining RNG draw
// sites (biased injection sampling, bounded propagation) under sharding.
func TestParallelBitIdenticalWithWeightsAndHops(t *testing.T) {
	g, hw := web(t)
	mk := func(workers int) Campaign {
		c := campaign(g, hw, "")
		c.Workers = workers
		c.MaxHops = 2
		c.OccurrenceWeights = map[string]float64{"a": 3, "b": 0.5, "c": 1, "d": 0}
		return c
	}
	want, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, err := Run(mk(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d biased campaign differs from serial", workers)
		}
	}
}

// TestParallelEarlyStopDeterministic: the early-stopping decision happens
// at merge points whose sequence is worker-count-independent, so the
// stopping frontier — and the stopped Result — must match serial exactly.
func TestParallelEarlyStopDeterministic(t *testing.T) {
	g, hw := web(t)
	mk := func(workers int) Campaign {
		c := campaign(g, hw, "")
		c.Trials = 100000
		c.StopHalfWidth = 0.02
		c.CheckpointEvery = 100
		c.CheckpointPath = ""
		c.Workers = workers
		return c
	}
	want, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if !want.EarlyStopped {
		t.Fatal("serial reference did not stop early")
	}
	for _, workers := range []int{2, 4, 7} {
		got, err := Run(mk(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d early-stopped result differs from serial (stopped at %d vs %d)",
				workers, got.Trials, want.Trials)
		}
	}
}

// TestParallelKillAndResume: a campaign killed mid-flight under parallel
// workers, then resumed — under a different worker count again — must
// reproduce the uninterrupted serial run bit for bit.
func TestParallelKillAndResume(t *testing.T) {
	g, hw := web(t)

	ref := campaign(g, hw, "")
	ref.Workers = 1
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4, 7} {
		path := filepath.Join(t.TempDir(), "campaign.ckpt")
		killed := campaign(g, hw, path)
		killed.Workers = workers
		killed.Ctx = newCancelAfter(killed.Trials / 2)
		if _, err := Run(killed); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d interrupted run err = %v, want context.Canceled", workers, err)
		}

		resumed := campaign(g, hw, path)
		resumed.Workers = 7 - workers + 2 // resume under a different pool size
		resumed.Resume = true
		got, err := Run(resumed)
		if err != nil {
			t.Fatalf("workers=%d resume: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d kill-and-resume differs from uninterrupted serial run", workers)
		}
	}
}

// TestParallelResumeExtends: extending a finished campaign's trial count
// on resume must match a fresh full-length run even when the original
// length was not chunk-aligned, for any worker count.
func TestParallelResumeExtends(t *testing.T) {
	g, hw := web(t)
	ref := campaign(g, hw, "")
	ref.Trials = 1500
	ref.Workers = 1
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		path := filepath.Join(t.TempDir(), "campaign.ckpt")
		short := campaign(g, hw, path)
		short.Trials = 600 // not a multiple of the chunk size
		short.Workers = workers
		if _, err := Run(short); err != nil {
			t.Fatal(err)
		}
		long := campaign(g, hw, path)
		long.Trials = 1500
		long.Workers = workers
		long.Resume = true
		got, err := Run(long)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d extended resume differs from fresh serial run", workers)
		}
	}
}

// TestParallelCancelledBeforeStart: a dead context aborts before any pool
// machinery spins up, for parallel worker counts too.
func TestParallelCancelledBeforeStart(t *testing.T) {
	g, hw := web(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := campaign(g, hw, "")
	c.Workers = 4
	c.Ctx = ctx
	if _, err := Run(c); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
