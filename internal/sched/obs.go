package sched

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// instruments caches the oracle's metric handles so the hot path pays one
// atomic pointer load when uninstrumented and no registry lookups when
// instrumented.
type instruments struct {
	calls      *obs.Counter
	feasible   *obs.Counter
	infeasible *obs.Counter
	duration   *obs.Histogram
}

var instr atomic.Pointer[instruments]

// Observe installs feasibility-oracle instrumentation into the given
// registry: call counters (total / feasible / infeasible) and a latency
// histogram. The installation is process-global — the oracle is a pure
// function called from deep inside the condensation loops, so the registry
// travels via this side channel rather than through every call site. Pass
// nil to uninstall. Concurrent Observe calls are safe; the last one wins.
// The returned undo uninstalls this installation unless another has
// replaced it since.
func Observe(reg *obs.Registry) (undo func()) {
	if reg == nil {
		instr.Store(nil)
		return func() {}
	}
	in := &instruments{
		calls:      reg.Counter("sched_feasible_calls_total", "feasibility-oracle invocations"),
		feasible:   reg.Counter("sched_feasible_verdicts_total", "feasible verdicts returned"),
		infeasible: reg.Counter("sched_infeasible_verdicts_total", "infeasible verdicts returned"),
		duration:   reg.Histogram("sched_feasible_seconds", "feasibility-oracle latency", obs.DurationBuckets),
	}
	instr.Store(in)
	return func() { instr.CompareAndSwap(in, nil) }
}

// record books one oracle call. No-op when uninstrumented.
func record(start time.Time, ok bool, observed bool) {
	in := instr.Load()
	if in == nil {
		return
	}
	in.calls.Inc()
	if ok {
		in.feasible.Inc()
	} else {
		in.infeasible.Inc()
	}
	if observed {
		in.duration.ObserveDuration(time.Since(start))
	}
}

// observedNow returns the current time only when instrumentation is
// installed, so the uninstrumented path never calls time.Now.
func observedNow() (time.Time, bool) {
	if instr.Load() == nil {
		return time.Time{}, false
	}
	return time.Now(), true
}
