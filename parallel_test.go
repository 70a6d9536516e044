package depint

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/ledger"
	"repro/internal/scengen"
	"repro/internal/testutil"
)

// TestRaceStrategiesProperty: the portfolio race must return a result some
// serial chain member would also have produced — no invented placements.
// Whoever wins, rerunning that strategy alone serially must reproduce the
// winner's assignment, trace, and report exactly.
func TestRaceStrategiesProperty(t *testing.T) {
	chain := []Strategy{H1, H2, H3, Criticality}
	for round := 0; round < 5; round++ {
		res, err := Integrate(PaperExample(),
			WithStrategy(chain[0]), WithFallback(chain[1:]...), WithRaceStrategies())
		if err != nil {
			t.Fatalf("round %d: race failed: %v", round, err)
		}
		found := false
		for _, s := range chain {
			if res.Strategy == s {
				found = true
			}
		}
		if !found {
			t.Fatalf("round %d: winner %v is not a chain member", round, res.Strategy)
		}
		serial, err := Integrate(PaperExample(), WithStrategy(res.Strategy))
		if err != nil {
			t.Fatalf("round %d: serial rerun of winner %v failed: %v", round, res.Strategy, err)
		}
		if !reflect.DeepEqual(res.Assignment, serial.Assignment) {
			t.Errorf("round %d: race assignment differs from serial %v run", round, res.Strategy)
		}
		if !reflect.DeepEqual(res.Trace, serial.Trace) {
			t.Errorf("round %d: race trace differs from serial %v run", round, res.Strategy)
		}
		if !reflect.DeepEqual(res.Report, serial.Report) {
			t.Errorf("round %d: race report differs from serial %v run", round, res.Strategy)
		}
	}
}

// TestRaceStrategiesRecordsLosers: every non-winning contender appears in
// Degradations, in chain order, reason distinguishing genuine failures
// from mere race losses.
func TestRaceStrategiesRecordsLosers(t *testing.T) {
	chain := []Strategy{H1, H2, H3}
	res, err := Integrate(PaperExample(),
		WithStrategy(chain[0]), WithFallback(chain[1:]...), WithRaceStrategies())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) != len(chain)-1 {
		t.Fatalf("Degradations = %d entries, want %d: %v",
			len(res.Degradations), len(chain)-1, res.Degradations)
	}
	losers := map[Strategy]bool{}
	prevIdx := -1
	for _, d := range res.Degradations {
		if d.Strategy == res.Strategy {
			t.Errorf("winner %v recorded as degradation", d.Strategy)
		}
		losers[d.Strategy] = true
		idx := -1
		for i, s := range chain {
			if s == d.Strategy {
				idx = i
			}
		}
		if idx <= prevIdx {
			t.Errorf("degradations out of chain order: %v", res.Degradations)
		}
		prevIdx = idx
	}
	if len(losers) != len(chain)-1 {
		t.Errorf("loser set = %v, want the %d non-winners", losers, len(chain)-1)
	}
}

// TestRaceStrategiesFailedContenderKeepsReason: a contender that breaks on
// its own (bogus strategy) must surface its real failure, not a race loss.
// The winner is SeparationGuided — slower than the bogus contender's fast
// failure — and GOMAXPROCS is raised to 2 so both contenders truly run
// concurrently even on a single-CPU runner (otherwise the scheduler may
// park the bogus goroutine until the winner has already cancelled the
// race, which legitimately turns its failure into a race loss).
func TestRaceStrategiesFailedContenderKeepsReason(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sys, err := experiments.Synthesize(experiments.SynthConfig{
		Processes: 48, EdgesPerNode: 2.5, ReplicatedFraction: 0.25,
		Seed: 4242, HWNodes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	bogus := Strategy(42)
	res, err := Integrate(sys,
		WithStrategy(bogus), WithFallback(SeparationGuided), WithRaceStrategies())
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != SeparationGuided {
		t.Fatalf("Strategy = %v, want SeparationGuided", res.Strategy)
	}
	if len(res.Degradations) != 1 {
		t.Fatalf("Degradations = %v, want exactly one", res.Degradations)
	}
	d := res.Degradations[0]
	if d.Strategy != bogus {
		t.Errorf("degraded strategy = %v, want %v", d.Strategy, bogus)
	}
	if !strings.Contains(d.Reason, "unknown strategy") {
		t.Errorf("reason %q does not carry the contender's own failure", d.Reason)
	}
}

// TestRaceStrategiesExhausted: when every contender fails on its own
// merits the race mirrors serial exhaustion — ErrFallbackExhausted inside
// a StageError naming the last chain member.
func TestRaceStrategiesExhausted(t *testing.T) {
	res, err := Integrate(PaperExample(),
		WithStrategy(Strategy(42)), WithFallback(Strategy(43)), WithRaceStrategies())
	if res != nil {
		t.Error("exhausted race returned a result")
	}
	if !errors.Is(err, ErrFallbackExhausted) {
		t.Fatalf("err = %v, want wrapping ErrFallbackExhausted", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *StageError", err)
	}
	if se.Rule != Strategy(43).String() {
		t.Errorf("Rule = %q, want the last chain member", se.Rule)
	}
}

// TestRaceStrategiesCancelledRun: a dead parent context aborts the whole
// race — classified cancellation, never exhaustion.
func TestRaceStrategiesCancelledRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := IntegrateContext(ctx, PaperExample(),
		WithStrategy(H2), WithFallback(H1, H3), WithRaceStrategies())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping context.Canceled", err)
	}
	if errors.Is(err, ErrFallbackExhausted) {
		t.Error("race cancellation was treated as chain exhaustion")
	}
}

// TestRaceStrategiesCancelStress cancels IntegrateContext mid-race from a
// competing goroutine at staggered points. Run under -race (make check
// does) this is the torture test for the contenders' shared telemetry and
// cancellation paths: whatever the timing, the pipeline returns either a
// complete result or a classified cancellation — never a partial result,
// a panic, or a data race.
func TestRaceStrategiesCancelStress(t *testing.T) {
	delays := []time.Duration{0, 10 * time.Microsecond, 100 * time.Microsecond,
		500 * time.Microsecond, 2 * time.Millisecond, 10 * time.Millisecond}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, d := range delays {
			ctx, cancel := context.WithCancel(context.Background())
			wg.Add(1)
			go func(d time.Duration) {
				defer wg.Done()
				time.Sleep(d)
				cancel()
			}(d)
			res, err := IntegrateContext(ctx, PaperExample(),
				WithStrategy(SeparationGuided), WithFallback(H1, H2, H3),
				WithRaceStrategies(), WithWorkers(4))
			switch {
			case err == nil:
				if res == nil || res.Assignment == nil || res.Condensed == nil {
					t.Fatal("success with incomplete result")
				}
			case errors.Is(err, context.Canceled):
				if res != nil {
					t.Fatal("cancelled race returned a partial result")
				}
			default:
				t.Fatalf("unexpected failure class: %v", err)
			}
			cancel()
		}
	}
	wg.Wait()
}

// TestWithWorkersBitIdentical: the worker pool behind the influence stage
// must not change a single bit of the pipeline output.
func TestWithWorkersBitIdentical(t *testing.T) {
	want, err := Integrate(PaperExample(), WithStrategy(SeparationGuided), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, err := Integrate(PaperExample(), WithStrategy(SeparationGuided), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Separation, want.Separation) {
			t.Errorf("workers=%d separation matrix differs", workers)
		}
		if !reflect.DeepEqual(got.Assignment, want.Assignment) {
			t.Errorf("workers=%d assignment differs", workers)
		}
		if !reflect.DeepEqual(got.Report, want.Report) {
			t.Errorf("workers=%d report differs", workers)
		}
	}
}

// TestRaceExhaustionDegradeRecordsMatchSerial: race exhaustion records
// its degradations through the same recorder as the serial chain, so for
// the same failing chain both ledgers carry equal degrade records, each
// naming the strategy that took over.
func TestRaceExhaustionDegradeRecordsMatchSerial(t *testing.T) {
	degrades := func(race bool) []ledger.Record {
		led := NewLedger("test")
		opts := []Option{WithLedger(led), WithStrategy(Strategy(42)), WithFallback(Strategy(43))}
		if race {
			opts = append(opts, WithRaceStrategies())
		}
		if _, err := Integrate(PaperExample(), opts...); !errors.Is(err, ErrFallbackExhausted) {
			t.Fatalf("race=%v: err = %v, want ErrFallbackExhausted", race, err)
		}
		var out []ledger.Record
		for _, r := range led.Records() {
			if r.Kind == ledger.KindDegrade {
				out = append(out, r)
			}
		}
		return out
	}
	serial, race := degrades(false), degrades(true)
	if len(serial) != 1 || serial[0].Result != Strategy(43).String() {
		t.Fatalf("serial degrade records = %+v, want one naming %s as the successor", serial, Strategy(43))
	}
	if !reflect.DeepEqual(race, serial) {
		t.Errorf("race exhaustion degrade records %+v differ from serial %+v", race, serial)
	}
}

// separationSystems returns the four built-in systems and a 60-process
// scenario of each generator family.
func separationSystems(t *testing.T) []*System {
	t.Helper()
	systems := []*System{PaperExample(), FlightControl(), BrakeByWire(), IndustrialControl()}
	for _, fam := range scengen.Families() {
		sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: 60, Seed: 1998})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sc.System)
	}
	return systems
}

// TestSeparationBackgroundMatchesSerial: at the default width, and at a
// width that puts the influence stage's sweep on a background goroutine
// on any machine, Result.Separation must equal the fully serial run's.
func TestSeparationBackgroundMatchesSerial(t *testing.T) {
	for _, sys := range separationSystems(t) {
		want, err := Integrate(sys, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		for _, opts := range [][]Option{nil, {WithWorkers(3)}} {
			got, err := Integrate(sys, opts...)
			if err != nil {
				t.Fatalf("%s: %v", sys.Name, err)
			}
			if !reflect.DeepEqual(got.Separation, want.Separation) ||
				!reflect.DeepEqual(got.SeparationIndex, want.SeparationIndex) {
				t.Errorf("%s (%d options): separation differs from WithWorkers(1)", sys.Name, len(opts))
			}
		}
	}
}

// TestDeadlinesAcrossCallJoinSweep spreads run deadlines over the whole
// length of a call, with the influence stage's sweep in the background,
// under H1, SeparationGuided, a fallback chain and a strategy race. Each
// run must return a complete result or a *StageError wrapping the
// deadline, and leave no goroutine behind; under -race this is also the
// data-race probe of the sweep against stages 3–5.
func TestDeadlinesAcrossCallJoinSweep(t *testing.T) {
	testutil.CheckGoroutines(t)
	sc, err := scengen.Generate(scengen.Config{Family: scengen.Mesh, Processes: 60, Seed: 1998})
	if err != nil {
		t.Fatal(err)
	}
	sys := sc.System
	for name, opts := range map[string][]Option{
		"H1":               {WithStrategy(H1)},
		"SeparationGuided": {WithStrategy(SeparationGuided)},
		"fallback":         {WithStrategy(H2), WithFallback(H1, Criticality)},
		"race":             {WithStrategy(SeparationGuided), WithFallback(H1, H2), WithRaceStrategies()},
	} {
		opts = append(opts, WithWorkers(2))
		start := time.Now()
		if _, err := Integrate(sys, opts...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		call := time.Since(start)
		const steps = 16
		for i := 0; i <= steps+1; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), call*time.Duration(i)/steps)
			res, err := IntegrateContext(ctx, sys, opts...)
			cancel()
			var se *StageError
			switch {
			case err == nil:
				if res == nil || res.Separation == nil || res.Condensed == nil || res.Assignment == nil {
					t.Fatalf("%s, deadline %d/%d: success with an incomplete result", name, i, steps)
				}
			case !errors.As(err, &se) || !errors.Is(err, context.DeadlineExceeded):
				t.Fatalf("%s, deadline %d/%d: err = %v, want a *StageError wrapping the deadline", name, i, steps, err)
			case res != nil:
				t.Fatalf("%s, deadline %d/%d: failed run returned a result", name, i, steps)
			}
		}
	}
}
