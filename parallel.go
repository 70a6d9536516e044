package depint

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/ledger"
	"repro/internal/mapping"
	"repro/internal/obs"
)

// serialAttempts runs the fallback chain the classic way: one strategy at
// a time, each on its own clone of the replicated graph, recording every
// abandoned strategy as a degradation. It returns nil after the first
// success, or the last attempt's error once the chain is exhausted (or the
// run's context died — the caller distinguishes via ctx.Err()).
func serialAttempts(ctx context.Context, o *options, root *obs.Span, res *Result,
	sys *System, exp *cluster.Expansion, platform *hw.Platform, req mapping.Requirements,
	chain []Strategy) error {

	var lastErr error
	for i, strat := range chain {
		attemptCtx := ctx
		var cancel context.CancelFunc
		if o.attemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, o.attemptTimeout)
		}
		work := exp.Graph
		if len(chain) > 1 {
			work = exp.Graph.Clone()
		}
		err := integrateAttempt(attemptCtx, o, root, res, sys, exp, platform, req, strat, work, i, o.ledger)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			res.Strategy = strat
			return nil
		}
		lastErr = err
		if cerr := ctx.Err(); cerr != nil {
			// The run itself is cancelled or out of time: no fallback. An
			// attempt that failed on its own just before the deadline did
			// not see it; the run still ended on the deadline.
			if !errors.Is(err, cerr) {
				err = stageOfErr("condense", cerr)
			}
			return err
		}
		if i+1 < len(chain) {
			recordDegradation(o, root, res, chain, i, i+1, err, err.Error())
		}
	}
	return lastErr
}

// recordDegradation records the abandoned attempt chain[from], taken over
// by chain[to], identically on every path of the fallback chain: the
// Result.Degradations entry, the degrade ledger record and the "degrade"
// span event.
func recordDegradation(o *options, root *obs.Span, res *Result, chain []Strategy,
	from, to int, err error, reason string) {
	deg := Degradation{Stage: stageOf(err, "condense"), Strategy: chain[from], Reason: reason}
	res.Degradations = append(res.Degradations, deg)
	o.ledger.Append(ledger.Record{
		Kind: ledger.KindDegrade, Stage: deg.Stage, Rule: chain[from].String(),
		Result: chain[to].String(), Detail: reason, Attempt: from + 1,
	})
	root.Event("degrade",
		obs.String("stage", deg.Stage),
		obs.String("from", chain[from].String()),
		obs.String("to", chain[to].String()),
		obs.String("reason", reason))
}

// raceAttempts runs every strategy of the fallback chain concurrently — a
// heuristic portfolio race. Each attempt gets its own clone of the
// replicated graph and its own scratch Result, so the contenders share
// nothing mutable; the first error-free finisher wins, the shared race
// context cancels the rest, and every loser is recorded as a Degradation
// in chain order. The winning stage outputs are exactly what a serial run
// of the winning strategy would have produced.
//
// Returns (lastErr, fatal): fatal is non-nil only when the run's own
// context died (no degradation semantics apply); lastErr is non-nil when
// every contender failed on its own merits, and carries the last chain
// member's error to mirror serial exhaustion.
func raceAttempts(ctx context.Context, o *options, root *obs.Span, res *Result,
	sys *System, exp *cluster.Expansion, platform *hw.Platform, req mapping.Requirements,
	chain []Strategy) (lastErr, fatal error) {

	raceCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	type outcome struct {
		idx     int
		scratch *Result
		led     *ledger.Ledger
		err     error
	}
	results := make(chan outcome, len(chain))
	var wg sync.WaitGroup
	root.Event("race_start", obs.Int("contenders", len(chain)))
	for i, strat := range chain {
		wg.Add(1)
		go func(i int, strat Strategy) {
			defer wg.Done()
			attemptCtx := raceCtx
			var cancel context.CancelFunc
			if o.attemptTimeout > 0 {
				attemptCtx, cancel = context.WithTimeout(raceCtx, o.attemptTimeout)
				defer cancel()
			}
			scratch := &Result{}
			// Contenders record onto private scratch ledgers; only the
			// winner's records are spliced into the run ledger, so the
			// provenance stays deterministic despite the race.
			var scratchLed *ledger.Ledger
			if o.ledger != nil {
				scratchLed = ledger.New(ledger.Header{})
			}
			err := integrateAttempt(attemptCtx, o, root, scratch, sys, exp, platform, req,
				strat, exp.Graph.Clone(), i, scratchLed)
			results <- outcome{idx: i, scratch: scratch, led: scratchLed, err: err}
		}(i, strat)
	}

	// Collect every contender (no goroutine leaks); the first error-free
	// outcome wins and cancels the stragglers.
	outcomes := make([]outcome, len(chain))
	winner := -1
	for range chain {
		oc := <-results
		outcomes[oc.idx] = oc
		if oc.err == nil && winner < 0 && ctx.Err() == nil {
			winner = oc.idx
			cancelAll()
		}
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// The run itself died. Surface a contender's error that wraps the
		// context error, or that error itself: a loser cancelled by a win
		// just before the run's deadline only saw context.Canceled.
		for _, oc := range outcomes {
			if errors.Is(oc.err, err) {
				return nil, oc.err
			}
		}
		return nil, stageOfErr("condense", err)
	}

	if winner < 0 {
		// Exhaustion: every contender failed independently. Mirror the
		// serial chain — degradations for all but the last strategy, the
		// last one's error reported.
		for i, oc := range outcomes[:len(outcomes)-1] {
			recordDegradation(o, root, res, chain, i, i+1, oc.err, oc.err.Error())
		}
		return outcomes[len(outcomes)-1].err, nil
	}

	// Install the winner's stage outputs and record the losers, in chain
	// order, distinguishing genuine failures from race cancellations.
	win := outcomes[winner]
	res.Condensed = win.scratch.Condensed
	res.Trace = win.scratch.Trace
	res.Assignment = win.scratch.Assignment
	res.RefinementMoves = win.scratch.RefinementMoves
	res.Strategy = chain[winner]
	if o.ledger != nil {
		o.ledger.Append(ledger.Record{
			Kind: ledger.KindRace, Stage: "condense", Rule: chain[winner].String(),
			Detail:  fmt.Sprintf("portfolio race, %d contenders", len(chain)),
			Attempt: winner + 1,
		})
		o.ledger.AppendAll(win.led.Records())
	}
	root.Event("race_won",
		obs.String("strategy", chain[winner].String()),
		obs.Int("contenders", len(chain)))
	for i, oc := range outcomes {
		if i == winner {
			continue
		}
		// A contender that failed on its own merits keeps its error; one
		// that was cancelled (or finished too late) just lost the race.
		reason := fmt.Sprintf("lost race to %s", chain[winner])
		if oc.err != nil && !isCancellation(oc.err) {
			reason = oc.err.Error()
		}
		recordDegradation(o, root, res, chain, i, winner, oc.err, reason)
	}
	return nil, nil
}

// isCancellation reports whether err stems from context cancellation or
// deadline expiry — the signature of a contender that lost the race rather
// than failed on its own.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// stageOfErr wraps a bare context error in the stage taxonomy so race
// cancellation surfaces like every other pipeline abort.
func stageOfErr(stageName string, err error) error {
	return &StageError{Stage: stageName, Err: err}
}
