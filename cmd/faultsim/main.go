// Command faultsim runs seeded Monte-Carlo fault-injection campaigns over
// an integrated system, comparing the containment achieved by the
// condensation strategies.
//
// Usage:
//
//	faultsim [-spec system.json] [-trials N] [-seed S] [-timeout 2m]
//	         [-fault-model single|correlated|burst|transient] [-burst K]
//	         [-persist P] [-search N] [-strategy name]
//	         [-checkpoint path] [-checkpoint-every N] [-resume] [-resume-strict]
//	         [-workers N]
//	         [-serve addr | -connect addr] [-worker-name id] [-lease-ttl 5s]
//	         [-tls-cert cert.pem] [-tls-key key.pem] [-tls-ca ca.pem]
//	         [-auth-token secret] [-spot-check 0.05]
//	         [-trace out.json] [-log-level info] [-metrics-addr :9090]
//	         [-watch] [-ledger run.jsonl] [-flight-record dir/]
//
// -strategy restricts the run to one condensation strategy by name (for
// example "H1" or "criticality"); by default every strategy runs.
//
// -serve and -connect distribute a single-strategy campaign over TCP.
// The coordinator (`faultsim -serve :7000 -strategy H1`) shards the trial
// grid into lease-bound chunks across every connected worker, reassigns
// chunks whose leases expire, and merges results in grid order — the
// merged result is bit-identical to a local run at any worker count.
// Workers (`faultsim -connect host:7000 -strategy H1`) launched with the
// same spec/trials/seed/model flags are cross-checked by fingerprint;
// workers launched with no -strategy at all are flagless — they adopt the
// campaign spec the coordinator ships and verify it against its claimed
// fingerprint before computing. -checkpoint composes with -serve (the
// coordinator persists its merge frontier and resumes crash-safe);
// workers hold no durable state. See docs/fabric/protocol.md.
//
// The fabric hardens against untrusted networks and workers:
// -tls-cert/-tls-key/-tls-ca wrap every connection in TLS 1.3 (the
// coordinator requires and verifies client certificates when -tls-ca is
// given; workers verify the coordinator likewise); -auth-token adds an
// HMAC challenge-response on top, and no campaign material crosses the
// wire to a peer that has not proven possession of the token.
// -spot-check makes the coordinator deterministically re-compute that
// fraction of worker-returned chunks locally; a worker whose bytes
// diverge is quarantined (its name barred, its chunks recomputed), and if
// every worker is quarantined the coordinator degrades to pure-local
// execution — the merged result is bit-identical throughout.
//
// -serve -search N shards the adversarial search itself over the fabric:
// one long-lived worker set evaluates every candidate scenario's campaign
// (workers must be flagless, since each evaluation is a different
// campaign), and the SearchResult is bit-identical to the local -search.
//
// -resume-strict (default true) fails a resume on a truncated or corrupt
// checkpoint/journal with a typed diagnosis naming the file and offset;
// -resume-strict=false logs the damage and restarts that campaign from
// zero instead.
//
// -ledger writes a decision-provenance ledger covering every strategy's
// integration (merges, placements) plus one campaign-summary record per
// strategy and, with -search, the adversarial evaluation log — diffable
// across runs with the ledgerdiff tool.
//
// -fault-model selects how each trial's initial fault set is drawn:
// "single" (the paper's model, default), "correlated" (every FCM on one
// HW node faults together), "burst" (-burst simultaneous faults) or
// "transient" (faults recover with probability 1 - -persist before
// propagating). -search N additionally hill-climbs over adversarial
// scenarios (seed node × model × burst size, at most N evaluations of
// -trials trials each) and reports the worst-case criticality-weighted
// escape rate per strategy.
//
// With telemetry enabled each strategy's campaign records a span with
// checkpoint events every 10% of trials (running escape-rate estimates)
// and feeds trial counters into the metrics registry.
//
// -watch streams live NDJSON progress events (campaign checkpoints with
// CI half-widths, search evaluations, stage transitions) to stderr.
// Combined with -metrics-addr the stream is served over HTTP instead:
// /events (NDJSON/SSE with replay), /progress (JSON snapshot) and a live
// /dashboard alongside the usual /metrics.
//
// With any telemetry consumer active, a -serve coordinator federates
// observability across the fabric: grant frames carry the run's trace
// context, workers relay per-chunk phase spans and liveness events back
// on the frames they were sending anyway, and the coordinator rebases
// remote timestamps onto its own clock (RTT-midpoint estimation),
// attributes chunk latency per worker and flags stragglers. The merged
// multi-process timeline lands in -trace Chrome-trace output and the
// /dashboard fabric board. See docs/observability/federation.md.
//
// -flight-record dir/ writes a self-contained post-mortem bundle at
// exit: the trace (local + relayed remote spans), the merged Chrome
// trace, metrics and progress snapshots, a bounded event tail, build
// identity, and the decision ledger when -ledger is active.
//
// -workers shards each campaign's trials across a worker pool (default
// GOMAXPROCS). Campaign results — and checkpoints — are bit-identical at
// every worker count, so -workers composes freely with -resume.
//
// With -checkpoint the per-strategy campaign state (RNG position and
// running counters) is persisted atomically to <path>.<strategy> as the
// campaign runs, and on SIGINT/SIGTERM or -timeout expiry; rerunning with
// -resume continues each campaign from its checkpoint and produces results
// bit-identical to an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/fabric"
	"repro/internal/faultsim"
	"repro/internal/obs"
	"repro/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "faultsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	specPath := fs.String("spec", "", "path to a system specification JSON (default: paper example)")
	trials := fs.Int("trials", 50000, "injection trials per strategy")
	seed := fs.Uint64("seed", 7, "campaign seed")
	comm := fs.Float64("comm", 0, "fraction of trials injecting communication faults (0..1)")
	modelName := fs.String("fault-model", "single", "fault model: single, correlated, burst or transient")
	burst := fs.Int("burst", 2, "simultaneous initial faults for -fault-model burst")
	persist := fs.Float64("persist", 0.5, "probability a fault is permanent for -fault-model transient")
	search := fs.Int("search", 0, "run an adversarial scenario search with at most N evaluations (0 = off)")
	ckpt := fs.String("checkpoint", "", "persist campaign state to <path>.<strategy> for crash-safe resume")
	ckptEvery := fs.Int("checkpoint-every", 0, "trials between checkpoint writes (default trials/10)")
	resume := fs.Bool("resume", false, "resume campaigns from their -checkpoint files when present")
	resumeStrict := fs.Bool("resume-strict", true, "fail on a corrupt checkpoint/journal instead of restarting from zero")
	strategyName := fs.String("strategy", "", "run only the named condensation strategy (required by -serve/-connect)")
	serveAddr := fs.String("serve", "", "coordinate a distributed campaign: listen on addr for -connect workers")
	connectAddr := fs.String("connect", "", "join a distributed campaign: dial the coordinator at addr")
	workerName := fs.String("worker-name", "", "worker identity reported to the coordinator (with -connect)")
	leaseTTL := fs.Duration("lease-ttl", 0, "coordinator lease TTL before an unacknowledged chunk is reassigned (default 5s)")
	tlsCert := fs.String("tls-cert", "", "PEM certificate presented to fabric peers (requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "PEM private key for -tls-cert")
	tlsCA := fs.String("tls-ca", "", "PEM CA bundle: the coordinator requires and verifies client certificates against it; workers verify the coordinator against it")
	authToken := fs.String("auth-token", "", "shared fabric secret: peers prove possession via an HMAC challenge-response before any campaign material crosses the wire")
	spotCheck := fs.Float64("spot-check", 0.05, "fraction of fabric chunks the coordinator recomputes locally to catch lying workers (0 disables, with -serve)")
	workers := cli.RegisterWorkers(fs)
	timeout := cli.RegisterTimeout(fs)
	obsFlags := cli.RegisterObsFlags(fs, os.Stderr)
	ledFlag := cli.RegisterLedger(fs, "faultsim")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *ckpt == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	strategies := []depint.Strategy{
		depint.H1, depint.H1PairAll, depint.H2, depint.H3,
		depint.Criticality, depint.TimingOrder,
	}
	if *strategyName != "" {
		s, err := strategyByName(*strategyName)
		if err != nil {
			return err
		}
		strategies = []depint.Strategy{s}
	}
	if *serveAddr != "" && *connectAddr != "" {
		return fmt.Errorf("-serve and -connect are mutually exclusive")
	}
	// The fabric shards exactly one campaign (or one search) at a time,
	// so the coordinator needs a single named strategy. Workers do not:
	// -connect without -strategy joins as a flagless worker that
	// self-configures from the spec the coordinator ships.
	if *serveAddr != "" && *strategyName == "" {
		return fmt.Errorf("-serve requires -strategy (one campaign per fabric)")
	}
	if *connectAddr != "" && *search > 0 {
		return fmt.Errorf("-search is coordinator-side; workers just compute the leases they are granted")
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		return fmt.Errorf("-tls-cert and -tls-key must be set together")
	}
	if *connectAddr != "" && *ckpt != "" {
		return fmt.Errorf("-checkpoint is coordinator state; workers hold none")
	}
	model, err := faultsim.ModelByName(*modelName, *burst, *persist)
	if err != nil {
		return err
	}
	ctx, stop := cli.RunContext(*timeout)
	defer stop()
	observer, err := obsFlags.Observer()
	if err != nil {
		return err
	}
	obsFlags.WatchContext(ctx)
	// Flush telemetry at exit; a failed trace write must fail the run.
	defer func() {
		if ferr := obsFlags.Finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	// One ledger spans all strategies: each strategy's integration and
	// campaign records ride along with its strategy name in Rule/Detail.
	led := ledFlag.Ledger()
	defer func() {
		if ferr := ledFlag.Finish(os.Stderr); ferr != nil && err == nil {
			err = ferr
		}
	}()
	// The ledger lands in the flight bundle too: its Finish (deferred
	// later, so run first) writes the file before the bundle copies it.
	obsFlags.FlightFile("ledger.jsonl", ledFlag.Path())

	sys := depint.PaperExample()
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sys, err = spec.Decode(f)
		if err != nil {
			return err
		}
	}

	// fabricListen/fabricDial pick the transport: plain TCP, or TLS when
	// cert material is supplied (the trust-domain-crossing deployment).
	fabricListen := func(addr string) (fabric.Listener, error) {
		if *tlsCert != "" {
			return fabric.ListenTLS(addr, *tlsCert, *tlsKey, *tlsCA)
		}
		return fabric.ListenTCP(addr)
	}
	fabricDial := func(addr string) (fabric.Dialer, error) {
		if *tlsCert != "" || *tlsCA != "" {
			return fabric.DialTLS(addr, *tlsCert, *tlsKey, *tlsCA)
		}
		return fabric.DialTCP(addr), nil
	}

	// Worker mode: compute leased chunks until the fabric completes or
	// drains. No table: results live at the coordinator. With -strategy
	// the worker integrates the same system the coordinator did and the
	// handshake cross-checks campaign fingerprints; without it the worker
	// is flagless — it adopts the spec the coordinator ships (after
	// verifying it against its claimed fingerprint).
	if *connectAddr != "" {
		dial, err := fabricDial(*connectAddr)
		if err != nil {
			return err
		}
		wcfg := fabric.WorkerConfig{
			Dial:      dial,
			Name:      *workerName,
			Bus:       obsFlags.Bus(),
			AuthToken: *authToken,
		}
		if *strategyName == "" {
			fmt.Fprintf(stdout, "fabric worker: joining %s flagless (campaign spec ships over the wire)\n",
				*connectAddr)
		} else {
			s := strategies[0]
			res, err := depint.IntegrateContext(ctx, sys, depint.WithStrategy(s),
				depint.WithWorkers(*workers), depint.WithObserver(observer),
				depint.WithLedger(led))
			if err != nil {
				return err
			}
			wcfg.Campaign = faultsim.Campaign{
				Graph:             res.Expanded,
				HWOf:              res.HWOf(),
				Trials:            *trials,
				Seed:              *seed,
				CriticalThreshold: 10,
				CommFaultFraction: *comm,
				Model:             model,
				Label:             s.String(),
				Ctx:               ctx,
			}
			fmt.Fprintf(stdout, "fabric worker: joining %s  strategy=%s trials=%d fingerprint=%s\n",
				*connectAddr, s, *trials, wcfg.Campaign.Fingerprint())
		}
		if err := fabric.RunWorker(ctx, wcfg); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "fabric worker: campaign complete")
		return nil
	}

	fmt.Fprintf(stdout, "fault injection: system=%s trials=%d seed=%d comm-fraction=%g model=%s\n\n",
		sys.Name, *trials, *seed, *comm, model.Name())
	fmt.Fprintln(stdout, "strategy      escape-rate  mean-affected  mean-crit-loss  cross-transmissions")
	for _, s := range strategies {
		res, err := depint.IntegrateContext(ctx, sys, depint.WithStrategy(s),
			depint.WithWorkers(*workers), depint.WithObserver(observer),
			depint.WithLedger(led))
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-12s  FAILED: %v\n", s, err)
			continue
		}
		// -serve -search shards the adversarial search itself over the
		// fabric: each candidate scenario's campaign becomes one epoch on
		// the shared worker set. The baseline table is skipped — the
		// search result is the deliverable.
		if *serveAddr != "" && *search > 0 {
			ln, lerr := fabricListen(*serveAddr)
			if lerr != nil {
				return lerr
			}
			fmt.Fprintf(stdout, "fabric search coordinator: %s on %s  max-evals=%d trials=%d\n",
				s, ln.Addr(), *search, *trials)
			sspan := observer.StartSpan("adversarial_search",
				obs.String("strategy", s.String()), obs.Int("max_evals", *search))
			sr, fstats, serr := fabric.ServeSearch(ctx, fabric.Config{
				Listener:  ln,
				LeaseTTL:  *leaseTTL,
				AuthToken: *authToken,
				SpotCheck: *spotCheck,
				Bus:       obsFlags.Bus(),
				Observer:  observer,
				Label:     s.String(),
			}, faultsim.SearchConfig{
				Graph:             res.Expanded,
				HWOf:              res.HWOf(),
				Trials:            *trials,
				Seed:              *seed,
				MaxEvals:          *search,
				CriticalThreshold: 10,
				Span:              sspan,
				Ledger:            led,
				Ctx:               ctx,
			})
			sspan.End()
			if serr != nil {
				return serr
			}
			fmt.Fprintf(stdout, "%-12s  worst case: %s  weighted-escape=%.4f  (%d evaluations)\n",
				s, sr.Best.Scenario, sr.Best.Score, len(sr.Evaluations))
			fmt.Fprintf(stdout, "  fabric: workers=%d lost=%d quarantined=%d  leases granted=%d expired=%d reassigned=%d duplicates=%d local-chunks=%d\n",
				fstats.WorkersSeen, fstats.WorkersLost, fstats.Quarantined,
				fstats.LeasesGranted, fstats.LeasesExpired, fstats.Reassigned,
				fstats.Duplicates, fstats.LocalChunks)
			continue
		}
		span := observer.StartSpan("campaign",
			obs.String("strategy", s.String()), obs.Int("trials", *trials))
		campaign := faultsim.Campaign{
			Graph:             res.Expanded,
			HWOf:              res.HWOf(),
			Trials:            *trials,
			Seed:              *seed,
			CriticalThreshold: 10,
			CommFaultFraction: *comm,
			Model:             model,
			Workers:           *workers,
			Span:              span,
			Label:             s.String(),
			Ledger:            led,
			Ctx:               ctx,
		}
		if *ckpt != "" {
			campaign.CheckpointPath = fmt.Sprintf("%s.%s", *ckpt, s)
			campaign.CheckpointEvery = *ckptEvery
			campaign.Resume = *resume
			campaign.LaxResume = !*resumeStrict
		}
		var fi faultsim.Result
		var fstats fabric.Stats
		if *serveAddr != "" {
			ln, lerr := fabricListen(*serveAddr)
			if lerr != nil {
				span.End()
				return lerr
			}
			fmt.Fprintf(stdout, "fabric coordinator: %s on %s  fingerprint=%s\n",
				s, ln.Addr(), campaign.Fingerprint())
			fi, fstats, err = fabric.Serve(ctx, fabric.Config{
				Campaign:  campaign,
				Listener:  ln,
				LeaseTTL:  *leaseTTL,
				AuthToken: *authToken,
				SpotCheck: *spotCheck,
				Bus:       obsFlags.Bus(),
				Observer:  observer,
				Label:     s.String(),
			})
		} else {
			fi, err = faultsim.Run(campaign)
		}
		span.End()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-12s  %11.4f  %13.3f  %14.3f  %19d\n",
			s, fi.EscapeRate(), fi.MeanAffected(), fi.MeanCriticalityLoss(),
			fi.CrossNodeTransmissions)
		if *serveAddr != "" {
			fmt.Fprintf(stdout, "  fabric: workers=%d lost=%d quarantined=%d  leases granted=%d expired=%d reassigned=%d duplicates=%d local-chunks=%d\n",
				fstats.WorkersSeen, fstats.WorkersLost, fstats.Quarantined,
				fstats.LeasesGranted, fstats.LeasesExpired, fstats.Reassigned,
				fstats.Duplicates, fstats.LocalChunks)
		}
		if *search > 0 {
			span := observer.StartSpan("adversarial_search",
				obs.String("strategy", s.String()), obs.Int("max_evals", *search))
			sr, err := faultsim.Search(faultsim.SearchConfig{
				Graph:             res.Expanded,
				HWOf:              res.HWOf(),
				Trials:            *trials,
				Seed:              *seed,
				Workers:           *workers,
				MaxEvals:          *search,
				CriticalThreshold: 10,
				Span:              span,
				Ledger:            led,
				Ctx:               ctx,
			})
			span.End()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  worst case: %s  weighted-escape=%.4f  (%d evaluations)\n",
				sr.Best.Scenario, sr.Best.Score, len(sr.Evaluations))
		}
	}
	return nil
}

// strategyByName resolves a -strategy flag value against every strategy's
// canonical String() name, case-insensitively.
func strategyByName(name string) (depint.Strategy, error) {
	all := []depint.Strategy{
		depint.H1, depint.H1PairAll, depint.H2, depint.H2SourceTarget,
		depint.H3, depint.Criticality, depint.TimingOrder,
		depint.SeparationGuided,
	}
	names := make([]string, 0, len(all))
	for _, s := range all {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
		names = append(names, s.String())
	}
	return 0, fmt.Errorf("unknown -strategy %q (one of %s)", name, strings.Join(names, ", "))
}
