// Command paperrepro regenerates every table and figure of the worked
// example of "A Framework for Dependability Driven Software Integration"
// (ICDCS 1998) and runs the quantitative extension experiments E1–E15
// indexed in DESIGN.md.
//
// Usage:
//
//	paperrepro            # everything
//	paperrepro -only fig6 # one artifact: table1, fig1..fig8, e1..e15
//	paperrepro -trials N  # Monte-Carlo trial count (default 20000)
//	paperrepro -seed S    # campaign seed (default 1998)
//
// The telemetry flags (-trace, -log-level, -metrics-addr) record one span
// per regenerated artifact, so -trace exposes where reproduction time goes;
// -watch streams live NDJSON progress to stderr (or, with -metrics-addr,
// serves it at /events next to the live /dashboard).
// -ledger <file> additionally writes a decision-provenance ledger: the
// worked example's integration decisions, a small injection campaign, and
// one content-hash record per regenerated artifact. Two runs with the same
// flags produce byte-identical ledgers (asserted by `make ledger-diff`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/ledger"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	fs.SetOutput(stdout)
	only := fs.String("only", "", "regenerate a single artifact (table1, fig1..fig8, e1..e15)")
	trials := fs.Int("trials", 20000, "Monte-Carlo trials for injection experiments")
	seed := fs.Uint64("seed", 1998, "seed for randomized experiments")
	workers := cli.RegisterWorkers(fs)
	timeout := cli.RegisterTimeout(fs)
	obsFlags := cli.RegisterObsFlags(fs, os.Stderr)
	ledFlag := cli.RegisterLedger(fs, "paperrepro")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cli.ApplyWorkers(*workers)
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
	// -ledger records the worked example's full decision trail (one
	// Integrate run plus a small injection campaign) and then one artifact
	// record per regenerated table/figure, carrying the content hash: two
	// runs of paperrepro -ledger must produce byte-identical ledgers, which
	// is exactly what `make ledger-diff` asserts.
	led := ledFlag.Ledger()
	defer func() {
		if ferr := ledFlag.Finish(os.Stderr); ferr != nil && err == nil {
			err = ferr
		}
	}()
	if led != nil {
		sys := depint.PaperExample()
		res, err := depint.IntegrateContext(ctx, sys,
			depint.WithWorkers(*workers), depint.WithLedger(led))
		if err != nil {
			return err
		}
		span := observer.StartSpan("campaign")
		_, err = faultsim.Run(faultsim.Campaign{
			Graph:             res.Expanded,
			HWOf:              res.HWOf(),
			Trials:            2000,
			Seed:              *seed,
			CriticalThreshold: 10,
			Workers:           *workers,
			Span:              span,
			Label:             "ledger-campaign",
			Ledger:            led,
			Ctx:               ctx,
		})
		span.End()
		if err != nil {
			return err
		}
	}

	type artifact struct {
		name string
		run  func() (string, error)
	}
	artifacts := []artifact{
		{"table1", experiments.Table1},
		{"fig1", func() (string, error) { r, err := experiments.Fig1(); return r.Text, err }},
		{"fig2", func() (string, error) { r, err := experiments.Fig2(); return r.Text, err }},
		{"fig3", experiments.Fig3},
		{"fig4", func() (string, error) { r, err := experiments.Fig4(); return r.Text, err }},
		{"fig5", func() (string, error) {
			r, err := experiments.Fig5()
			if err != nil {
				return "", err
			}
			if err := experiments.CheckFig5(r); err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"fig6", func() (string, error) { r, err := experiments.Fig6(); return r.Text, err }},
		{"fig7", func() (string, error) { r, err := experiments.Fig7(); return r.Text, err }},
		{"fig8", func() (string, error) { r, err := experiments.Fig8(); return r.Text, err }},
		{"e1", func() (string, error) { r, err := experiments.E1(); return r.Text, err }},
		{"e2", func() (string, error) {
			r, err := experiments.E2([]int{12, 24, 48}, *seed)
			return r.Text, err
		}},
		{"e3", func() (string, error) {
			r, err := experiments.E3(*trials, *seed)
			return r.Text, err
		}},
		{"e4", func() (string, error) { r, err := experiments.E4(8); return r.Text, err }},
		{"e5", func() (string, error) {
			r, err := experiments.E5(*trials/2, *seed)
			return r.Text, err
		}},
		{"e6", func() (string, error) { r, err := experiments.E6(4, 3, 4, 25, *seed); return r.Text, err }},
		{"e7", func() (string, error) { r, err := experiments.E7(*trials, *seed); return r.Text, err }},
		{"e8", func() (string, error) { r, err := experiments.E8(); return r.Text, err }},
		{"e9", func() (string, error) { r, err := experiments.E9(); return r.Text, err }},
		{"e10", func() (string, error) {
			r, err := experiments.E10([]int{500, 2000, 10000, 50000}, *seed)
			return r.Text, err
		}},
		{"e11", func() (string, error) { r, err := experiments.E11(); return r.Text, err }},
		{"e12", func() (string, error) { r, err := experiments.E12(200, *seed); return r.Text, err }},
		{"e13", func() (string, error) { r, err := experiments.E13(*trials, *seed); return r.Text, err }},
		{"e14", func() (string, error) { r, err := experiments.E14(24, *seed); return r.Text, err }},
		{"e15", func() (string, error) { r, err := experiments.E15(5e5, *seed); return r.Text, err }},
	}

	root := observer.StartSpan("paperrepro", obs.Int("trials", *trials))
	defer root.End()
	ran := 0
	for _, a := range artifacts {
		if *only != "" && !strings.EqualFold(*only, a.name) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cancelled before %s: %w", a.name, err)
		}
		span := root.StartChild(a.name)
		text, err := a.run()
		span.End()
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Fprintf(stdout, "==== %s %s\n%s\n", strings.ToUpper(a.name),
			strings.Repeat("=", 66-len(a.name)), text)
		led.Append(ledger.Record{
			Kind: ledger.KindArtifact, Stage: "paperrepro", A: a.name,
			Detail: "content " + ledger.Fingerprint(text),
		})
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown artifact %q", *only)
	}
	return nil
}
