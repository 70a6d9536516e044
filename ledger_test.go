package depint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden ledger reports under docs/ledger")

// workedExampleLedger integrates the paper's worked example with a ledger
// attached — the fixture every acceptance test here reads from.
func workedExampleLedger(t *testing.T, opts ...Option) *Ledger {
	t.Helper()
	led := NewLedger("test")
	res, err := Integrate(PaperExample(), append([]Option{WithLedger(led)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment == nil {
		t.Fatal("no assignment")
	}
	return led
}

// TestLedgerExplainsWorkedExample: the ledger must answer the paper's
// p1..p8 colocation question — why p3 and p5 share hw5 — with the recorded
// merge rule, the Eq. (4) mutual influence of 0.76, and the placement cost.
func TestLedgerExplainsWorkedExample(t *testing.T) {
	led := workedExampleLedger(t)
	if h := led.Header(); h.System != "icdcs98-worked-example" || h.Fingerprint == "" {
		t.Fatalf("header not stamped: %+v", h)
	}
	exp, err := ExplainPair(led, "p3", "p5")
	if err != nil {
		t.Fatal(err)
	}
	text := exp.String()
	for _, want := range []string{
		"merge H1",         // the recorded rule
		"0.76",             // the Eq. (4) mutual influence of the joining merge
		"{p3a,p4,p5}",      // the cluster the merge produced
		"colocated on hw5", // the placement answer
		"cost 0.4",         // the placement cost
		"beat hw6",         // the alternative it beat
		"never merged",     // the p3b replica went elsewhere
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explanation missing %q:\n%s", want, text)
		}
	}
}

// TestLedgerIdenticalRunsProduceNoDivergence: determinism is the ledger's
// core contract — same spec, same options, byte-identical ledger, empty diff.
func TestLedgerIdenticalRunsProduceNoDivergence(t *testing.T) {
	a := workedExampleLedger(t)
	b := workedExampleLedger(t)

	var bufA, bufB bytes.Buffer
	if err := a.WriteJSONL(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("two identical runs serialized different ledgers")
	}

	d, err := LedgerDiff(a, b, LedgerDiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Divergent() {
		t.Fatalf("identical runs diverged:\n%s", d.String())
	}
	if !d.FingerprintMatch {
		t.Error("identical runs have different config fingerprints")
	}
}

// TestCorpusLedgersDeterministic extends the determinism contract to the
// committed corpus and every strategy: each scenario, integrated three
// times in one process under each of the 8 strategies, must write
// byte-identical ledgers and fail, if at all, with the same error. Go
// randomises map iteration order on every range, so a decision that
// depends on it shows up as a divergence between the runs.
func TestCorpusLedgersDeterministic(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	scenarios := 0
	for _, f := range files {
		if filepath.Base(f) == "manifest.json" {
			continue
		}
		scenarios++
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for s := H1; s <= H2SourceTarget; s++ {
			var first string
			for run := 0; run < 3; run++ {
				sys, err := spec.Decode(bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				led := NewLedger("determinism")
				_, err = Integrate(sys, WithStrategy(s), WithLedger(led))
				var buf bytes.Buffer
				if werr := led.WriteJSONL(&buf); werr != nil {
					t.Fatal(werr)
				}
				got := fmt.Sprintf("%v\n%s", err, buf.Bytes())
				if run == 0 && bytes.Count(buf.Bytes(), []byte("\n")) < 2 {
					t.Errorf("%s under %v: the ledger holds no decision record", filepath.Base(f), s)
				}
				if run == 0 {
					first = got
				} else if got != first {
					t.Errorf("%s under %v: run %d wrote a different ledger or error than run 0", filepath.Base(f), s, run)
				}
			}
		}
	}
	if scenarios != 12 {
		t.Errorf("%d corpus scenarios, want 12", scenarios)
	}
}

// TestLedgerPerturbedRunNamesFirstDivergence: a perturbed spec must be
// caught at the first decision that differs, not just in the final metrics.
func TestLedgerPerturbedRunNamesFirstDivergence(t *testing.T) {
	base := workedExampleLedger(t)

	sys := PaperExample()
	for i := range sys.Processes {
		if sys.Processes[i].Name == "p5" {
			sys.Processes[i].Criticality += 2 // mis-estimated criticality
		}
	}
	led := NewLedger("test")
	if _, err := Integrate(sys, WithLedger(led)); err != nil {
		t.Fatal(err)
	}

	d, err := LedgerDiff(base, led, LedgerDiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Divergent() {
		t.Fatal("perturbed run did not diverge")
	}
	if d.FingerprintMatch {
		t.Error("perturbed spec kept the same fingerprint")
	}
	fd := d.FirstDivergence
	if fd == nil {
		t.Fatal("no first divergence identified")
	}
	if fd.Old == nil || fd.Old.Kind != ledger.KindPartition || fd.Old.A != "p5" {
		t.Errorf("first divergence should be p5's partition record, got %+v", fd.Old)
	}
	if !strings.Contains(d.String(), "first divergent decision") {
		t.Errorf("diff rendering does not name the divergence:\n%s", d.String())
	}
}

// TestLedgerRaceSplicesOnlyWinner: under WithRaceStrategies the ledger
// must contain exactly one race record and only the winning strategy's
// merges — losers' scratch ledgers are dropped.
func TestLedgerRaceSplicesOnlyWinner(t *testing.T) {
	led := NewLedger("test")
	res, err := Integrate(PaperExample(), WithLedger(led),
		WithStrategy(H1), WithFallback(H2, H3), WithRaceStrategies())
	if err != nil {
		t.Fatal(err)
	}
	races, merges := 0, 0
	winAttempt := -1
	for _, r := range led.Records() {
		if r.Kind == ledger.KindRace {
			races++
			winAttempt = r.Attempt
			if r.Rule != res.Strategy.String() {
				t.Errorf("race record names %s, result used %s", r.Rule, res.Strategy)
			}
		}
	}
	if races != 1 {
		t.Fatalf("want exactly 1 race record, got %d", races)
	}
	// Every merge must carry the winning contender's attempt number —
	// losers' scratch ledgers never reach the run ledger.
	for _, r := range led.Records() {
		if r.Kind == ledger.KindMerge {
			merges++
			if r.Attempt != winAttempt {
				t.Errorf("merge from losing contender leaked into ledger: %+v", r)
			}
		}
	}
	if merges == 0 {
		t.Error("winner's merges were not spliced into the ledger")
	}
	// The race's degradations must be mirrored as degrade records.
	degrades := 0
	for _, r := range led.Records() {
		if r.Kind == ledger.KindDegrade {
			degrades++
		}
	}
	if degrades != len(res.Degradations) {
		t.Errorf("ledger has %d degrade records, result has %d degradations",
			degrades, len(res.Degradations))
	}
}

// TestLedgerDegradeRecordsOnFallback: a failing first strategy must leave
// a degrade record naming the abandoned strategy and the one that took over.
func TestLedgerDegradeRecordsOnFallback(t *testing.T) {
	// Strategy(42) fails deterministically ("unknown strategy"), degrading
	// to H1 — the same fixture TestFallbackChainRecordsDegradation uses.
	bogus := Strategy(42)
	led := NewLedger("test")
	res, err := Integrate(PaperExample(), WithLedger(led),
		WithStrategy(bogus), WithFallback(H1))
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	var degrades []ledger.Record
	for _, r := range led.Records() {
		if r.Kind == ledger.KindDegrade {
			degrades = append(degrades, r)
		}
	}
	if len(degrades) != len(res.Degradations) || len(degrades) != 1 {
		t.Fatalf("ledger has %d degrade records, result has %d degradations",
			len(degrades), len(res.Degradations))
	}
	d := degrades[0]
	if d.Rule != bogus.String() || d.Result != "H1" || d.Stage != "condense" {
		t.Errorf("degrade record should name %s -> H1 in condense: %+v", bogus, d)
	}
	if !strings.Contains(d.Detail, "unknown strategy") {
		t.Errorf("degrade detail %q does not carry the failure reason", d.Detail)
	}
	// The winning attempt's merges (H1, attempt 2) drive Explain, so the
	// lineage still answers despite the failed first attempt.
	if _, err := ExplainPair(led, "p3", "p5"); err != nil {
		t.Errorf("Explain after fallback: %v", err)
	}
}

// TestLedgerGoldenReports locks the Markdown and HTML report rendering of
// the worked example. Regenerate with `go test -run Golden -update .`.
func TestLedgerGoldenReports(t *testing.T) {
	led := workedExampleLedger(t)

	var md, html bytes.Buffer
	if err := WriteLedgerReport(&md, led, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteLedgerReport(&html, led, true); err != nil {
		t.Fatal(err)
	}

	check := func(path string, got []byte) {
		t.Helper()
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden file missing (run `go test -run Golden -update .`): %v", err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s drifted from the golden file; run `go test -run Golden -update .` and review the diff", path)
		}
	}
	check(filepath.Join("docs", "ledger", "worked-example.md"), md.Bytes())
	check(filepath.Join("docs", "ledger", "worked-example.html"), html.Bytes())

	// The golden Markdown must carry the worked example's headline facts.
	text := md.String()
	for _, want := range []string{"0.76", "{p3a,p4,p5}", "hw5", "containment"} {
		if !strings.Contains(text, want) {
			t.Errorf("golden report missing %q", want)
		}
	}
	// The HTML must be self-contained: no external scripts, styles or URLs.
	h := html.String()
	for _, banned := range []string{"<script src", "<link rel", "http://", "https://"} {
		if strings.Contains(h, banned) {
			t.Errorf("golden HTML is not self-contained: found %q", banned)
		}
	}
}
