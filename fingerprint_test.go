package depint

import (
	"math"
	"testing"

	"repro/internal/ledger"
)

// refRunFingerprint is runFingerprint as it was before its JSON was
// appended by hand: ledger.Fingerprint (json.Marshal) of an anonymous
// struct. It is the reference the hand-written form must match for every
// specification json.Marshal accepts.
func refRunFingerprint(sys *System, o *options) string {
	chain := make([]string, 0, 1+len(o.fallback))
	for _, s := range append([]Strategy{o.strategy}, o.fallback...) {
		chain = append(chain, s.String())
	}
	return ledger.Fingerprint(struct {
		System            *System  `json:"system"`
		Chain             []string `json:"chain"`
		Approach          string   `json:"approach"`
		CriticalThreshold float64  `json:"critical_threshold"`
		SeparationOrder   int      `json:"separation_order"`
		RefineMoves       int      `json:"refine_moves"`
		Race              bool     `json:"race"`
	}{sys, chain, o.approach.String(), o.criticalThreshold, o.separationOrder, o.refineMoves, o.race})
}

// fuzzFingerprintInput builds a system and options from fuzz values: two
// strings for every name and factor, three floats for every attribute,
// weight and threshold, and a shape byte whose bits pick nil or empty
// process, influence, resource and factor lists, the fallback chain and
// race mode.
func fuzzFingerprintInput(s, t string, x, y, z float64, shape uint8) (*System, *options) {
	sys := &System{Name: s, HWNodes: int(shape) - 100}
	if shape&1 != 0 {
		sys.Processes, sys.Influences = []Process{}, []Influence{}
	}
	if shape&2 != 0 {
		var res, fac []string
		if shape&4 != 0 {
			res, fac = []string{}, []string{}
		}
		sys.Processes = append(sys.Processes,
			Process{Name: s, Criticality: x, FT: int(shape >> 4), EST: y, TCD: z, CT: -x, Resources: []string{t, s}},
			Process{Name: t, Criticality: z, FT: 1, EST: 0, TCD: y, CT: x, Resources: res})
		sys.Influences = append(sys.Influences,
			Influence{From: s, To: t, Weight: y, Factors: []string{t, "<" + s + ">"}},
			Influence{From: t, To: s, Weight: z, Factors: fac})
	}
	o := &options{
		strategy:          Strategy(shape % 9),
		approach:          Approach(shape % 4),
		criticalThreshold: x,
		separationOrder:   int(shape>>3) - 4,
		refineMoves:       int(shape >> 5),
		race:              shape&8 != 0,
	}
	if shape&16 != 0 {
		o.fallback = []Strategy{H2, Criticality, Strategy(99)}
	}
	return sys, o
}

// FuzzRunFingerprintMatchesJSON holds the hand-appended run fingerprint to
// the json.Marshal reference on every specification json.Marshal accepts,
// and requires a stable fingerprint for one it rejects (a NaN or infinite
// value).
func FuzzRunFingerprintMatchesJSON(f *testing.F) {
	f.Add("icdcs98", "p1", 10.0, 0.5, 1.0, uint8(2))
	f.Add("<&>", "a\"b\\c\x00\x1f", 1e-6, 1e21, 9.99999e-7, uint8(255))
	f.Add("\xff\xfe", "\u2028\u2029\b\f\n\r\t", math.Copysign(0, -1), 5e-324, math.MaxFloat64, uint8(6))
	f.Add("", "", 0.0, 0.0, 0.0, uint8(0))
	f.Add("nil-vs-empty", "x", 1.0, 2.0, 3.0, uint8(1))
	f.Add("empty-lists", "x", 1.0, 2.0, 3.0, uint8(7))
	f.Add("nan", "x", math.NaN(), 0.5, 1.0, uint8(2))
	f.Add("inf", "x", 1.0, math.Inf(1), math.Inf(-1), uint8(18))
	f.Fuzz(func(t *testing.T, s, u string, x, y, z float64, shape uint8) {
		sys, o := fuzzFingerprintInput(s, u, x, y, z, shape)
		got := runFingerprint(sys, o)
		if again := runFingerprint(sys, o); again != got {
			t.Fatalf("fingerprint not stable: %s then %s", got, again)
		}
		for _, v := range []float64{x, y, z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // json.Marshal rejects the input: no reference
			}
		}
		if want := refRunFingerprint(sys, o); got != want {
			t.Fatalf("fingerprint %s, json.Marshal reference %s", got, want)
		}
	})
}

// TestRunFingerprintNonFiniteDeterministic: a specification holding a NaN
// or infinity gets one fingerprint however often it is integrated, from
// equal but separately built specs. json.Marshal rejects such a spec, and
// hashing its %+v form printed the *System's address instead.
func TestRunFingerprintNonFiniteDeterministic(t *testing.T) {
	fingerprint := func(bad float64) string {
		sys := PaperExample()
		sys.Processes[0].Criticality = bad
		led := ledger.New(ledger.Header{Tool: "test"})
		_, _ = Integrate(sys, WithLedger(led)) // the spec is invalid; only the header matters
		return led.Header().Fingerprint
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		first := fingerprint(bad)
		if first == "" {
			t.Fatalf("criticality %v: no fingerprint stamped", bad)
		}
		for i := 0; i < 2; i++ {
			if again := fingerprint(bad); again != first {
				t.Errorf("criticality %v: fingerprint %s, then %s for an equal spec", bad, first, again)
			}
		}
	}
	if fingerprint(math.NaN()) == fingerprint(math.Inf(1)) {
		t.Error("NaN and +Inf criticality share a fingerprint")
	}
}

func BenchmarkRunFingerprint(b *testing.B) {
	sys := PaperExample()
	o := &options{strategy: H1, approach: ByImportance, criticalThreshold: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runFingerprint(sys, o)
	}
}
