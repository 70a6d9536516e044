package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// refWriteJSONL is the reflection-based writer WriteJSONL replaced: a
// json.Encoder over the header and every record. It is the reference the
// hand encoder must match byte for byte.
func refWriteJSONL(l *Ledger, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(l.Header()); err != nil {
		return fmt.Errorf("ledger: write header: %w", err)
	}
	for _, r := range l.Records() {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("ledger: write record %d: %w", r.Seq, err)
		}
	}
	return bw.Flush()
}

// fuzzLedger builds a ledger exercising every Header and Record field from
// two strings, three floats and a shape byte: bit 0 picks nil or empty
// slices and maps where a field is left out, bit 1 an extra record with
// every optional field empty, bits 2–7 vary the ints.
func fuzzLedger(s, t string, x, y, z float64, shape uint8) *Ledger {
	l := New(Header{Tool: s, System: t, Strategy: s + t, Approach: t,
		HWNodes: int(shape>>2) - 8, Fingerprint: s})
	var (
		alts    []Alternative
		members []string
		values  map[string]float64
	)
	if shape&1 != 0 {
		alts, members, values = []Alternative{}, []string{}, map[string]float64{}
	}
	l.Append(Record{Kind: s, Stage: t, Rule: s, A: t, B: s, Score: x,
		Result: t, Node: s, Cost: y, Attempt: int(shape>>2) - 16, Detail: t,
		Alternatives: []Alternative{{Node: s, Cost: z}, {Node: t, Cost: x}},
		Members:      []string{s, t, ""},
		Values:       map[string]float64{s: x, t: y, s + "<k>": z, "\n": 0},
	})
	l.Append(Record{Kind: t, Alternatives: alts, Members: members, Values: values})
	if shape&2 != 0 {
		l.Append(Record{Score: -x, Cost: math.Copysign(0, -1)})
	}
	return l
}

// FuzzLedgerEncodeMatchesJSON holds WriteJSONL to the json.Encoder
// reference: the same bytes for every ledger the reference can encode,
// and for one holding a NaN or infinity the same error text, an error
// that still wraps *json.UnsupportedValueError, and nothing written.
func FuzzLedgerEncodeMatchesJSON(f *testing.F) {
	f.Add("merge", "H1", 0.76, 0.5, 1.0, uint8(0))
	f.Add("<&>", "a\"b\\c", 1e-6, 1e21, 9.99999e-7, uint8(1))
	f.Add("\x00\x01\x1f\x7f", "\b\f\n\r\t", math.Copysign(0, -1), math.Copysign(0, -1), 1e20, uint8(2))
	f.Add("\xff\xfe\xc3", "ok\xe2\x82", 5e-324, math.MaxFloat64, -math.MaxFloat64, uint8(3))
	f.Add("\u2028 \u2029", "\u00e9\u2014\u65e5\u672c", 2.2250738585072014e-308, 1e-7, 123456789e12, uint8(255))
	f.Add("nan", "", math.NaN(), 1.0, 2.0, uint8(2))
	f.Add("inf", "x", 1.0, math.Inf(1), 2.0, uint8(0))
	f.Add("neg-inf", "x", 1.0, 2.0, math.Inf(-1), uint8(1))
	f.Fuzz(func(t *testing.T, s, u string, x, y, z float64, shape uint8) {
		l := fuzzLedger(s, u, x, y, z, shape)
		var got, want bytes.Buffer
		gotErr := l.WriteJSONL(&got)
		wantErr := refWriteJSONL(l, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error %v, reference error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			var uv *json.UnsupportedValueError
			if gotErr.Error() != wantErr.Error() || !errors.As(gotErr, &uv) {
				t.Fatalf("error %q, reference %q (must wrap *json.UnsupportedValueError)", gotErr, wantErr)
			}
			if got.Len() != 0 {
				t.Fatalf("failed write still wrote %d bytes", got.Len())
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("bytes differ from json.Encoder:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	})
}

// TestAppendJSONFloatNonFiniteTokens pins the fixed tokens non-finite
// floats are fingerprinted as.
func TestAppendJSONFloatNonFiniteTokens(t *testing.T) {
	for f, want := range map[float64]string{math.Inf(1): "+Inf", math.Inf(-1): "-Inf"} {
		if got := string(AppendJSONFloat(nil, f)); got != want {
			t.Errorf("AppendJSONFloat(%v) = %q, want %q", f, got, want)
		}
	}
	if got := string(AppendJSONFloat(nil, math.NaN())); got != "NaN" {
		t.Errorf("AppendJSONFloat(NaN) = %q, want NaN", got)
	}
}

// corpusGoldens lists the committed scenario-corpus ledgers.
func corpusGoldens(tb testing.TB) []string {
	paths, err := filepath.Glob("../../testdata/corpus/*.golden.jsonl")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no corpus goldens found (err %v)", err)
	}
	return paths
}

// TestWriteJSONLReproducesCorpusGoldens: every committed corpus ledger,
// read back and written out again, comes out byte for byte as committed.
func TestWriteJSONLReproducesCorpusGoldens(t *testing.T) {
	for _, path := range corpusGoldens(t) {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		l, err := ReadJSONL(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := l.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: rewritten ledger differs from the committed one", filepath.Base(path))
		}
	}
}

// TestWriteJSONLAllocsBounded: without Values, WriteJSONL allocates the
// same small number of times however many records it writes (the one
// output buffer is sized up front).
func TestWriteJSONLAllocsBounded(t *testing.T) {
	allocs := func(n int) float64 {
		l := New(Header{Tool: "test"})
		for i := 0; i < n; i++ {
			l.Append(Record{Kind: KindMerge, Stage: "condense", Rule: "H1", A: "p1", B: "p2",
				Score: 0.5, Result: "{p1,p2}", Members: []string{"p1", "p2"},
				Alternatives: []Alternative{{"n1", 1}}})
		}
		return testing.AllocsPerRun(20, func() {
			if err := l.WriteJSONL(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(2000)
	if large != small || large > 2 {
		t.Errorf("WriteJSONL allocations: %.0f for 10 records, %.0f for 2000; want equal and at most 2", small, large)
	}
}

// BenchmarkLedgerWriteJSONL writes a committed corpus ledger (one
// Integrate run plus a campaign summary) into a fresh buffer per call,
// with WriteJSONL and with the json.Encoder reference.
func BenchmarkLedgerWriteJSONL(b *testing.B) {
	l, err := ReadFile(corpusGoldens(b)[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		write func(*Ledger, io.Writer) error
	}{{"hand", (*Ledger).WriteJSONL}, {"reference", refWriteJSONL}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := w.write(l, &buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
