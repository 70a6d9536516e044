package obs

// FlightRecorder bundles everything needed to understand one run after
// the fact — the trace tree (local + relayed remote spans), the merged
// multi-process Chrome trace, a metrics snapshot, the progress model,
// a bounded tail of the event stream, the binary's build identity, and
// any attached artifacts (the decision ledger) — into one self-contained
// directory. CLIs expose it as `-flight-record dir/`; every distributed
// campaign gets a post-mortem archive that renders standalone.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// DefaultFlightTail is the event-tail capacity a FlightRecorder keeps:
// enough for the closing minutes of a large campaign without
// letting a long-running process grow the recorder unboundedly.
const DefaultFlightTail = 4096

// FlightRecorder accumulates run state and writes the bundle at exit.
// Safe for concurrent use; the bus sink it registers is drop-oldest, so
// recording can never stall a publisher.
type FlightRecorder struct {
	obs     *Observer
	tracker *Tracker

	mu      sync.Mutex
	tail    []BusEvent // ring storage
	head, n int
	dropped uint64
	files   map[string]string // bundle name -> source path
}

// NewFlightRecorder builds a recorder over the given components (any may
// be nil — the corresponding bundle entries are simply omitted). When bus
// is non-nil the recorder attaches a sink keeping the most recent
// DefaultFlightTail events; attach before concurrent publishing, as with
// any bus sink.
func NewFlightRecorder(o *Observer, bus *Bus, t *Tracker) *FlightRecorder {
	fr := &FlightRecorder{
		obs:     o,
		tracker: t,
		tail:    make([]BusEvent, DefaultFlightTail),
		files:   map[string]string{},
	}
	if bus != nil {
		bus.Attach(fr.record)
	}
	return fr
}

// record is the bus sink: a drop-oldest ring append.
func (fr *FlightRecorder) record(ev BusEvent) {
	fr.mu.Lock()
	if fr.n == len(fr.tail) {
		fr.head = (fr.head + 1) % len(fr.tail)
		fr.n--
		fr.dropped++
	}
	fr.tail[(fr.head+fr.n)%len(fr.tail)] = ev
	fr.n++
	fr.mu.Unlock()
}

// AttachFile registers an external artifact (a ledger, a checkpoint) to
// be copied into the bundle under the given name. Missing sources are
// noted in the manifest at Write time rather than failing the bundle.
func (fr *FlightRecorder) AttachFile(name, src string) {
	if fr == nil || name == "" || src == "" {
		return
	}
	fr.mu.Lock()
	fr.files[filepath.Base(name)] = src
	fr.mu.Unlock()
}

// FlightManifest is the bundle's manifest.json: what was written, how
// large, and what was lost to bounds on the way.
type FlightManifest struct {
	// Files maps bundle-relative names to their byte sizes.
	Files map[string]int64 `json:"files"`
	// Events is the number of event-tail records written;
	// EventsDropped counts tail-ring evictions (the stream outgrew the
	// bounded tail, oldest first).
	Events        int    `json:"events"`
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	// RemoteSpans is the number of relayed worker spans in the trace.
	RemoteSpans int `json:"remote_spans,omitempty"`
	// Skipped notes attached artifacts that could not be copied
	// (name -> error), without failing the bundle.
	Skipped map[string]string `json:"skipped,omitempty"`
}

// Write renders the bundle into dir (created if needed):
//
//	manifest.json      this manifest (written last, so its presence
//	                   marks a complete bundle)
//	trace.json         full Trace export: spans, remote spans, metrics
//	chrome_trace.json  the merged multi-process Chrome trace alone, in
//	                   the {"traceEvents": [...]} container Perfetto and
//	                   chrome://tracing load directly
//	metrics.json       registry snapshot
//	progress.json      progress-tracker snapshot
//	events.ndjson      bounded tail of the event stream, one per line
//	buildinfo.json     binary identity (module, VCS, toolchain)
//	<attached>         copies of artifacts registered via AttachFile
func (fr *FlightRecorder) Write(dir string) (FlightManifest, error) {
	man := FlightManifest{Files: map[string]int64{}}
	if fr == nil {
		return man, fmt.Errorf("obs: nil flight recorder")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return man, fmt.Errorf("obs: flight bundle: %w", err)
	}
	put := func(name string, render func(io.Writer) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("obs: flight bundle %s: %w", name, err)
		}
		rerr := render(f)
		cerr := f.Close()
		if rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return fmt.Errorf("obs: flight bundle %s: %w", name, rerr)
		}
		if fi, err := os.Stat(path); err == nil {
			man.Files[name] = fi.Size()
		}
		return nil
	}
	asJSON := func(v any) func(io.Writer) error {
		return func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		}
	}

	if fr.obs != nil {
		if err := put("trace.json", fr.obs.WriteTrace); err != nil {
			return man, err
		}
		if err := put("chrome_trace.json", asJSON(map[string]any{
			"traceEvents": fr.obs.ChromeTrace(),
		})); err != nil {
			return man, err
		}
		if err := put("metrics.json", asJSON(fr.obs.Metrics().Snapshot())); err != nil {
			return man, err
		}
		man.RemoteSpans = len(fr.obs.RemoteSpans())
	}
	if fr.tracker != nil {
		if err := put("progress.json", asJSON(fr.tracker.Snapshot())); err != nil {
			return man, err
		}
	}

	fr.mu.Lock()
	tail := make([]BusEvent, 0, fr.n)
	for i := 0; i < fr.n; i++ {
		tail = append(tail, fr.tail[(fr.head+i)%len(fr.tail)])
	}
	man.EventsDropped = fr.dropped
	files := make(map[string]string, len(fr.files))
	for k, v := range fr.files {
		files[k] = v
	}
	fr.mu.Unlock()

	man.Events = len(tail)
	if err := put("events.ndjson", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, ev := range tail {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return man, err
	}
	if err := put("buildinfo.json", asJSON(CollectBuildInfo())); err != nil {
		return man, err
	}

	for name, src := range files {
		err := put(name, func(w io.Writer) error {
			in, err := os.Open(src)
			if err != nil {
				return err
			}
			defer in.Close()
			_, err = io.Copy(w, in)
			return err
		})
		if err != nil {
			if man.Skipped == nil {
				man.Skipped = map[string]string{}
			}
			man.Skipped[name] = err.Error()
			_ = os.Remove(filepath.Join(dir, name))
			delete(man.Files, name)
		}
	}

	if err := put("manifest.json", asJSON(&man)); err != nil {
		return man, err
	}
	return man, nil
}
