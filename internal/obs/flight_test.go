package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestFlightRecorderBundle(t *testing.T) {
	bus := NewBus(64)
	defer bus.Close()
	tracker := NewTracker(bus)
	o := New(WithBus(bus))
	fr := NewFlightRecorder(o, bus, tracker)

	sp := o.StartSpan("stage")
	sp.End()
	o.AddRemoteSpans(RemoteSpan{Worker: "w0", Name: "evaluate", ID: 2, Parent: 1})
	for i := 0; i < DefaultFlightTail+4; i++ { // overflow the tail
		bus.Publish("event", "tick", Int("i", i))
	}

	art := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(art, []byte(`{"x":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fr.AttachFile("ledger.jsonl", art)
	fr.AttachFile("gone.json", filepath.Join(t.TempDir(), "missing"))

	dir := t.TempDir()
	man, err := fr.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"manifest.json", "trace.json", "chrome_trace.json", "metrics.json",
		"progress.json", "events.ndjson", "buildinfo.json", "ledger.jsonl",
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
		}
		if name != "manifest.json" {
			if _, ok := man.Files[name]; !ok {
				t.Errorf("manifest does not list %s", name)
			}
		}
	}
	if man.Events != DefaultFlightTail || man.EventsDropped == 0 {
		t.Errorf("tail kept %d events (%d dropped), want %d kept and a nonzero drop count",
			man.Events, man.EventsDropped, DefaultFlightTail)
	}
	if man.RemoteSpans != 1 {
		t.Errorf("manifest counts %d remote spans, want 1", man.RemoteSpans)
	}
	if _, listed := man.Files["gone.json"]; listed || man.Skipped["gone.json"] == "" {
		t.Errorf("missing artifact should be skipped, not listed: files=%v skipped=%v",
			man.Files, man.Skipped)
	}

	// The event tail is valid NDJSON of schema-shaped events.
	raw, err := os.ReadFile(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var ev BusEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("events.ndjson line %d: %v", lines+1, err)
		}
		lines++
	}
	if lines != man.Events {
		t.Errorf("events.ndjson holds %d lines, manifest says %d", lines, man.Events)
	}

	// manifest.json on disk round-trips to the returned manifest.
	rawMan, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk FlightManifest
	if err := json.Unmarshal(rawMan, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.Events != man.Events || onDisk.RemoteSpans != man.RemoteSpans {
		t.Errorf("manifest on disk %+v differs from returned %+v", onDisk, man)
	}

	// The attached artifact was copied byte-for-byte.
	copied, err := os.ReadFile(filepath.Join(dir, "ledger.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(copied) != `{"x":1}`+"\n" {
		t.Errorf("attached artifact corrupted: %q", copied)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.AttachFile("x", "y") // must not panic
	if _, err := fr.Write(t.TempDir()); err == nil {
		t.Fatal("nil recorder Write should error")
	}
}
