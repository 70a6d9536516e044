package depint

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// observerKinds are the bus kinds the observer publishes itself (span
// lifecycle and Span.Event), with no Publish call naming them.
var observerKinds = map[string]bool{"span_start": true, "span_end": true, "event": true}

// TestPublishedKindsMatchSchema is the static half of the event-schema
// gate; `make stream-check` is the run-time half. Every string-literal kind
// a non-test file of the module passes to a Publish call, on an obs.Bus or
// an obs.Span, must be listed in the kind enum of
// docs/streaming/events.schema.json, and every kind listed there, except
// observerKinds, must be published by some such call.
func TestPublishedKindsMatchSchema(t *testing.T) {
	s := scanModule(t)
	data, err := os.ReadFile("docs/streaming/events.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	var schema struct {
		Properties struct {
			Kind struct {
				Enum []string `json:"enum"`
			} `json:"kind"`
		} `json:"properties"`
	}
	if err := json.Unmarshal(data, &schema); err != nil {
		t.Fatal(err)
	}
	enum := map[string]bool{}
	for _, kind := range schema.Properties.Kind.Enum {
		enum[kind] = true
		if _, ok := s.published[kind]; !ok && !observerKinds[kind] {
			t.Errorf("the schema lists kind %q, which no Publish call publishes: drop it from the enum or publish it", kind)
		}
	}
	if len(enum) == 0 {
		t.Fatal("the schema's kind enum is empty")
	}
	kinds := make([]string, 0, len(s.published))
	for kind := range s.published {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		if !enum[kind] {
			t.Errorf("%s publishes kind %q, which the schema's kind enum does not list", s.published[kind], kind)
		}
	}
}
