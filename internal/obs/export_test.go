package obs

import (
	"encoding/json"
	"testing"
)

// Subscribers reports how many subscribers are currently registered, for
// tests asserting that disconnected consumers (an /events client that went
// away mid-replay, a closed watcher) were unregistered rather than leaked.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// chromeFixture builds a trace whose raw depth-first walk would violate ts
// order: the root records an event AFTER its child span started, so
// without sorting the instant lands before the child in the list but
// after it in time.
func chromeFixture() *Observer {
	o := New(WithClock(fakeClock()))
	root := o.StartSpan("integrate")     // t+1ms
	child := root.StartChild("condense") // t+2ms
	child.Event("merge")                 // t+3ms
	child.End()                          // t+4ms
	root.Event("late")                   // t+5ms — after condense, walk emits it first
	grand := root.StartChild("map")      // t+6ms
	grand.End()                          // t+7ms
	root.End()                           // t+8ms
	return o
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	events := chromeFixture().ChromeTrace()
	raw, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("chrome trace does not round-trip as JSON: %v", err)
	}
	if len(back) != len(events) {
		t.Fatalf("round-trip lost events: %d != %d", len(back), len(events))
	}
	for i, ev := range back {
		ph, _ := ev["ph"].(string)
		if ph != "X" && ph != "i" {
			t.Errorf("event %d has phase %q, want X or i", i, ph)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event %d missing numeric ts", i)
		}
	}
}

func TestChromeTraceTimestampsMonotonic(t *testing.T) {
	events := chromeFixture().ChromeTrace()
	if len(events) != 5 {
		t.Fatalf("want 5 events (3 spans + 2 instants), got %d", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].TS < events[i-1].TS {
			t.Fatalf("ts not monotonic: event %d (%s, ts=%v) after %s ts=%v",
				i, events[i].Name, events[i].TS, events[i-1].Name, events[i-1].TS)
		}
	}
	// The root's late event must have been reordered after "condense".
	idx := map[string]int{}
	for i, ev := range events {
		idx[ev.Name] = i
	}
	if idx["late"] < idx["condense"] {
		t.Errorf("late event not sorted after the child it follows in time: %v", events)
	}
}

// TestChromeTraceNestingPreserved: sorting must not disturb the tid-based
// nesting — children keep a deeper tid than their parents and stay inside
// the parent's [ts, ts+dur] window.
func TestChromeTraceNestingPreserved(t *testing.T) {
	events := chromeFixture().ChromeTrace()
	byName := map[string]ChromeEvent{}
	for _, ev := range events {
		byName[ev.Name] = ev
	}
	root, condense, mapped := byName["integrate"], byName["condense"], byName["map"]
	if root.TID != 0 || condense.TID != 1 || mapped.TID != 1 {
		t.Fatalf("depth/tid mapping broken: root=%d condense=%d map=%d",
			root.TID, condense.TID, mapped.TID)
	}
	for _, child := range []ChromeEvent{condense, mapped} {
		if child.TS < root.TS || child.TS+child.Dur > root.TS+root.Dur {
			t.Errorf("child %s [%v, %v] escapes parent [%v, %v]",
				child.Name, child.TS, child.TS+child.Dur, root.TS, root.TS+root.Dur)
		}
	}
}
