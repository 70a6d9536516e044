package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock hands out strictly increasing timestamps.
func fakeClock() func() time.Time {
	t := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	s := o.StartSpan("x", String("k", "v"))
	if s != nil {
		t.Fatal("nil observer handed out a span")
	}
	// Every span method must absorb nil.
	s.End()
	s.SetAttr(Int("n", 1))
	s.Event("e", Float("w", 0.5))
	s.Publish("campaign_done", "lbl", Int("n", 1))
	if s.StartChild("c") != nil {
		t.Error("nil span handed out a child")
	}
	if s.Name() != "" || s.Duration() != 0 || s.Children() != nil || s.Events() != nil || s.Metrics() != nil {
		t.Error("nil span leaked state")
	}
	if o.Metrics() != nil || o.Roots() != nil || o.Logger() != nil {
		t.Error("nil observer leaked state")
	}
	if got := o.Export(); len(got.Spans) != 0 || len(got.ChromeEvents) != 0 {
		t.Error("nil observer exported spans")
	}
}

func TestSpanTreeAndExport(t *testing.T) {
	o := New(WithClock(fakeClock()))
	root := o.StartSpan("integrate", String("system", "demo"))
	cond := root.StartChild("condense", String("strategy", "H1"))
	cond.Event("merge", String("a", "p1"), String("b", "p2"), Float("mutual", 0.76))
	cond.Event("merge", String("a", "p3"), String("b", "p4"), Float("mutual", 0.37))
	cond.End()
	eval := root.StartChild("evaluate")
	eval.End()
	root.End()

	roots := o.Roots()
	if len(roots) != 1 || roots[0].Name() != "integrate" {
		t.Fatalf("roots = %v", roots)
	}
	if d := cond.Duration(); d <= 0 {
		t.Errorf("condense duration = %v", d)
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "condense" || kids[1].Name() != "evaluate" {
		t.Fatalf("children = %v", kids)
	}
	if evs := cond.Events(); len(evs) != 2 || evs[0].Name != "merge" {
		t.Fatalf("events = %v", evs)
	}

	ex := root.Export()
	if ex.Attrs["system"] != "demo" {
		t.Errorf("root attrs = %v", ex.Attrs)
	}
	if len(ex.Children) != 2 || ex.Children[0].Attrs["strategy"] != "H1" {
		t.Errorf("child export = %+v", ex.Children)
	}
	if ex.DurationMS <= 0 || ex.End == nil {
		t.Errorf("root timing not exported: %+v", ex)
	}
	if got := ex.Children[0].Events[0].Attrs["mutual"]; got != 0.76 {
		t.Errorf("merge weight = %v", got)
	}

	// The JSON serialisation carries the weights verbatim.
	raw, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"0.76"`, `"integrate"`, `"condense"`} {
		want = strings.Trim(want, `"`)
		if !strings.Contains(string(raw), want) {
			t.Errorf("JSON missing %q:\n%s", want, raw)
		}
	}
}

func TestUnfinishedSpanExports(t *testing.T) {
	o := New(WithClock(fakeClock()))
	s := o.StartSpan("open")
	ex := s.Export()
	if ex.End != nil || ex.DurationMS != 0 {
		t.Errorf("unfinished span exported an end: %+v", ex)
	}
	// Double End keeps the first end time.
	s.End()
	d1 := s.Duration()
	s.End()
	if s.Duration() != d1 {
		t.Error("second End moved the end time")
	}
}

func TestChromeTraceDepthAndInstants(t *testing.T) {
	o := New(WithClock(fakeClock()))
	root := o.StartSpan("run")
	child := root.StartChild("stage")
	child.Event("tick", Int("n", 3))
	child.End()
	root.End()

	evs := o.ChromeTrace()
	if len(evs) != 3 {
		t.Fatalf("chrome events = %d, want 3", len(evs))
	}
	byName := map[string]ChromeEvent{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	if byName["run"].Phase != "X" || byName["run"].TID != 0 {
		t.Errorf("run event = %+v", byName["run"])
	}
	if byName["stage"].TID != 1 || byName["stage"].Dur <= 0 {
		t.Errorf("stage event = %+v", byName["stage"])
	}
	if byName["tick"].Phase != "i" || byName["tick"].Args["n"] != any(3) {
		t.Errorf("tick event = %+v", byName["tick"])
	}
	if byName["stage"].TS <= byName["run"].TS {
		t.Error("child timestamp not after parent")
	}
}

func TestWriteTraceRoundTrips(t *testing.T) {
	o := New(WithClock(fakeClock()))
	s := o.StartSpan("top")
	s.Event("e1")
	s.End()
	o.Metrics().Counter("widgets_total", "widgets").Add(5)

	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr Trace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "top" {
		t.Errorf("spans = %+v", tr.Spans)
	}
	if len(tr.ChromeEvents) != 2 {
		t.Errorf("chrome events = %d", len(tr.ChromeEvents))
	}
	if len(tr.Metrics.Counters) != 1 || tr.Metrics.Counters[0].Value != 5 {
		t.Errorf("metrics = %+v", tr.Metrics)
	}
}

func TestSlogMirroring(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	o := New(WithLogger(logger), WithClock(fakeClock()))
	if o.Logger() == nil {
		t.Fatal("logger not stored")
	}
	s := o.StartSpan("stage")
	s.Event("merge", String("a", "p1"), Float("mutual", 0.76))
	s.End()
	out := buf.String()
	for _, want := range []string{"span start", "span end", "merge", "mutual=0.76", "span=stage"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentSpanUse(t *testing.T) {
	o := New()
	root := o.StartSpan("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := root.StartChild("worker")
			for j := 0; j < 50; j++ {
				c.Event("tick", Int("j", j))
			}
			c.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 8 {
		t.Errorf("children = %d", got)
	}
}

// TestObserverKeepsEveryRoot pins the observer's retention: every root
// span stays in Roots for the life of the observer.
func TestObserverKeepsEveryRoot(t *testing.T) {
	o := New()
	for i := 0; i < 50; i++ {
		o.StartSpan("r").End()
	}
	if got := len(o.Roots()); got != 50 {
		t.Errorf("observer retained %d roots, want 50", got)
	}
}

func TestObserverBusMirrorsSpans(t *testing.T) {
	bus := NewBus(64)
	sub := bus.Subscribe(0, 64)
	o := New(WithBus(bus))
	root := o.StartSpan("integrate", String("system", "demo"))
	child := root.StartChild("condense")
	child.Event("merge", String("a", "p1"), Float("mutual", 0.7))
	child.Publish("campaign_done", "H1", Int("trials_done", 10))
	child.End()
	root.End()
	if child.Metrics() != o.Metrics() {
		t.Error("span does not hand out its observer's registry")
	}
	if spanEvs := child.Events(); len(spanEvs) != 2 || spanEvs[1].Name != "campaign_done" {
		t.Errorf("span events = %+v, want merge then campaign_done", spanEvs)
	}

	evs := drain(sub)
	if len(evs) != 6 {
		t.Fatalf("got %d mirrored events, want 6: %+v", len(evs), evs)
	}
	type want struct{ kind, name, span string }
	wants := []want{
		{"span_start", "integrate", ""},
		{"span_start", "condense", "integrate"},
		{"event", "merge", "condense"},
		{"campaign_done", "H1", "condense"},
		{"span_end", "condense", ""},
		{"span_end", "integrate", ""},
	}
	for i, w := range wants {
		ev := evs[i]
		if ev.Kind != w.kind || ev.Name != w.name || ev.Span != w.span {
			t.Errorf("event %d = {%s %s span=%q}, want {%s %s span=%q}",
				i, ev.Kind, ev.Name, ev.Span, w.kind, w.name, w.span)
		}
	}
	if evs[0].Attrs["system"] != "demo" {
		t.Errorf("span_start attrs = %v", evs[0].Attrs)
	}
	if evs[3].Attrs["trials_done"] != 10 {
		t.Errorf("campaign_done attrs = %v, want the span event's", evs[3].Attrs)
	}
	if d, ok := evs[4].Attrs["duration_ms"].(float64); !ok || d < 0 {
		t.Errorf("span_end duration_ms = %v", evs[4].Attrs["duration_ms"])
	}
}

func TestObserverBusMirrorDoubleEndOnce(t *testing.T) {
	bus := NewBus(64)
	sub := bus.Subscribe(0, 64)
	o := New(WithBus(bus))
	s := o.StartSpan("once")
	s.End()
	s.End()
	evs := drain(sub)
	ends := 0
	for _, ev := range evs {
		if ev.Kind == "span_end" {
			ends++
		}
	}
	if ends != 1 {
		t.Errorf("double End published %d span_end events, want 1", ends)
	}
}
