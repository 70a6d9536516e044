package depint

import (
	"reflect"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/obs"
)

// progressKinds are the typed bus kinds campaigns, searches and
// certifications publish through Span.Publish.
var progressKinds = []string{
	"campaign_start", "campaign_checkpoint", "campaign_done",
	"search_eval", "search_done",
	"certify_member", "certify_level", "certify_done",
}

// TestProgressEventsEmittedOnce runs a campaign, an adversarial search and
// a robustness certification under one observer with a bus. Every
// progress fact must reach the bus exactly once, as its typed kind: no
// "event"-kind twin comes from the three jobs' spans, and each progress
// event on a span has one bus event of the same kind, span and attributes,
// in the same order.
func TestProgressEventsEmittedOnce(t *testing.T) {
	const capacity = 1 << 14
	bus := obs.NewBus(capacity)
	sub := bus.Subscribe(0, capacity)
	o := obs.New(obs.WithBus(bus))

	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	span := o.StartSpan("campaign")
	_, err = faultsim.Run(faultsim.Campaign{
		Graph: res.Expanded, HWOf: res.HWOf(), Trials: 1000, Seed: 7,
		Workers: 2, Span: span, Label: "once",
	})
	span.End()
	if err != nil {
		t.Fatal(err)
	}
	span = o.StartSpan("adversarial_search")
	_, err = faultsim.Search(faultsim.SearchConfig{
		Graph: res.Expanded, HWOf: res.HWOf(), Trials: 200, Seed: 5, MaxEvals: 4, Span: span,
	})
	span.End()
	if err != nil {
		t.Fatal(err)
	}
	cfg := certCfg(7, 0, 0.05)
	cfg.Options = []Option{WithObserver(o)}
	if _, err := CertifyRobustness(PaperExample(), cfg); err != nil {
		t.Fatal(err)
	}
	bus.Close()

	jobs := map[string]bool{"campaign": true, "adversarial_search": true, "certify_robustness": true}
	isProgress := map[string]bool{}
	for _, k := range progressKinds {
		isProgress[k] = true
	}
	// onBus holds the bus's progress events per kind, in publication order.
	onBus := map[string][]obs.BusEvent{}
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		switch {
		case isProgress[ev.Kind]:
			onBus[ev.Kind] = append(onBus[ev.Kind], ev)
		case ev.Kind == "event" && jobs[ev.Span]:
			t.Errorf("span %s mirrored event %q onto the bus as kind \"event\"", ev.Span, ev.Name)
		}
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("subscriber dropped %d events", d)
	}

	onSpans := map[string]int{}
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		for _, ev := range s.Events() {
			if !isProgress[ev.Name] {
				continue
			}
			i := onSpans[ev.Name]
			onSpans[ev.Name]++
			if i >= len(onBus[ev.Name]) {
				t.Errorf("span %s event %s #%d has no bus twin", s.Name(), ev.Name, i)
				continue
			}
			twin := onBus[ev.Name][i]
			attrs := map[string]any{}
			for _, a := range ev.Attrs {
				attrs[a.Key] = a.Value
			}
			if twin.Span != s.Name() || !reflect.DeepEqual(twin.Attrs, attrs) {
				t.Errorf("%s #%d: span %s carries %v, its bus twin in span %q carries %v",
					ev.Name, i, s.Name(), attrs, twin.Span, twin.Attrs)
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range o.Roots() {
		walk(r)
	}
	for _, k := range progressKinds {
		if onSpans[k] == 0 {
			t.Errorf("no %s event was recorded", k)
		}
		if onSpans[k] != len(onBus[k]) {
			t.Errorf("%s: %d span events, %d bus events", k, onSpans[k], len(onBus[k]))
		}
	}
}
