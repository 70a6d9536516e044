package faultsim

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestCampaignBusDeterminism is the streaming half of the determinism
// contract: attaching a bus — even one whose only subscriber is so slow
// it never drains during the run — must not change a single bit of the
// campaign Result, at any worker count. The subscriber's tiny ring
// overflows by design; it must still observe strictly increasing sequence
// numbers, with the overflow recorded in the drop counters.
func TestCampaignBusDeterminism(t *testing.T) {
	g, hw := web(t)
	for _, workers := range []int{1, 4} {
		base := campaign(g, hw, "")
		base.Workers = workers
		want, err := Run(base)
		if err != nil {
			t.Fatalf("workers=%d unwatched: %v", workers, err)
		}

		bus := obs.NewBus(64)
		// A deliberately slow consumer: it reads nothing while the
		// campaign runs, so its 4-slot ring must overflow (the campaign
		// emits campaign_start + ~10 checkpoints + campaign_done).
		sub := bus.Subscribe(0, 4)
		watched := campaign(g, hw, "")
		watched.Workers = workers
		watched.Span = obs.New(obs.WithBus(bus)).StartSpan("campaign")
		watched.Label = "watched"
		got, err := Run(watched)
		if err != nil {
			t.Fatalf("workers=%d watched: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: watched result differs from unwatched:\n got: %+v\nwant: %+v",
				workers, got, want)
		}

		if d := sub.Dropped(); d == 0 {
			t.Errorf("workers=%d: slow subscriber recorded no drops", workers)
		}
		if d := bus.Dropped(); d == 0 {
			t.Errorf("workers=%d: bus recorded no drops", workers)
		}
		var last uint64
		n := 0
		for {
			ev, ok := sub.TryNext()
			if !ok {
				break
			}
			if ev.Seq <= last {
				t.Fatalf("workers=%d: sequence not strictly increasing: %d after %d",
					workers, ev.Seq, last)
			}
			last = ev.Seq
			n++
		}
		if n == 0 {
			t.Errorf("workers=%d: subscriber saw no events at all", workers)
		}
		sub.Close()
		bus.Close()
	}
}

// TestCampaignBusEvents checks the progress-event skeleton: one
// campaign_start, checkpoints carrying a shrinking-capable half_width,
// one campaign_done, all labelled and all in the campaign's span.
func TestCampaignBusEvents(t *testing.T) {
	g, hw := web(t)
	bus := obs.NewBus(256)
	sub := bus.Subscribe(0, 256)
	c := campaign(g, hw, "")
	c.Workers = 2
	c.Span = obs.New(obs.WithBus(bus)).StartSpan("campaign")
	c.Label = "lbl"
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	bus.Close()

	var starts, checkpoints, dones int
	for {
		ev, ok := sub.Next(nil)
		if !ok {
			break
		}
		if ev.Kind == "span_start" || ev.Kind == "span_end" {
			continue // the campaign and worker spans
		}
		if ev.Name != "lbl" || ev.Span != "campaign" {
			t.Fatalf("event %q has label %q in span %q, want lbl in campaign", ev.Kind, ev.Name, ev.Span)
		}
		switch ev.Kind {
		case "campaign_start":
			starts++
			if got, _ := ev.Attrs["trials_total"].(int); got != c.Trials {
				t.Errorf("campaign_start trials_total = %v, want %d", ev.Attrs["trials_total"], c.Trials)
			}
		case "campaign_checkpoint":
			checkpoints++
			width, ok := ev.Attrs["half_width"].(float64)
			if !ok || width <= 0 {
				t.Errorf("campaign_checkpoint half_width = %v, want > 0", ev.Attrs["half_width"])
			}
		case "campaign_done":
			dones++
			if got, _ := ev.Attrs["trials_done"].(int); got != res.Trials {
				t.Errorf("campaign_done trials_done = %v, want %d", ev.Attrs["trials_done"], res.Trials)
			}
		}
	}
	if starts != 1 || dones != 1 {
		t.Errorf("got %d campaign_start / %d campaign_done events, want 1 / 1", starts, dones)
	}
	if checkpoints < 5 {
		t.Errorf("got %d checkpoint events, want at least 5", checkpoints)
	}
}

// TestSearchBusEvents: the adversarial search streams one search_eval per
// scenario and a final search_done.
func TestSearchBusEvents(t *testing.T) {
	g, hw := web(t)
	bus := obs.NewBus(1024)
	sub := bus.Subscribe(0, 1024)
	sr, err := Search(SearchConfig{
		Graph: g, HWOf: hw, Trials: 200, Seed: 5, MaxEvals: 6,
		Span: obs.New(obs.WithBus(bus)).StartSpan("search"),
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Close()
	evals, dones := 0, 0
	for {
		ev, ok := sub.Next(nil)
		if !ok {
			break
		}
		switch ev.Kind {
		case "search_eval":
			evals++
		case "search_done":
			dones++
			if got, _ := ev.Attrs["score"].(float64); got != sr.Best.Score {
				t.Errorf("search_done score = %v, want %g", ev.Attrs["score"], sr.Best.Score)
			}
		}
	}
	if evals != len(sr.Evaluations) {
		t.Errorf("streamed %d search_eval events, want %d", evals, len(sr.Evaluations))
	}
	if dones != 1 {
		t.Errorf("streamed %d search_done events, want 1", dones)
	}
}
