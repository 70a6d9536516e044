package obs

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

func drain(s *Subscriber) []BusEvent {
	var out []BusEvent
	for {
		ev, ok := s.TryNext()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus(16)
	sub := b.Subscribe(0, 16)
	b.Publish("event", "first", Int("n", 1))
	b.Publish("event", "second")
	evs := drain(sub)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Errorf("seqs = %d,%d, want 1,2", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Name != "first" || evs[0].Attrs["n"] != 1 {
		t.Errorf("first event = %+v", evs[0])
	}
	if b.Seq() != 2 {
		t.Errorf("Seq() = %d, want 2", b.Seq())
	}
}

func TestBusReplayFromSequence(t *testing.T) {
	b := NewBus(8)
	for i := 0; i < 5; i++ {
		b.Publish("event", "e")
	}
	// Replay from the middle: must receive exactly 3,4,5.
	sub := b.Subscribe(3, 16)
	evs := drain(sub)
	if len(evs) != 3 || evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("replay from 3 got %+v, want seqs 3..5", evs)
	}
	if sub.Dropped() != 0 {
		t.Errorf("mid-ring replay recorded %d drops, want 0", sub.Dropped())
	}
	// Live events continue after the replayed ones.
	b.Publish("event", "live")
	if ev, ok := sub.TryNext(); !ok || ev.Seq != 6 {
		t.Fatalf("live event after replay = %+v ok=%v, want seq 6", ev, ok)
	}
}

func TestBusReplayEvictionCountsDrops(t *testing.T) {
	b := NewBus(4)
	for i := 0; i < 10; i++ {
		b.Publish("event", "e")
	}
	// Ring holds seqs 7..10; asking for everything from 1 misses 1..6.
	sub := b.Subscribe(1, 16)
	if got := sub.Dropped(); got != 6 {
		t.Errorf("Dropped() = %d, want 6", got)
	}
	evs := drain(sub)
	if len(evs) != 4 || evs[0].Seq != 7 {
		t.Fatalf("replay got %+v, want seqs 7..10", evs)
	}
	// from == 0 means "whatever is available" and is not a gap.
	sub0 := b.Subscribe(0, 16)
	if got := sub0.Dropped(); got != 0 {
		t.Errorf("from=0 Dropped() = %d, want 0", got)
	}
}

func TestSubscriberOverflowDropsOldest(t *testing.T) {
	b := NewBus(64)
	sub := b.Subscribe(0, 3)
	for i := 0; i < 8; i++ {
		b.Publish("event", "e")
	}
	if got := sub.Dropped(); got != 5 {
		t.Errorf("Dropped() = %d, want 5", got)
	}
	if got := b.Dropped(); got != 5 {
		t.Errorf("bus Dropped() = %d, want 5", got)
	}
	evs := drain(sub)
	if len(evs) != 3 || evs[0].Seq != 6 || evs[2].Seq != 8 {
		t.Fatalf("buffered events = %+v, want seqs 6..8", evs)
	}
}

func TestSubscriberNextBlocksAndWakes(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := NewBus(16)
	sub := b.Subscribe(0, 16)
	got := make(chan BusEvent, 1)
	go func() {
		ev, ok := sub.Next(context.Background())
		if ok {
			got <- ev
		}
		close(got)
	}()
	time.Sleep(10 * time.Millisecond)
	b.Publish("event", "wake")
	select {
	case ev := <-got:
		if ev.Name != "wake" {
			t.Errorf("woke with %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not wake on publish")
	}
}

func TestSubscriberNextContextCancel(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := NewBus(16)
	sub := b.Subscribe(0, 16)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := sub.Next(ctx)
		done <- ok
	}()
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Error("Next returned ok=true on cancelled context")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not return on context cancel")
	}
}

func TestBusCloseDrainsSubscribers(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := NewBus(16)
	sub := b.Subscribe(0, 16)
	b.Publish("event", "before")
	b.Close()
	// Buffered events drain first, then the stream ends.
	if ev, ok := sub.Next(nil); !ok || ev.Name != "before" {
		t.Fatalf("drain after close = %+v ok=%v", ev, ok)
	}
	if _, ok := sub.Next(nil); ok {
		t.Error("Next returned ok=true after close and drain")
	}
	// Publishing after close is a silent no-op.
	b.Publish("event", "after")
	if b.Seq() != 1 {
		t.Errorf("Seq() after post-close publish = %d, want 1", b.Seq())
	}
}

func TestBusConcurrentPublish(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := NewBus(1024)
	sub := b.Subscribe(0, 2048)
	var wg sync.WaitGroup
	const goroutines, per = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish("event", "concurrent")
			}
		}()
	}
	wg.Wait()
	if b.Seq() != goroutines*per {
		t.Errorf("Seq() = %d, want %d", b.Seq(), goroutines*per)
	}
	evs := drain(sub)
	if len(evs) != goroutines*per {
		t.Fatalf("subscriber got %d events, want %d", len(evs), goroutines*per)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	b.Publish("event", "x", Int("n", 1))
	b.Attach(func(BusEvent) {})
	b.Close()
	if b.Seq() != 0 || b.Dropped() != 0 {
		t.Error("nil bus reported nonzero state")
	}
	if sub := b.Subscribe(0, 4); sub != nil {
		t.Error("nil bus returned a subscriber")
	}
	var s *Subscriber
	if _, ok := s.Next(nil); ok {
		t.Error("nil subscriber returned an event")
	}
	s.Close()
}

// TestNilBusPublishZeroAlloc pins the uninstrumented fast path: publishing
// to a nil bus with no attributes allocates nothing. (Call sites that
// build attributes guard with `if bus != nil`, exactly like the nil-span
// convention, so the hot path never constructs the attr slice either.)
func TestNilBusPublishZeroAlloc(t *testing.T) {
	var b *Bus
	allocs := testing.AllocsPerRun(1000, func() {
		b.Publish("campaign_checkpoint", "label")
	})
	if allocs != 0 {
		t.Errorf("nil-bus publish allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkBusPublish compares the nil-bus fast path (must be 0 allocs/op
// — asserted by TestNilBusPublishZeroAlloc; see it with -benchmem)
// against a live single-subscriber publish, and prices one relay-on
// fabric call's bus from creation to close ("call"), where the rings'
// growth shows (TestBusAllocatesWithUse bounds its bytes).
func BenchmarkBusPublish(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var bus *Bus
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bus.Publish("campaign_checkpoint", "label")
		}
	})
	b.Run("live", func(b *testing.B) {
		bus := NewBus(256)
		sub := bus.Subscribe(0, 256)
		defer sub.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bus.Publish("campaign_checkpoint", "label", Int("trials_done", i))
			if i%128 == 0 {
				drain(sub)
			}
		}
	})
	b.Run("call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			relayCallBus()
		}
	})
}
