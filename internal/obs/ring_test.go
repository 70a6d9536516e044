package obs

import (
	"context"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// TestBusAllocatesWithUse pins that a bus's rings cost what they hold: a
// bus bounded at 4,096 events, with a subscriber bounded the same, that
// carries one fabric relay call's 259 events to a consumer draining as
// it goes allocates a small fraction of two full 4,096-event rings
// (about 590 kB).
func TestBusAllocatesWithUse(t *testing.T) {
	const runs = 10
	relayCallBus() // warm up anything allocated once per process
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		relayCallBus()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 100_000 {
		t.Errorf("a bus carrying 259 events allocates %d bytes, want under 100 kB", perRun)
	}
}

// relayCallBus is the bus life of one relay-on fabric call: a bus and a
// subscriber bounded at 4,096 events, 259 events published, and a
// consumer that drains the subscriber as they arrive.
func relayCallBus() {
	b := NewBus(4096)
	sub := b.Subscribe(0, 4096)
	for i := 0; i < 259; i++ {
		b.Publish("event", "e")
		for {
			if _, ok := sub.TryNext(); !ok {
				break
			}
		}
	}
	sub.Close()
	b.Close()
}

// TestEventRingGrowsToBound checks growth and wrap-around directly: the
// storage doubles from its first allocation, stops at the bound, and the
// ring then evicts oldest first.
func TestEventRingGrowsToBound(t *testing.T) {
	r := newEventRing(20)
	if r.buf != nil {
		t.Fatal("a new ring allocated storage before its first event")
	}
	var sizes []int
	for i := 1; i <= 30; i++ {
		evicted := r.push(BusEvent{Seq: uint64(i)})
		if evicted != (i > 21) {
			t.Fatalf("push %d: evicted = %v", i, evicted)
		}
		if n := len(sizes); n == 0 || sizes[n-1] != len(r.buf) {
			sizes = append(sizes, len(r.buf))
		}
		if i == 5 {
			r.pop() // move the head so growth has to unwrap the ring
		}
	}
	if want := []int{8, 16, 20}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("storage sizes %v, want %v", sizes, want)
	}
	for i, ev := range r.events() {
		if want := uint64(11 + i); ev.Seq != want {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// fixedRing is a test-only copy of the fixed-capacity modular ring the
// bus, its subscribers and the flight recorder each kept before their
// rings grew on demand: storage allocated at full capacity up front.
type fixedRing struct {
	buf     []BusEvent
	head, n int
}

func (r *fixedRing) push(ev BusEvent) (evicted bool) {
	if r.n == len(r.buf) {
		r.head = (r.head + 1) % len(r.buf)
		r.n--
		evicted = true
	}
	r.buf[(r.head+r.n)%len(r.buf)] = ev
	r.n++
	return evicted
}

func (r *fixedRing) pop() (BusEvent, bool) {
	if r.n == 0 {
		return BusEvent{}, false
	}
	ev := r.buf[r.head]
	r.buf[r.head] = BusEvent{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return ev, true
}

func (r *fixedRing) events() []BusEvent {
	out := make([]BusEvent, r.n)
	for i := range out {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// fixedSub and fixedBus model the bus and its subscribers over fixed
// rings, with the publish, replay and drop rules of Bus.
type fixedSub struct {
	ring    fixedRing
	dropped uint64
	closed  bool
}

func (s *fixedSub) push(ev BusEvent) bool {
	if s.closed {
		return false
	}
	if s.ring.push(ev) {
		s.dropped++
		return true
	}
	return false
}

type fixedBus struct {
	seq           uint64
	replay        fixedRing
	subs          []*fixedSub
	flight        fixedRing
	flightDropped uint64
	dropped       uint64
	closed        bool
}

func (b *fixedBus) publish(ev BusEvent) {
	if b.closed {
		return
	}
	b.seq++
	ev.Seq = b.seq
	b.replay.push(ev)
	for _, s := range b.subs {
		if s.push(ev) {
			b.dropped++
		}
	}
	if b.flight.push(ev) {
		b.flightDropped++
	}
}

func (b *fixedBus) subscribe(from uint64, bufCap int) *fixedSub {
	s := &fixedSub{ring: fixedRing{buf: make([]BusEvent, bufCap)}}
	if b.closed {
		s.closed = true
		return s
	}
	if b.replay.n > 0 {
		oldest := b.replay.events()[0].Seq
		if from < oldest {
			if from > 0 {
				s.dropped += oldest - from
				b.dropped += oldest - from
			}
			from = oldest
		}
		for _, ev := range b.replay.events() {
			if ev.Seq >= from && s.push(ev) {
				b.dropped++
			}
		}
	}
	b.subs = append(b.subs, s)
	return s
}

// FuzzEventRingMatchesFixed drives a bus, its subscribers and a flight
// recorder through random publishes, subscriptions from a sequence
// number, Next, TryNext and closes, at random bounds of 1–64 events,
// beside fixedBus. Every delivered event, both Dropped counts and the
// replay and flight tails must match the fixed-capacity rings.
func FuzzEventRingMatchesFixed(f *testing.F) {
	f.Add([]byte{3, 5, 0, 0, 0, 1, 2, 8, 0, 0, 0, 0, 2, 0, 3, 0, 6})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 0, 1, 2, 3, 0, 4, 0, 5, 0, 0, 0, 0, 0})
	f.Add([]byte{63, 63, 1, 9, 63, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Add([]byte{7, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 3, 0, 0, 0, 0, 4, 0, 0, 1, 2, 5, 2, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		replayCap, flightCap := 1+int(data[0]%64), 1+int(data[1]%64)
		data = data[2:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}

		bus := NewBus(replayCap)
		bus.now = func() time.Time { return bus.epoch }
		fr := &FlightRecorder{tail: newEventRing(flightCap), files: map[string]string{}}
		bus.Attach(fr.record)
		ref := &fixedBus{
			replay: fixedRing{buf: make([]BusEvent, replayCap)},
			flight: fixedRing{buf: make([]BusEvent, flightCap)},
		}
		var subs []*Subscriber
		var refSubs []*fixedSub
		done, cancel := context.WithCancel(context.Background())
		cancel() // Next with a done context does not block

		check := func(step int) {
			t.Helper()
			if bus.Dropped() != ref.dropped {
				t.Fatalf("step %d: bus Dropped() = %d, fixed rings %d", step, bus.Dropped(), ref.dropped)
			}
			for i, s := range subs {
				if s.Dropped() != refSubs[i].dropped {
					t.Fatalf("step %d: subscriber %d Dropped() = %d, fixed ring %d", step, i, s.Dropped(), refSubs[i].dropped)
				}
			}
			bus.mu.Lock()
			replay := bus.replay.events()
			bus.mu.Unlock()
			if want := ref.replay.events(); !reflect.DeepEqual(replay, want) {
				t.Fatalf("step %d: replay tail %v, fixed ring %v", step, replay, want)
			}
			fr.mu.Lock()
			tail, dropped := fr.tail.events(), fr.dropped
			fr.mu.Unlock()
			if want := ref.flight.events(); !reflect.DeepEqual(tail, want) || dropped != ref.flightDropped {
				t.Fatalf("step %d: flight tail %v (dropped %d), fixed ring %v (dropped %d)", step, tail, dropped, want, ref.flightDropped)
			}
		}
		for step := 0; len(data) > 0; step++ {
			op := next() % 8
			switch op {
			case 0, 1: // publish, twice as likely as any other op
				name := strconv.Itoa(next())
				bus.Publish("event", name)
				ref.publish(BusEvent{Kind: "event", Name: name})
			case 2: // subscribe from a sequence number around the retained window
				from := uint64(next()) % (ref.seq + 3)
				bound := 1 + next()%64
				subs = append(subs, bus.Subscribe(from, bound))
				refSubs = append(refSubs, ref.subscribe(from, bound))
			case 3, 4: // Next, TryNext
				if len(subs) == 0 {
					continue
				}
				i := next() % len(subs)
				var ev BusEvent
				var ok bool
				if op == 3 {
					ev, ok = subs[i].Next(done)
				} else {
					ev, ok = subs[i].TryNext()
				}
				want, wantOK := refSubs[i].ring.pop()
				if ok != wantOK || !reflect.DeepEqual(ev, want) {
					t.Fatalf("step %d: subscriber %d read %+v (ok %v), fixed ring %+v (ok %v)", step, i, ev, ok, want, wantOK)
				}
			case 5: // close a subscriber
				if len(subs) == 0 {
					continue
				}
				i := next() % len(subs)
				subs[i].Close()
				refSubs[i].closed = true
			case 6: // close the bus, rarely
				if next()%4 == 0 {
					bus.Close()
					ref.closed = true
					for _, s := range ref.subs {
						s.closed = true
					}
				}
			case 7:
				check(step)
			}
		}
		check(-1)
	})
}
