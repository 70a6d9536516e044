package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// BusEvent is one record of the streaming telemetry fabric. Seq is a
// strictly increasing, gapless publication number (the first event of a
// bus is 1); TMS is milliseconds since the bus epoch. Kind classifies the
// source: "span_start" and "span_end"; "event" for a span event
// (Span.Event); a progress kind published through Span.Publish
// ("campaign_start", "campaign_checkpoint", "campaign_done",
// "search_eval", "search_done", "certify_member", "certify_level",
// "certify_done"), which is also a span event named by the kind; or a
// "fabric_*" kind published on the bus directly. Name is the span or
// event name, the campaign label, "search", "certify", or the worker or
// campaign a fabric kind is about; Span names the owning span of an
// "event" or a progress kind. The committed JSON Schema for the
// serialised form lives at docs/streaming/events.schema.json.
type BusEvent struct {
	Seq   uint64         `json:"seq"`
	TMS   float64        `json:"t_ms"`
	Kind  string         `json:"kind"`
	Name  string         `json:"name"`
	Span  string         `json:"span,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Bus is a bounded, non-blocking broadcast bus for telemetry events: the
// live counterpart of the post-mortem span tree. Publishers never block
// and never wait on consumers — each subscriber owns a bounded ring that
// drops its oldest event (counting the drop) when the consumer falls
// behind, so a stalled HTTP client can never stall a campaign. A bounded
// replay ring keeps the most recent events so late subscribers can resume
// from any sequence number still retained. Rings grow on demand up to
// their bound, so a bus costs what it holds, not what it could hold.
//
// A nil *Bus absorbs every call: the uninstrumented publish path is a
// single pointer comparison, mirroring the nil Observer contract.
type Bus struct {
	epoch time.Time
	now   func() time.Time

	mu     sync.Mutex
	seq    uint64
	replay eventRing
	subs   map[*Subscriber]struct{}
	sinks  []func(BusEvent)
	closed bool

	dropped atomic.Uint64 // events dropped across all subscribers
}

// DefaultBusReplay is the replay-ring capacity NewBus(0) uses.
const DefaultBusReplay = 1024

// NewBus builds a bus retaining up to replayCap recent events for
// late-subscriber replay (0 means DefaultBusReplay).
func NewBus(replayCap int) *Bus {
	if replayCap <= 0 {
		replayCap = DefaultBusReplay
	}
	return &Bus{
		epoch:  time.Now(),
		now:    time.Now,
		replay: newEventRing(replayCap),
		subs:   map[*Subscriber]struct{}{},
	}
}

// Attach registers a synchronous sink invoked inline for every published
// event (the progress Tracker uses this). Sinks must be fast and must not
// publish back into the bus. Attach before any concurrent publishing.
func (b *Bus) Attach(sink func(BusEvent)) {
	if b == nil || sink == nil {
		return
	}
	b.mu.Lock()
	b.sinks = append(b.sinks, sink)
	b.mu.Unlock()
}

// Publish broadcasts one event. Safe on a nil bus (a single pointer
// check, no work); never blocks on slow subscribers.
func (b *Bus) Publish(kind, name string, attrs ...Attr) {
	if b == nil {
		return
	}
	b.publish(kind, "", name, attrs)
}

// publish is the shared emission path (span mirroring supplies span).
func (b *Bus) publish(kind, span, name string, attrs []Attr) {
	ev := BusEvent{
		TMS:   float64(b.now().Sub(b.epoch)) / float64(time.Millisecond),
		Kind:  kind,
		Name:  name,
		Span:  span,
		Attrs: attrsMap(attrs),
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	ev.Seq = b.seq
	b.replay.push(ev) // replay evictions are not drops
	for s := range b.subs {
		if s.push(ev) {
			b.dropped.Add(1)
		}
	}
	sinks := b.sinks
	b.mu.Unlock()
	for _, sink := range sinks {
		sink(ev)
	}
}

// Seq returns the sequence number of the most recently published event
// (0 when nothing was published, or on a nil bus).
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Dropped returns the total number of events dropped across all
// subscribers (ring overflows plus replay gaps at subscribe time).
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// oldestRetained returns the lowest sequence number still in the replay
// ring (0 when the ring is empty). Caller holds b.mu.
func (b *Bus) oldestRetained() uint64 {
	if b.replay.n == 0 {
		return 0
	}
	return b.replay.at(0).Seq
}

// Subscribe registers a consumer. Events with Seq >= from still held in
// the replay ring are pre-loaded into the subscriber's buffer; events
// already evicted (or beyond the buffer capacity) count as drops, so a
// consumer can always detect the gap. from == 0 means "everything still
// available"; from == Seq()+1 means "live events only". bufCap is the
// subscriber's ring capacity (0 means 256).
func (b *Bus) Subscribe(from uint64, bufCap int) *Subscriber {
	if b == nil {
		return nil
	}
	if bufCap <= 0 {
		bufCap = 256
	}
	s := &Subscriber{
		bus:    b,
		buf:    newEventRing(bufCap),
		notify: make(chan struct{}, 1),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		s.closed = true
		return s
	}
	if oldest := b.oldestRetained(); oldest > 0 {
		if from < oldest {
			if from > 0 {
				// The caller asked for events the ring no longer holds.
				gap := oldest - from
				s.dropped += gap
				b.dropped.Add(gap)
			}
			from = oldest
		}
		for i := 0; i < b.replay.n; i++ {
			if ev := b.replay.at(i); ev.Seq >= from {
				if s.pushLocked(ev) {
					b.dropped.Add(1)
				}
			}
		}
	}
	b.subs[s] = struct{}{}
	return s
}

// Close shuts the bus down: every subscriber is closed (consumers drain
// their buffered events, then see ok == false) and later publishes are
// discarded.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.closed = true
	subs := make([]*Subscriber, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = map[*Subscriber]struct{}{}
	b.mu.Unlock()
	for _, s := range subs {
		s.close()
	}
}

// Subscriber is one consumer's bounded view of the bus. All methods are
// safe on a nil receiver.
type Subscriber struct {
	bus *Bus

	mu      sync.Mutex
	buf     eventRing
	dropped uint64
	closed  bool
	notify  chan struct{}
}

// push appends ev, evicting the oldest buffered event when full.
// Reports whether an event was dropped.
func (s *Subscriber) push(ev BusEvent) (droppedOne bool) {
	s.mu.Lock()
	droppedOne = s.pushLocked(ev)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return droppedOne
}

func (s *Subscriber) pushLocked(ev BusEvent) (droppedOne bool) {
	if s.closed {
		return false
	}
	if s.buf.push(ev) {
		s.dropped++
		return true
	}
	return false
}

// Next returns the next buffered event, blocking until one arrives, the
// subscription closes (ok == false), or ctx is done (ok == false). A nil
// ctx blocks until an event or close.
func (s *Subscriber) Next(ctx context.Context) (ev BusEvent, ok bool) {
	if s == nil {
		return BusEvent{}, false
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		s.mu.Lock()
		if ev, ok = s.buf.pop(); ok {
			s.mu.Unlock()
			return ev, true
		}
		if s.closed {
			s.mu.Unlock()
			return BusEvent{}, false
		}
		s.mu.Unlock()
		select {
		case <-done:
			return BusEvent{}, false
		case <-s.notify:
		}
	}
}

// TryNext returns the next buffered event without blocking.
func (s *Subscriber) TryNext() (ev BusEvent, ok bool) {
	if s == nil {
		return BusEvent{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.pop()
}

// Dropped returns how many events this subscriber has missed: ring
// overflows while it lagged plus any replay gap at subscribe time.
func (s *Subscriber) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscriber from the bus; a blocked Next returns
// after the remaining buffered events are drained.
func (s *Subscriber) Close() {
	if s == nil {
		return
	}
	if s.bus != nil {
		s.bus.mu.Lock()
		delete(s.bus.subs, s)
		s.bus.mu.Unlock()
	}
	s.close()
}

func (s *Subscriber) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}
