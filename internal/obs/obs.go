// Package obs is the framework's stdlib-only telemetry subsystem: a
// hierarchical tracer, a metrics registry, and a structured event log.
//
// The paper's continuing-work section singles out measurement as the
// make-or-break capability ("developing techniques to determine and measure
// actual parameters such as 'influence' … is crucial"); obs is the
// corresponding engineering artifact. Every Integrate run can record one
// span per pipeline stage, every condensation step can log the merge it
// chose and why, and every fault-injection campaign can report running
// containment estimates — all exportable as a JSON trace tree, a flat
// Chrome-trace event list, and JSON/Prometheus metric snapshots.
//
// The zero value of the subsystem is "off": a nil *Observer (and the nil
// *Span / nil *Registry it hands out) is safe to call and does nothing, so
// instrumented code pays a single pointer comparison when no observer is
// installed.
//
// Typical use:
//
//	o := obs.New(obs.WithLogger(slog.Default()))
//	ctx := obs.NewContext(context.Background(), o)
//	ctx, span := obs.Start(ctx, "condense", obs.String("strategy", "H1"))
//	defer span.End()
//	span.Event("merge", obs.String("a", "p1a"), obs.Float("mutual", 0.76))
package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// Attr is one key/value attribute attached to a span or event.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// Int64 builds a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Event is one timestamped structured record attached to a span.
type Event struct {
	Time  time.Time
	Name  string
	Attrs []Attr
}

// Span is one node of the trace tree: a named, timed region with
// attributes, events and children. All methods are safe on a nil receiver
// (they do nothing), which is the uninstrumented fast path.
type Span struct {
	o *Observer // owner; holds the lock guarding all span mutation

	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	events   []Event
	children []*Span
}

// Observer bundles the tracer, the metrics registry and the event logger
// for one instrumented run (or one long-lived process). All methods are
// safe on a nil receiver and safe for concurrent use.
type Observer struct {
	mu       sync.Mutex
	epoch    time.Time
	roots    []*Span
	reg      *Registry
	logger   *slog.Logger
	now      func() time.Time
	profiler *Profiler
	bus      *Bus

	// remote holds span records relayed from other processes (fabric
	// workers), already rebased onto this process's clock; see remote.go.
	remote []RemoteSpan
}

// Option configures New.
type Option func(*Observer)

// WithLogger mirrors every span start/end (at Debug) and every event (at
// Info) onto the given structured logger.
func WithLogger(l *slog.Logger) Option { return func(o *Observer) { o.logger = l } }

// WithClock overrides the time source (deterministic tests).
func WithClock(now func() time.Time) Option { return func(o *Observer) { o.now = now } }

// WithProfiler attaches a pprof profiler: instrumented code (the pipeline's
// stage runner) brackets each stage with StageStart/StageEnd so per-stage
// CPU profiles land next to the telemetry they explain.
func WithProfiler(p *Profiler) Option { return func(o *Observer) { o.profiler = p } }

// WithBus mirrors every span start/end and span event onto the streaming
// bus, turning the post-mortem trace tree into a live feed: condenser
// merges and race outcomes reach subscribers as kind "event", and the
// progress facts of campaigns, searches and certifications (Span.Publish)
// as their own typed kinds, the moment they happen.
func WithBus(b *Bus) Option { return func(o *Observer) { o.bus = b } }

// New builds an Observer with a fresh metrics registry.
func New(opts ...Option) *Observer {
	o := &Observer{reg: NewRegistry(), now: time.Now}
	for _, opt := range opts {
		opt(o)
	}
	o.epoch = o.now()
	return o
}

// Metrics returns the observer's registry (nil for a nil observer).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Profiler returns the attached profiler (nil for a nil observer or when
// none was attached; a nil *Profiler absorbs every call).
func (o *Observer) Profiler() *Profiler {
	if o == nil {
		return nil
	}
	return o.profiler
}

// Bus returns the streaming bus attached via WithBus (nil for a nil
// observer or when none was attached; a nil *Bus absorbs every call).
func (o *Observer) Bus() *Bus {
	if o == nil {
		return nil
	}
	return o.bus
}

// Logger returns the observer's structured logger, which may be nil.
func (o *Observer) Logger() *slog.Logger {
	if o == nil {
		return nil
	}
	return o.logger
}

// StartSpan opens a new root-level span.
func (o *Observer) StartSpan(name string, attrs ...Attr) *Span {
	if o == nil {
		return nil
	}
	s := &Span{o: o, name: name, attrs: attrs, start: o.now()}
	o.mu.Lock()
	o.roots = append(o.roots, s)
	o.mu.Unlock()
	o.logSpan("span start", name)
	if o.bus != nil {
		o.bus.publish("span_start", "", name, attrs)
	}
	return s
}

// Roots returns the top-level spans recorded so far.
func (o *Observer) Roots() []*Span {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*Span(nil), o.roots...)
}

func (o *Observer) logSpan(msg, name string) {
	if o.logger != nil && o.logger.Enabled(context.Background(), slog.LevelDebug) {
		o.logger.Debug(msg, slog.String("span", name))
	}
}

func (o *Observer) logEvent(span, name string, attrs []Attr) {
	if o.logger == nil || !o.logger.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	args := make([]any, 0, 2*(len(attrs)+1))
	args = append(args, "span", span)
	for _, a := range attrs {
		args = append(args, a.Key, a.Value)
	}
	o.logger.Info(name, args...)
}

// StartChild opens a child span under s.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := &Span{o: s.o, name: name, attrs: attrs, start: s.o.now()}
	s.o.mu.Lock()
	s.children = append(s.children, c)
	s.o.mu.Unlock()
	s.o.logSpan("span start", name)
	if s.o.bus != nil {
		s.o.bus.publish("span_start", s.name, name, attrs)
	}
	return c
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.o.now()
	first := false
	s.o.mu.Lock()
	if s.end.IsZero() {
		s.end = t
		first = true
	}
	s.o.mu.Unlock()
	s.o.logSpan("span end", s.name)
	if first && s.o.bus != nil {
		dur := float64(t.Sub(s.start)) / float64(time.Millisecond)
		s.o.bus.publish("span_end", "", s.name, []Attr{Float("duration_ms", dur)})
	}
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.o.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.o.mu.Unlock()
}

// Event appends a timestamped structured event to the span and mirrors it
// to the observer's logger and, as kind "event", to its bus.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.emit("event", name, name, attrs)
}

// Publish records one typed progress fact: it appends an event named kind
// to the span, logs it, and publishes it on the observer's bus (if any) as
// kind, with name (a campaign label, "search" or "certify") and the span's
// name. The span event and the bus event carry the same attributes, so the
// trace and the live stream cannot disagree.
func (s *Span) Publish(kind, name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.emit(kind, kind, name, attrs)
}

// emit appends event to the span, logs it and puts it on the bus as kind
// under name.
func (s *Span) emit(kind, event, name string, attrs []Attr) {
	e := Event{Time: s.o.now(), Name: event, Attrs: attrs}
	s.o.mu.Lock()
	s.events = append(s.events, e)
	s.o.mu.Unlock()
	s.o.logEvent(s.name, event, attrs)
	if s.o.bus != nil {
		s.o.bus.publish(kind, s.name, name, attrs)
	}
}

// Profiler returns the owning observer's profiler (nil on a nil span).
func (s *Span) Profiler() *Profiler {
	if s == nil {
		return nil
	}
	return s.o.Profiler()
}

// Metrics returns the owning observer's registry (nil on a nil span).
func (s *Span) Metrics() *Registry {
	if s == nil {
		return nil
	}
	return s.o.reg
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's elapsed time (0 when unfinished or nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.o.mu.Lock()
	defer s.o.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Children returns the span's child spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.o.mu.Lock()
	defer s.o.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Events returns the span's recorded events.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.o.mu.Lock()
	defer s.o.mu.Unlock()
	return append([]Event(nil), s.events...)
}
