// Streamcheck is the `make stream-check` gate: it runs the full
// observability fabric in-process — an Integrate of the paper's worked
// example, a fault-injection campaign, a distributed fabric campaign (plus
// a second one whose lone worker lies, to exercise quarantine and local
// fallback, and a third with an artificially slow worker, to exercise the
// federated-telemetry kinds: relayed remote spans, clock estimates and
// straggler detection), an adversarial search and a small robustness
// certification, all publishing onto one obs.Bus — and then verifies the
// streaming contract end to end:
//
//   - every event, JSON-encoded exactly as /events and -watch emit it,
//     validates against the committed schema
//     (docs/streaming/events.schema.json);
//   - every kind in the schema's enum was actually observed, so the
//     schema cannot silently drift ahead of (or behind) the code;
//   - sequence numbers are strictly increasing and replay from a
//     mid-stream sequence number returns exactly the suffix;
//   - the /dashboard document is self-contained: no external URLs,
//     imports or script sources.
//
// Exits non-zero with a per-check report on any violation.
//
// Usage: go run ./cmd/streamcheck [-schema docs/streaming/events.schema.json] [-trials 2000]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/fabric"
	"repro/internal/faultsim"
	"repro/internal/obs"
)

func main() {
	schemaPath := flag.String("schema", "docs/streaming/events.schema.json",
		"JSON Schema the event stream must validate against")
	trials := flag.Int("trials", 2000, "fault-injection trials for the probe campaign")
	flag.Parse()

	schema, err := loadSchema(*schemaPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stream-check: %v\n", err)
		os.Exit(1)
	}

	events, bus, err := produce(*trials)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stream-check: producing events: %v\n", err)
		os.Exit(1)
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(os.Stderr, "stream-check: FAIL: "+format+"\n", args...)
	}

	// 1. Schema validation of the wire encoding of every event.
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			fail("event seq=%d does not JSON-encode: %v", ev.Seq, err)
			continue
		}
		var doc any
		if err := json.Unmarshal(line, &doc); err != nil {
			fail("event seq=%d round-trip: %v", ev.Seq, err)
			continue
		}
		if err := validate(schema, doc, "$"); err != nil {
			fail("event seq=%d violates schema: %v\n  %s", ev.Seq, err, line)
		}
	}
	fmt.Printf("stream-check: %d events validated against %s\n", len(events), *schemaPath)

	// 2. Enum coverage: every kind the schema admits must have occurred.
	seen := map[string]bool{}
	for _, ev := range events {
		seen[ev.Kind] = true
	}
	for _, kind := range schemaKinds(schema) {
		if !seen[kind] {
			fail("schema kind %q never observed — enum drifted ahead of the code", kind)
		}
	}

	// 3. Monotone sequence numbers.
	var last uint64
	for _, ev := range events {
		if ev.Seq <= last {
			fail("sequence not strictly increasing: %d after %d", ev.Seq, last)
			break
		}
		last = ev.Seq
	}

	// 4. Replay from mid-stream returns exactly the retained suffix.
	mid := events[len(events)/2].Seq
	sub := bus.Subscribe(mid, len(events)+1)
	want := last - mid + 1
	var got uint64
	next := mid
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		if ev.Seq != next {
			fail("replay from %d: got seq %d, want %d", mid, ev.Seq, next)
			break
		}
		next++
		got++
	}
	sub.Close()
	if got != want {
		fail("replay from %d returned %d events, want %d", mid, got, want)
	} else {
		fmt.Printf("stream-check: replay from seq %d returned the exact %d-event suffix\n", mid, want)
	}

	// 5. Dashboard self-containment.
	for _, marker := range []string{"http://", "https://", "//cdn", "@import", "src=\"/", "integrity="} {
		if strings.Contains(obs.DashboardHTML, marker) {
			fail("dashboard contains external reference %q", marker)
		}
	}
	if !strings.Contains(obs.DashboardHTML, "EventSource") {
		fail("dashboard lost its /events wiring")
	}
	for _, marker := range []string{"straggler", "clock_offset_us", "latency_p50_ms", "latency_p95_ms"} {
		if !strings.Contains(obs.DashboardHTML, marker) {
			fail("dashboard lost its fabric telemetry column %q", marker)
		}
	}
	fmt.Println("stream-check: dashboard is self-contained")

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "stream-check: %d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("stream-check: OK")
}

// produce runs every event source against one bus and returns the full
// ordered stream (the subscriber's buffer is sized to lose nothing) plus
// the bus, whose replay ring also retains everything for the replay check.
func produce(trials int) ([]obs.BusEvent, *obs.Bus, error) {
	const bufCap = 1 << 14
	bus := obs.NewBus(bufCap)
	sub := bus.Subscribe(0, bufCap)
	defer sub.Close()
	observer := obs.New(obs.WithBus(bus))

	sys := depint.PaperExample()
	res, err := depint.Integrate(sys, depint.WithObserver(observer))
	if err != nil {
		return nil, nil, fmt.Errorf("integrate: %w", err)
	}

	span := observer.StartSpan("campaign")
	_, err = faultsim.Run(faultsim.Campaign{
		Graph:   res.Expanded,
		HWOf:    res.HWOf(),
		Trials:  trials,
		Seed:    7,
		Workers: 2,
		Span:    span,
		Label:   "stream-check",
	})
	span.End()
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: %w", err)
	}

	// A small distributed campaign over the in-process transport feeds
	// the fabric_* kinds: worker liveness, lease churn, terminal summary.
	fc := faultsim.Campaign{
		Graph: res.Expanded, HWOf: res.HWOf(),
		Trials: 512, Seed: 11, Label: "fabric-check",
	}
	pl := fabric.NewPipeListener()
	serveDone := make(chan error, 1)
	go func() {
		_, _, err := fabric.Serve(context.Background(), fabric.Config{
			Campaign: fc, Listener: pl, Bus: bus,
		})
		serveDone <- err
	}()
	wctx, wcancel := context.WithCancel(context.Background())
	var wwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			_ = fabric.RunWorker(wctx, fabric.WorkerConfig{
				Campaign: fc, Dial: pl.Dial(), Name: fmt.Sprintf("fw%d", i),
				HeartbeatEvery: 20 * time.Millisecond,
				BackoffBase:    2 * time.Millisecond, MaxReconnects: 100,
			})
		}(i)
	}
	fabricErr := <-serveDone
	wcancel()
	wwg.Wait()
	if fabricErr != nil {
		return nil, nil, fmt.Errorf("fabric: %w", fabricErr)
	}

	// A second, adversarial fabric run feeds fabric_quarantine: its only
	// worker corrupts every chunk, so the first spot-check quarantines it
	// and the coordinator finishes the campaign locally.
	qc := faultsim.Campaign{
		Graph: res.Expanded, HWOf: res.HWOf(),
		Trials: 256, Seed: 13, Label: "fabric-quarantine-check",
	}
	pl2 := fabric.NewPipeListener()
	qDone := make(chan error, 1)
	go func() {
		_, _, err := fabric.Serve(context.Background(), fabric.Config{
			Campaign: qc, Listener: pl2, Bus: bus, SpotCheck: 0.25,
		})
		qDone <- err
	}()
	qctx, qcancel := context.WithCancel(context.Background())
	qwDone := make(chan struct{})
	go func() {
		defer close(qwDone)
		_ = fabric.RunWorker(qctx, fabric.WorkerConfig{
			Campaign: qc, Dial: fabric.CorruptDialer(pl2.Dial(), 13, 1), Name: "liar",
			HeartbeatEvery: 20 * time.Millisecond,
			BackoffBase:    2 * time.Millisecond, MaxReconnects: 100,
		})
	}()
	if err := <-qDone; err != nil {
		qcancel()
		<-qwDone
		return nil, nil, fmt.Errorf("quarantine fabric: %w", err)
	}
	qcancel()
	<-qwDone

	// A third fabric run feeds the federated-telemetry kinds: the
	// coordinator has both Bus and Observer, so grant frames carry trace
	// context and workers relay phase times (fabric_span) and clock echoes
	// (fabric_clock) back. One worker's transport delays every result by
	// far more than the fleet's chunk time, so its latency p95 trips the
	// straggler detector (fabric_straggler) at the lowered thresholds.
	tc := faultsim.Campaign{
		Graph: res.Expanded, HWOf: res.HWOf(),
		Trials: 2048, Seed: 17, Label: "fabric-telemetry-check",
	}
	pl3 := fabric.NewPipeListener()
	tDone := make(chan error, 1)
	go func() {
		_, _, err := fabric.Serve(context.Background(), fabric.Config{
			Campaign: tc, Listener: pl3, Bus: bus, Observer: observer,
			LeaseTTL:        2 * time.Second,
			StragglerFactor: 2, StragglerMin: 2,
		})
		tDone <- err
	}()
	tctx, tcancel := context.WithCancel(context.Background())
	var twg sync.WaitGroup
	for i := 0; i < 3; i++ {
		twg.Add(1)
		go func(i int) {
			defer twg.Done()
			dial := pl3.Dial()
			if i == 0 {
				dial = slowDialer(dial, 25*time.Millisecond)
			}
			_ = fabric.RunWorker(tctx, fabric.WorkerConfig{
				Campaign: tc, Dial: dial, Name: fmt.Sprintf("tw%d", i),
				HeartbeatEvery: 20 * time.Millisecond,
				BackoffBase:    2 * time.Millisecond, MaxReconnects: 100,
			})
		}(i)
	}
	tErr := <-tDone
	tcancel()
	twg.Wait()
	if tErr != nil {
		return nil, nil, fmt.Errorf("telemetry fabric: %w", tErr)
	}
	if len(observer.RemoteSpans()) == 0 {
		return nil, nil, fmt.Errorf("telemetry fabric relayed no remote spans")
	}

	span = observer.StartSpan("adversarial_search")
	_, err = faultsim.Search(faultsim.SearchConfig{
		Graph: res.Expanded, HWOf: res.HWOf(),
		Trials: 200, Seed: 5, MaxEvals: 4, Span: span,
	})
	span.End()
	if err != nil {
		return nil, nil, fmt.Errorf("search: %w", err)
	}

	if _, err := depint.CertifyRobustness(sys, depint.RobustnessConfig{
		Epsilons: []float64{0, 0.05}, Samples: 3, Trials: 200,
		SkipSensitivity: true,
		Options:         []depint.Option{depint.WithObserver(observer)},
	}); err != nil {
		return nil, nil, fmt.Errorf("certify: %w", err)
	}

	var events []obs.BusEvent
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		events = append(events, ev)
	}
	if sub.Dropped() != 0 || bus.Dropped() != 0 {
		return nil, nil, fmt.Errorf("collector dropped events (%d sub / %d bus): raise cap",
			sub.Dropped(), bus.Dropped())
	}
	if len(events) == 0 {
		return nil, nil, fmt.Errorf("no events produced")
	}
	return events, bus, nil
}

// slowConn delays every result send, inflating the worker's observed
// chunk latency (leased→resulted on the coordinator clock) without
// touching protocol correctness.
type slowConn struct {
	fabric.Conn
	delay time.Duration
}

func (c slowConn) Send(f *fabric.Frame) error {
	if f.Type == fabric.TypeResult {
		time.Sleep(c.delay)
	}
	return c.Conn.Send(f)
}

// slowDialer wraps every connection d opens in a slowConn.
func slowDialer(d fabric.Dialer, delay time.Duration) fabric.Dialer {
	return func(ctx context.Context) (fabric.Conn, error) {
		c, err := d(ctx)
		if err != nil {
			return nil, err
		}
		return slowConn{Conn: c, delay: delay}, nil
	}
}

// loadSchema reads and minimally sanity-checks the committed schema.
func loadSchema(path string) (map[string]any, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var schema map[string]any
	if err := json.Unmarshal(raw, &schema); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if schema["type"] != "object" {
		return nil, fmt.Errorf("%s: root type must be object", path)
	}
	return schema, nil
}

// schemaKinds extracts the kind enum from the schema.
func schemaKinds(schema map[string]any) []string {
	props, _ := schema["properties"].(map[string]any)
	kind, _ := props["kind"].(map[string]any)
	enum, _ := kind["enum"].([]any)
	out := make([]string, 0, len(enum))
	for _, v := range enum {
		if s, ok := v.(string); ok {
			out = append(out, s)
		}
	}
	return out
}

// validate is a purpose-sized JSON Schema checker covering the subset the
// committed schema uses: type, required, properties, additionalProperties
// (boolean form), enum and minimum. Numbers are integers when integral.
func validate(schema map[string]any, doc any, path string) error {
	if t, ok := schema["type"].(string); ok {
		if err := checkType(t, doc, path); err != nil {
			return err
		}
	}
	if enum, ok := schema["enum"].([]any); ok {
		found := false
		for _, v := range enum {
			if v == doc {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: %v not in enum", path, doc)
		}
	}
	if min, ok := schema["minimum"].(float64); ok {
		if n, isNum := doc.(float64); isNum && n < min {
			return fmt.Errorf("%s: %v below minimum %v", path, n, min)
		}
	}
	obj, isObj := doc.(map[string]any)
	if !isObj {
		return nil
	}
	if req, ok := schema["required"].([]any); ok {
		for _, r := range req {
			key, _ := r.(string)
			if _, present := obj[key]; !present {
				return fmt.Errorf("%s: missing required property %q", path, key)
			}
		}
	}
	props, _ := schema["properties"].(map[string]any)
	for key, val := range obj {
		sub, known := props[key].(map[string]any)
		if !known {
			if ap, ok := schema["additionalProperties"].(bool); ok && !ap {
				return fmt.Errorf("%s: unexpected property %q", path, key)
			}
			continue
		}
		if err := validate(sub, val, path+"."+key); err != nil {
			return err
		}
	}
	return nil
}

// checkType implements the JSON Schema primitive types the schema uses.
func checkType(t string, doc any, path string) error {
	ok := false
	switch t {
	case "object":
		_, ok = doc.(map[string]any)
	case "string":
		_, ok = doc.(string)
	case "number":
		_, ok = doc.(float64)
	case "integer":
		n, isNum := doc.(float64)
		ok = isNum && n == math.Trunc(n)
	case "boolean":
		_, ok = doc.(bool)
	}
	if !ok {
		return fmt.Errorf("%s: %v is not a %s", path, doc, t)
	}
	return nil
}
