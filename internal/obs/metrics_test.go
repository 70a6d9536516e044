package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out instruments")
	}
	c.Inc()
	c.Add(4)
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments accumulated state")
	}
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot non-empty")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("merges_total", "merges")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	if c.Value() != 3 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("merges_total", "other help") != c {
		t.Error("re-registration returned a new counter")
	}
	g := r.Gauge("escape_rate", "rate")
	g.Set(0.25)
	g.Add(0.5)
	if v := g.Value(); v < 0.7499 || v > 0.7501 {
		t.Errorf("gauge = %g", v)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	hs := snap.Histograms[0]
	// le=1 -> {0.5, 1}; le=10 -> +{5}; le=100 -> +{50}; +Inf -> 5.
	want := []uint64{2, 3, 4}
	for i, w := range want {
		if hs.Buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, hs.Buckets[i], w)
		}
	}
	if hs.Sum != 556.5 || hs.Count != 5 {
		t.Errorf("sum=%g count=%d", hs.Sum, hs.Count)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("sched_feasible_calls_total", "feasibility oracle calls").Add(42)
	r.Gauge("campaign_escape_rate", "running escape rate").Set(0.125)
	h := r.Histogram("sched_feasible_seconds", "oracle latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)

	text := r.Prometheus()
	for _, want := range []string{
		"# HELP sched_feasible_calls_total feasibility oracle calls",
		"# TYPE sched_feasible_calls_total counter",
		"sched_feasible_calls_total 42",
		"# TYPE campaign_escape_rate gauge",
		"campaign_escape_rate 0.125",
		"# TYPE sched_feasible_seconds histogram",
		`sched_feasible_seconds_bucket{le="0.001"} 1`,
		`sched_feasible_seconds_bucket{le="0.01"} 1`,
		`sched_feasible_seconds_bucket{le="+Inf"} 2`,
		"sched_feasible_seconds_sum 0.5005",
		"sched_feasible_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestSnapshotSortedAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "").Inc()
	r.Counter("aa_total", "").Inc()
	snap := r.Snapshot()
	if snap.Counters[0].Name != "aa_total" || snap.Counters[1].Name != "zz_total" {
		t.Errorf("not sorted: %+v", snap.Counters)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back RegistrySnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 2 {
		t.Errorf("round trip lost counters: %+v", back)
	}
}

func TestMetricsHTTPServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "requests").Add(7)
	srv, err := Serve("127.0.0.1:0", ServerConfig{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if text := get("/metrics"); !strings.Contains(text, "requests_total 7") {
		t.Errorf("prometheus endpoint: %s", text)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Errorf("json endpoint: %+v", snap)
	}
}

// TestMetricsServerCloseIdempotent: Close must be safe to call repeatedly
// and from several goroutines at once — Finish and a context watcher may
// both fire — all observing the first call's result.
func TestMetricsServerCloseIdempotent(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", ServerConfig{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	first := srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := srv.Close(); got != first {
				t.Errorf("repeat Close = %v, want first result %v", got, first)
			}
		}()
	}
	wg.Wait()
	if err := srv.Shutdown(context.Background()); err != first {
		t.Errorf("Shutdown after Close = %v, want first result %v", err, first)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("listener still accepting after Close")
	}
}

// TestMetricsServerShutdownGraceful: Shutdown with a live context stops the
// listener and returns once the serving goroutine has exited.
func TestMetricsServerShutdownGraceful(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", ServerConfig{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close after Shutdown = %v, want the first (nil) result", err)
	}
}

// TestNilMetricsServer: the nil receiver (telemetry off) is inert.
func TestNilMetricsServer(t *testing.T) {
	var srv *MetricsServer
	if srv.Addr() != "" || srv.Close() != nil || srv.Shutdown(context.Background()) != nil {
		t.Error("nil MetricsServer is not inert")
	}
}

func TestConcurrentInstrumentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DurationBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %g", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d", h.Count())
	}
}

// TestPrometheusEscaping: label values and HELP text must be escaped per
// the text exposition format — backslash, quote and newline in labels,
// backslash and newline in help.
func TestPrometheusEscaping(t *testing.T) {
	if got := escapeLabel(`back\slash "quote"` + "\nnewline"); got != `back\\slash \"quote\"\nnewline` {
		t.Errorf("escapeLabel = %q", got)
	}
	if got := escapeLabel("plain π value"); got != "plain π value" {
		t.Errorf("escapeLabel mangled UTF-8: %q", got)
	}
	if got := escapeHelp("a\\b\nc \"quotes stay\""); got != `a\\b\nc "quotes stay"` {
		t.Errorf("escapeHelp = %q", got)
	}

	r := NewRegistry()
	r.Counter("weird_total", "help with \\ and\nnewline").Inc()
	r.Histogram("lat_seconds", "", []float64{0.5}).Observe(0.1)
	text := r.Prometheus()
	if !strings.Contains(text, `# HELP weird_total help with \\ and\nnewline`) {
		t.Errorf("HELP not escaped:\n%s", text)
	}
	if strings.Contains(text, "\nnewline") {
		t.Errorf("raw newline leaked into exposition:\n%s", text)
	}
	if !strings.Contains(text, `lat_seconds_bucket{le="0.5"} 1`) {
		t.Errorf("bucket label mangled:\n%s", text)
	}
}

// TestMetricsContentTypes: the Prometheus endpoint must declare the 0.0.4
// text format; the JSON endpoint (by path or Accept header) application/json.
func TestMetricsContentTypes(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	srv, err := Serve("127.0.0.1:0", ServerConfig{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ct := func(path, accept string) string {
		req, err := http.NewRequest("GET", "http://"+srv.Addr()+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get("Content-Type")
	}
	if got := ct("/metrics", ""); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", got)
	}
	if got := ct("/metrics.json", ""); got != "application/json" {
		t.Errorf("/metrics.json Content-Type = %q", got)
	}
	if got := ct("/metrics", "application/json"); got != "application/json" {
		t.Errorf("/metrics with Accept: application/json Content-Type = %q", got)
	}
}

// TestMetricsServerShutdownAfterClose: a Shutdown racing or following Close
// must neither hang nor return a different error — the first terminator
// wins and every later call observes its result.
func TestMetricsServerShutdownAfterClose(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", ServerConfig{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	first := srv.Close()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		got := srv.Shutdown(ctx)
		cancel()
		if got != first {
			t.Fatalf("Shutdown #%d after Close = %v, want %v", i+1, got, first)
		}
	}
	if got := srv.Close(); got != first {
		t.Fatalf("Close after Shutdown-after-Close = %v, want %v", got, first)
	}
}
