package obs

import "testing"

func TestEstimateOffset(t *testing.T) {
	// Symmetric path, worker clock 1000µs ahead: sent at 100 (coordinator
	// clock), one-way 50, the worker holds 200 and replies at worker time
	// 1350 (= coordinator 350 + skew); the reply lands at 400.
	off, rtt, ok := EstimateOffset(100, 200, 1350, 400)
	if !ok || rtt != 100 || off != 1000 {
		t.Fatalf("EstimateOffset = (%d, %d, %v), want (1000, 100, true)", off, rtt, ok)
	}
	// Same exchange with perfectly aligned clocks.
	off, rtt, ok = EstimateOffset(100, 200, 350, 400)
	if !ok || rtt != 100 || off != 0 {
		t.Fatalf("EstimateOffset = (%d, %d, %v), want (0, 100, true)", off, rtt, ok)
	}
	// Rejections: no coordinator stamp, no worker clock, negative rtt.
	for _, c := range [][4]int64{
		{0, 0, 350, 400},
		{100, 0, 0, 400},
		{100, 400, 350, 400},
	} {
		if _, _, ok := EstimateOffset(c[0], c[1], c[2], c[3]); ok {
			t.Errorf("EstimateOffset(%v) accepted, want rejected", c)
		}
	}
}

func TestAddRemoteSpansBounded(t *testing.T) {
	o := New()
	spans := make([]RemoteSpan, DefaultRemoteSpanCap+2)
	for i := range spans {
		spans[i] = RemoteSpan{ID: uint64(i + 1), Name: "evaluate"}
	}
	o.AddRemoteSpans(spans[:3]...)
	o.AddRemoteSpans(spans[3:]...)
	if got := o.RemoteSpans(); len(got) != DefaultRemoteSpanCap || got[len(got)-1].ID != DefaultRemoteSpanCap {
		t.Fatalf("kept %d spans, want the first %d", len(got), DefaultRemoteSpanCap)
	}
	if v := o.Metrics().Counter("obs_remote_spans_dropped", "").Value(); v != 2 {
		t.Fatalf("obs_remote_spans_dropped = %d, want 2", v)
	}

	// RemoteSpans hands out a copy, not internal storage.
	got := o.RemoteSpans()
	got[0].ID = 999
	if o.RemoteSpans()[0].ID == 999 {
		t.Fatal("RemoteSpans returned internal storage")
	}

	// A nil observer absorbs both directions.
	var nilO *Observer
	nilO.AddRemoteSpans(RemoteSpan{ID: 1})
	if nilO.RemoteSpans() != nil {
		t.Fatal("nil observer returned spans")
	}
}

// TestRemoteChromeTraceLanes verifies the multi-process rendering: pid 1
// is the coordinator, workers get deterministic pids in sorted-name
// order, phases land on fixed thread lanes, and — when no remote spans
// exist — no metadata records are emitted at all (local-only traces are
// unchanged by this feature).
func TestRemoteChromeTraceLanes(t *testing.T) {
	o := New()
	if evs := o.remoteChromeEvents(0); evs != nil {
		t.Fatalf("no remote spans should render nothing, got %d events", len(evs))
	}

	o.AddRemoteSpans(
		RemoteSpan{Worker: "wB", Name: "evaluate", ID: 6, Parent: 1, Chunk: 0, StartUS: 1000, DurUS: 5},
		RemoteSpan{Worker: "wA", Name: "decode", ID: 5, Parent: 1, Chunk: 1, StartUS: 2000, DurUS: 2},
	)
	evs := o.remoteChromeEvents(1000)

	meta := map[int]string{}
	var xs []ChromeEvent
	for _, ev := range evs {
		switch ev.Phase {
		case "M":
			if ev.Name != "process_name" {
				t.Fatalf("unexpected metadata record %q", ev.Name)
			}
			meta[ev.PID] = ev.Args["name"].(string)
		case "X":
			xs = append(xs, ev)
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if meta[1] != "coordinator" || meta[2] != "worker wA" || meta[3] != "worker wB" {
		t.Fatalf("process lanes misassigned: %v", meta)
	}
	if len(xs) != 2 {
		t.Fatalf("%d span events, want 2", len(xs))
	}
	for _, ev := range xs {
		switch ev.Name {
		case "evaluate":
			if ev.PID != 3 || ev.TID != 2 || ev.TS != 0 || ev.Dur != 5 {
				t.Fatalf("evaluate event misplaced: %+v", ev)
			}
		case "decode":
			if ev.PID != 2 || ev.TID != 1 || ev.TS != 1000 || ev.Dur != 2 {
				t.Fatalf("decode event misplaced: %+v", ev)
			}
		default:
			t.Fatalf("unexpected span event %q", ev.Name)
		}
	}
}

// TestExportCarriesRemoteSpans pins the trace export: relayed spans land
// in the Trace struct and in the merged Chrome trace.
func TestExportCarriesRemoteSpans(t *testing.T) {
	o := New()
	sp := o.StartSpan("local")
	sp.End()
	o.AddRemoteSpans(RemoteSpan{Worker: "w0", Name: "evaluate", ID: 2, Parent: 1, StartUS: 1, DurUS: 1})
	tr := o.Export()
	if len(tr.RemoteSpans) != 1 || tr.RemoteSpans[0].Worker != "w0" {
		t.Fatalf("Trace.RemoteSpans = %+v, want the relayed span", tr.RemoteSpans)
	}
	found := false
	for _, ev := range tr.ChromeEvents {
		if ev.Phase == "X" && ev.Name == "evaluate" && ev.PID == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("merged Chrome trace lost the remote span")
	}
}
