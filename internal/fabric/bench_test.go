package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/attrs"
	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/obs"
)

// benchCampaign mirrors testCampaign without a *testing.T so benchmarks
// can build it in setup code.
func benchCampaign(trials int) faultsim.Campaign {
	g := graph.New()
	crits := map[string]float64{"a": 12, "b": 3, "c": 7, "d": 1}
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: crits[n]})); err != nil {
			panic(err)
		}
	}
	for _, e := range []struct {
		from, to string
		w        float64
	}{
		{"a", "b", 0.6}, {"b", "c", 0.4}, {"c", "d", 0.5}, {"d", "a", 0.3}, {"a", "c", 0.2},
	} {
		if err := g.SetEdge(e.from, e.to, e.w); err != nil {
			panic(err)
		}
	}
	return faultsim.Campaign{
		Graph:             g,
		HWOf:              map[string]string{"a": "h1", "b": "h1", "c": "h2", "d": "h2"},
		Trials:            trials,
		Seed:              1998,
		CriticalThreshold: 10,
		CommFaultFraction: 0.3,
	}
}

// BenchmarkFabricCampaign measures one full distributed campaign over the
// in-process transport at 1, 2 and 4 workers — protocol overhead plus
// compute. The merged result is the same at every width; only wall clock moves.
func BenchmarkFabricCampaign(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%d", workers), func(b *testing.B) {
			c := benchCampaign(6400)
			for i := 0; i < b.N; i++ {
				pl := NewPipeListener()
				done := make(chan error, 1)
				go func() {
					_, _, err := Serve(context.Background(), Config{Campaign: c, Listener: pl})
					done <- err
				}()
				wctx, wcancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						_ = RunWorker(wctx, WorkerConfig{
							Campaign:       c,
							Dial:           pl.Dial(),
							Name:           fmt.Sprintf("w%d", w),
							HeartbeatEvery: 50 * time.Millisecond,
							BackoffBase:    time.Millisecond,
							MaxReconnects:  100,
							Seed:           uint64(w),
						})
					}(w)
				}
				if err := <-done; err != nil {
					b.Fatal(err)
				}
				wcancel()
				wg.Wait()
			}
		})
	}
}

// BenchmarkFabricTelemetry isolates the federation overhead: the same
// 2-worker campaign with the relay off (no telemetry consumers — nil
// *relay on the workers, zero-valued frame fields) and on (bus +
// observer at the coordinator: trace propagation, span relay, clock
// samples, latency attribution). The delta is the whole cost of
// distributed observability; the merged result is identical either way.
func BenchmarkFabricTelemetry(b *testing.B) {
	run := func(b *testing.B, bus *obs.Bus, observer *obs.Observer) {
		c := benchCampaign(6400)
		for i := 0; i < b.N; i++ {
			pl := NewPipeListener()
			done := make(chan error, 1)
			go func() {
				_, _, err := Serve(context.Background(), Config{
					Campaign: c, Listener: pl, Bus: bus, Observer: observer,
				})
				done <- err
			}()
			wctx, wcancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					_ = RunWorker(wctx, WorkerConfig{
						Campaign:       c,
						Dial:           pl.Dial(),
						Name:           fmt.Sprintf("w%d", w),
						HeartbeatEvery: 50 * time.Millisecond,
						BackoffBase:    time.Millisecond,
						MaxReconnects:  100,
						Seed:           uint64(w),
					})
				}(w)
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			wcancel()
			wg.Wait()
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil, nil) })
	b.Run("relay", func(b *testing.B) {
		bus := obs.NewBus(1 << 12)
		defer bus.Close()
		// A draining subscriber keeps the replay ring realistic without
		// ever applying backpressure (the bus drops, never blocks).
		sub := bus.Subscribe(0, 1<<12)
		defer sub.Close()
		go func() {
			for {
				if _, ok := sub.Next(nil); !ok {
					return
				}
			}
		}()
		run(b, bus, obs.New(obs.WithBus(bus)))
	})
}

// BenchmarkFrameCodec measures the TCP codec alone — the pipe transport
// the benchmarks above use never serialises a frame — on the three frames
// a campaign sends most or largest: a result frame over a real chunk of a
// generated 36-process scenario, a lease grant, and the campaign frame a
// flagless worker configures from. The json variants run encoding/json on
// the same frames, the reference the codec is byte-identical to.
func BenchmarkFrameCodec(b *testing.B) {
	frames := map[string]*Frame{}
	for _, f := range codecFrames(b, scenarioCampaign(b, 640)) {
		if frames[f.Type] == nil {
			frames[f.Type] = f
		}
	}
	for _, typ := range []string{TypeResult, TypeLease, TypeCampaign} {
		f := frames[typ]
		payload, err := appendFrame(nil, f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(typ+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			buf := make([]byte, 0, len(payload))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = appendFrame(buf[:0], f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(typ+"/encode-json", func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(typ+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var g Frame
				if err := decodeFrame(payload, &g, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(typ+"/decode-json", func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var g Frame
				if err := json.Unmarshal(payload, &g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaignSetup measures what it costs to turn the 36-process
// scenario's campaign into a chunk runner and its fingerprint, per
// campaign: from the decoded spec, as a flagless worker does (spec), and
// from the Campaign and its graph, as a flag-configured worker does
// (campaign). A coordinator's Run pays the campaign path once more for
// its Merger, which shares the runner's environment. Run with -benchmem.
func BenchmarkCampaignSetup(b *testing.B) {
	c := scenarioCampaign(b, 3200)
	r, err := faultsim.NewChunkRunner(c)
	if err != nil {
		b.Fatal(err)
	}
	data, err := appendCampaign(nil, r.Spec())
	if err != nil {
		b.Fatal(err)
	}
	spec := new(faultsim.WireCampaign)
	if err := json.Unmarshal(data, spec); err != nil {
		b.Fatal(err)
	}
	b.Run("spec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := spec.Runner()
			if err != nil {
				b.Fatal(err)
			}
			_ = r.Fingerprint()
		}
	})
	b.Run("campaign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := faultsim.NewChunkRunner(c)
			if err != nil {
				b.Fatal(err)
			}
			_ = r.Fingerprint()
		}
	})
}
