package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	depint "repro"
	"repro/internal/fabric"
	"repro/internal/faultsim"
	"repro/internal/obs"
	"repro/internal/scengen"
)

// Sizes of the campaign and fabric workloads.
const (
	// campaignProcs is the scenario size campaigns run over (scengen's
	// medium preset).
	campaignProcs = 36
	// campaignSeeds is the number of scenarios per family: each is
	// integrated during set-up and run under both fault models.
	campaignSeeds = 24
	// campaignTrials and fabricTrials are the trials of one campaign
	// call; a fabric call pays the wire on top, so it runs fewer.
	campaignTrials = 6400
	fabricTrials   = 3200
)

// faultModels are the two fault models every scenario runs under; they
// differ several-fold in cost per trial.
var faultModels = []faultsim.FaultModel{faultsim.SingleFault(), faultsim.Correlated()}

// campaignCall is one closed-loop campaign call.
type campaignCall struct {
	c      faultsim.Campaign
	family string
	relay  bool // fabric only: telemetry relay on
}

// campaignRun is a set-up campaign or fabric workload.
type campaignRun struct {
	plan   []campaignCall
	fabric bool

	last    faultsim.Result
	lastDur float64

	// kept holds results verify re-derives: the seed-chosen family's first
	// scenario (campaign) or every call (fabric).
	kept     map[int]faultsim.Result
	keepCall func(i int) bool
	errs     []error
}

func setupCampaign(cfg config, st *setupStats) (instance, error) {
	return setupCampaigns(cfg, st, false)
}

func setupFabric(cfg config, st *setupStats) (instance, error) {
	return setupCampaigns(cfg, st, true)
}

// setupCampaigns generates campaignSeeds medium scenarios per family,
// integrates each with the default pipeline and plans one campaign per
// scenario and fault model (fabric: each with the relay off, then on),
// scenario by scenario so that any prefix of the plan is balanced.
func setupCampaigns(cfg config, st *setupStats, viaFabric bool) (instance, error) {
	seeds, trials := campaignSeeds, campaignTrials
	if viaFabric {
		trials = fabricTrials
	}
	if cfg.quick {
		seeds, trials = 1, faultsim.ChunkSize
	}
	r := &campaignRun{fabric: viaFabric, kept: map[int]faultsim.Result{}}
	for k := 0; k < seeds; k++ {
		for _, fam := range scengen.Families() {
			seed := inputSeed(cfg.seed, k)
			sys, err := st.generate(fam, campaignProcs, seed)
			if err != nil {
				return nil, err
			}
			res, err := depint.Integrate(sys)
			if err != nil {
				return nil, fmt.Errorf("integrate %s: %w", sys.Name, err)
			}
			for _, m := range faultModels {
				c := faultsim.Campaign{
					Graph:             res.Expanded,
					HWOf:              res.HWOf(),
					Trials:            trials,
					Seed:              seed,
					Workers:           workers,
					CriticalThreshold: 10,
					CommFaultFraction: 0.3,
					Model:             m,
					Label:             sys.Name + "/" + m.Name(),
				}
				relays := []bool{false}
				if viaFabric {
					relays = []bool{false, true}
				}
				for _, relay := range relays {
					r.plan = append(r.plan, campaignCall{c, string(fam), relay})
				}
			}
		}
	}
	if viaFabric {
		r.keepCall = func(int) bool { return true }
	} else {
		fam := string(scengen.Families()[cfg.seed%uint64(len(scengen.Families()))])
		r.keepCall = func(i int) bool { return i < 4*len(faultModels) && r.plan[i].family == fam }
	}
	return r, nil
}

// block is one scenario of every family under every fault model (and,
// for the fabric, relay state).
func (r *campaignRun) block() int {
	n := len(scengen.Families()) * len(faultModels)
	if r.fabric {
		n *= 2
	}
	return n
}

func (r *campaignRun) calls() []call {
	out := make([]call, len(r.plan))
	for i, p := range r.plan {
		out[i] = call{family: p.family, ops: float64(p.c.Trials) / 1000}
	}
	return out
}

func (r *campaignRun) run(i int) error {
	p := r.plan[i]
	t0 := time.Now()
	var err error
	if r.fabric {
		r.last, _, _, err = serve(p.c, p.relay, tcpTransport)
	} else {
		r.last, err = faultsim.Run(p.c)
	}
	r.lastDur = time.Since(t0).Seconds()
	return err
}

func (r *campaignRun) after(i int) error {
	if r.keepCall(i) {
		if _, seen := r.kept[i]; !seen {
			r.kept[i] = r.last
		}
	}
	return checkCampaign(r.plan[i].c, r.last)
}

// verify re-derives kept results by another route: the chosen campaign
// family at Workers=1, every fabric result by a local run.
func (r *campaignRun) verify() []error {
	var errs []error
	for i, got := range r.kept {
		c := r.plan[i].c
		route := "a local run"
		if !r.fabric {
			c.Workers, route = 1, "Workers=1"
		}
		want, err := faultsim.Run(c)
		if err == nil && !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("campaign %s: result differs from %s", c.Label, route)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// replay repeats call i with each layer timed from outside: a campaign as
// faultsim.ChunkRunner chunks absorbed by a faultsim.Merger, one at a
// time; a fabric call over byte-counting connections, then locally for
// the overhead comparison.
func (r *campaignRun) replay(i int, t *tracer) error {
	p := r.plan[i]
	if r.fabric {
		return r.replayFabric(p, t)
	}
	root := t.start("faultsim.replay", 0)
	got, err := replayCampaign(p.c, t, root.ID)
	t.sum["replay.s"] += t.finish(root)
	if err == nil && !reflect.DeepEqual(got, r.last) {
		err = fmt.Errorf("campaign %s: chunk-by-chunk replay differs from Run", p.c.Label)
	}
	return err
}

func replayCampaign(c faultsim.Campaign, t *tracer, parent int) (faultsim.Result, error) {
	runner, err := faultsim.NewChunkRunner(c)
	if err != nil {
		return faultsim.Result{}, err
	}
	merger, err := faultsim.NewMerger(c, 1)
	if err != nil {
		return faultsim.Result{}, err
	}
	for k := 0; k < faultsim.NumChunks(c.Trials); k++ {
		b, e := faultsim.ChunkBounds(k, c.Trials)
		var out *faultsim.ChunkOutput
		a0 := readAllocBytes()
		err := t.stage(parent, "faultsim.chunk", func() error {
			var err error
			out, err = runner.Run(context.Background(), b, e)
			return err
		})
		t.sum["faultsim.chunk.bytes"] += readAllocBytes() - a0
		if err != nil {
			return faultsim.Result{}, err
		}
		t.sum["faultsim.chunks"]++
		t.sum["faultsim.trials"] += float64(e - b)
		if err := t.stage(parent, "faultsim.merge", func() error {
			_, err := merger.Absorb(out)
			return err
		}); err != nil {
			return faultsim.Result{}, err
		}
	}
	return merger.Finish(), nil
}

func (r *campaignRun) replayFabric(p campaignCall, t *tracer) error {
	state := "off"
	if p.relay {
		state = "on"
	}
	t.sum["fabric."+state+".s"] += r.lastDur
	t.sum["fabric."+state+".trials"] += float64(p.c.Trials)

	var counts wireCounts
	root := t.start("fabric.replay", 0)
	got, stats, remote, err := serve(p.c, p.relay, counts.transport)
	for _, rs := range remote {
		t.next++
		t.keep(span{ID: t.next, Parent: root.ID, Op: t.op, Name: rs.Name, Worker: rs.Worker,
			Start: float64(rs.StartUS) - float64(t.t0.UnixMicro()),
			End:   float64(rs.StartUS+rs.DurUS) - float64(t.t0.UnixMicro())})
	}
	t.sum["replay.s"] += t.finish(root)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, r.last) {
		return fmt.Errorf("campaign %s: traced fabric run differs from the untraced one", p.c.Label)
	}
	t.sum["fabric.bytes"] += float64(counts.bytes.Load())
	t.sum["fabric.frames"] += float64(counts.frames.Load())
	t.sum["fabric.trials"] += float64(p.c.Trials)
	t.sum["fabric.chunks"] += float64(faultsim.NumChunks(p.c.Trials))
	t.sum["fabric.leases"] += float64(stats.LeasesGranted)
	t.sum["fabric.reassigned"] += float64(stats.Reassigned)
	t.sum["fabric.duplicates"] += float64(stats.Duplicates)
	t.sum["fabric.local_chunks"] += float64(stats.LocalChunks)

	local := t.start("faultsim.local", 0)
	_, err = faultsim.Run(p.c)
	t.finish(local)
	t.sum["faultsim.local.trials"] += float64(p.c.Trials)
	return err
}

// transport opens a coordinator listener and returns it with a dialer for
// its workers.
type transport func() (fabric.Listener, fabric.Dialer, error)

func tcpTransport() (fabric.Listener, fabric.Dialer, error) {
	ln, err := fabric.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	return ln, fabric.DialTCP(ln.Addr()), nil
}

// serve runs one campaign through fabric.Serve and `workers` in-process
// fabric.RunWorker loops over the given transport. Workers are flagless:
// they configure themselves from the spec the coordinator ships. With
// relay on, the coordinator carries a bus (drained by a subscriber) and an
// observer, which switches the workers' telemetry relay on; the relayed
// decode/evaluate/encode spans are returned.
func serve(c faultsim.Campaign, relay bool, tr transport) (faultsim.Result, fabric.Stats, []obs.RemoteSpan, error) {
	ln, dial, err := tr()
	if err != nil {
		return faultsim.Result{}, fabric.Stats{}, nil, err
	}
	cfg := fabric.Config{Campaign: c, Listener: ln}
	if relay {
		bus := obs.NewBus(4096)
		sub := bus.Subscribe(0, 4096)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				if _, ok := sub.Next(context.Background()); !ok {
					return
				}
			}
		}()
		defer func() {
			bus.Close()
			<-drained
		}()
		cfg.Bus, cfg.Observer = bus, obs.New(obs.WithBus(bus))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			werrs[w] = fabric.RunWorker(ctx, fabric.WorkerConfig{Dial: dial, Name: fmt.Sprintf("w%d", w), Seed: uint64(w + 1)})
		}(w)
	}
	res, stats, err := fabric.Serve(ctx, cfg)
	// Every worker has its done frame or is still redialling a listener
	// that is gone; cancel the latter and wait for all of them.
	cancel()
	wg.Wait()
	for _, werr := range werrs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			err = errors.Join(err, fmt.Errorf("fabric worker: %w", werr))
		}
	}
	return res, stats, cfg.Observer.RemoteSpans(), err
}

// wireCounts tallies the frames and bytes both ends of every fabric
// connection write. Each frame is one length-prefixed write of the codec.
type wireCounts struct {
	frames, bytes atomic.Int64
}

// transport is a loopback TCP transport whose connections count into w.
func (w *wireCounts) transport() (fabric.Listener, fabric.Dialer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	dial := func(ctx context.Context) (fabric.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		return fabric.NewCodecConn(&countingConn{c, w}), nil
	}
	return &countingListener{ln, w}, dial, nil
}

type countingListener struct {
	ln net.Listener
	w  *wireCounts
}

func (l *countingListener) Accept() (fabric.Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return fabric.NewCodecConn(&countingConn{c, l.w}), nil
}

func (l *countingListener) Close() error { return l.ln.Close() }
func (l *countingListener) Addr() string { return l.ln.Addr().String() }

type countingConn struct {
	net.Conn
	w *wireCounts
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.frames.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}
