package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"

	depint "repro"
	"repro/internal/attrs"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/influence"
	"repro/internal/ledger"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/scengen"
	"repro/internal/sched"
	"repro/internal/spec"
)

const corpusDir = "testdata/corpus"

// Sizes of the integrate workloads.
const (
	// largeProcs is the process count of integrate-large: big enough that
	// condensation is most of every call, small enough that one run sees
	// dozens of distinct scenarios per family.
	largeProcs = 60
	// largeSeeds is the number of scenarios per family a run can reach;
	// calls cycle through them family by family.
	largeSeeds = 64
	// mixGenerated is the scenario size of the 4 generated integrate-mix
	// systems.
	mixGenerated = 12
)

// intConfig is one pipeline configuration. The zero value is
// Integrate's default (H1, importance, no ledger).
type intConfig struct {
	strategy depint.Strategy
	approach depint.Approach
	ledger   bool
}

// chain is the strategy sequence serial fallback tries: H2 and
// H2-source-target fall back to H1, as fcmtool -fallback users run them.
func (c intConfig) chain() []depint.Strategy {
	switch c.strategy {
	case 0:
		return []depint.Strategy{depint.H1}
	case depint.H2, depint.H2SourceTarget:
		return []depint.Strategy{c.strategy, depint.H1}
	}
	return []depint.Strategy{c.strategy}
}

func (c intConfig) options(led *ledger.Ledger) []depint.Option {
	var opts []depint.Option
	if c.strategy != 0 {
		chain := c.chain()
		opts = append(opts, depint.WithStrategy(chain[0]), depint.WithApproach(c.approach))
		if len(chain) > 1 {
			opts = append(opts, depint.WithFallback(chain[1:]...))
		}
	}
	if led != nil {
		opts = append(opts, depint.WithLedger(led))
	}
	return opts
}

func (c intConfig) approachOrDefault() depint.Approach {
	if c.approach == 0 {
		return depint.ByImportance
	}
	return c.approach
}

var allStrategies = []depint.Strategy{
	depint.H1, depint.H1PairAll, depint.H2, depint.H3,
	depint.Criticality, depint.TimingOrder, depint.SeparationGuided, depint.H2SourceTarget,
}

var allApproaches = []depint.Approach{depint.ByImportance, depint.Lexicographic, depint.FCRAware}

// intInput is one system the integrate workloads feed the pipeline.
type intInput struct {
	sys    *spec.System
	family string
}

// intCall is one closed-loop call: an input under a configuration.
type intCall struct {
	input int
	cfg   intConfig
}

// integrateRun is a set-up integrate workload.
type integrateRun struct {
	inputs []intInput
	plan   []intCall

	last    *depint.Result
	lastLed *ledger.Ledger
	buf     bytes.Buffer

	checked map[int]bool
	ledgers map[int][32]byte

	root   string
	corpus *corpusManifest
	specs  map[string]*spec.System
}

// setupLarge builds integrate-large: largeSeeds scenarios of every
// family at largeProcs processes, called family by family.
func setupLarge(cfg config, st *setupStats) (instance, error) {
	procs, seeds := largeProcs, largeSeeds
	if cfg.quick {
		procs, seeds = 12, 1
	}
	r := &integrateRun{}
	for k := 0; k < seeds; k++ {
		for _, fam := range scengen.Families() {
			sys, err := st.generate(fam, procs, inputSeed(cfg.seed, k))
			if err != nil {
				return nil, err
			}
			r.plan = append(r.plan, intCall{input: len(r.inputs)})
			r.inputs = append(r.inputs, intInput{sys, string(fam)})
		}
	}
	return r, nil
}

// setupMix builds integrate-mix: the 12 corpus specs, the 4 built-in
// examples and 4 small generated scenarios, each under every strategy ×
// approach with a ledger attached, in an order shuffled by the seed. The
// generated scenarios are small so that the seed-dependent share of the
// work, and with it the spread between seeds, stays small.
func setupMix(cfg config, st *setupStats) (instance, error) {
	m, specs, err := loadCorpus(cfg.root)
	if err != nil {
		return nil, err
	}
	r := &integrateRun{root: cfg.root, corpus: m, specs: specs}
	for _, e := range m.Scenarios {
		sc, err := scengen.Parse(e.Scenario)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", e.Name, err)
		}
		r.inputs = append(r.inputs, intInput{specs[e.Name], string(sc.Family)})
	}
	for _, sys := range []*spec.System{depint.PaperExample(), depint.FlightControl(), depint.BrakeByWire(), depint.IndustrialControl()} {
		r.inputs = append(r.inputs, intInput{sys, ""})
	}
	for k, fam := range scengen.Families() {
		sys, err := st.generate(fam, mixGenerated, inputSeed(cfg.seed, k))
		if err != nil {
			return nil, err
		}
		r.inputs = append(r.inputs, intInput{sys, string(fam)})
	}
	for i := range r.inputs {
		for _, s := range allStrategies {
			for _, a := range allApproaches {
				r.plan = append(r.plan, intCall{i, intConfig{s, a, true}})
			}
		}
	}
	// The first call, which set-up runs as the warm-up, stays the first
	// corpus entry under H1 and importance, so set-up time does not depend
	// on where the shuffle puts a heavy call.
	rest := r.plan[1:]
	rng := rand.New(rand.NewPCG(cfg.seed, 0x6d6978))
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return r, nil
}

// loadCorpus reads the corpus manifest and every corpus spec.
func loadCorpus(root string) (*corpusManifest, map[string]*spec.System, error) {
	raw, err := os.ReadFile(filepath.Join(root, corpusDir, "manifest.json"))
	if err != nil {
		return nil, nil, err
	}
	var m corpusManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, nil, fmt.Errorf("corpus manifest: %w", err)
	}
	specs := map[string]*spec.System{}
	for _, e := range m.Scenarios {
		f, err := os.Open(filepath.Join(root, corpusDir, e.Name+".json"))
		if err != nil {
			return nil, nil, err
		}
		sys, err := spec.Decode(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("corpus %s: %w", e.Name, err)
		}
		specs[e.Name] = sys
	}
	return &m, specs, nil
}

// block is one round of integrate-large (one scenario of every family)
// or one whole pass of integrate-mix.
func (r *integrateRun) block() int {
	if r.corpus != nil {
		return len(r.plan)
	}
	return len(scengen.Families())
}

func (r *integrateRun) calls() []call {
	out := make([]call, len(r.plan))
	for i, p := range r.plan {
		out[i] = call{family: r.inputs[p.input].family, ops: 1}
	}
	return out
}

// run is one Integrate call; with a ledger attached the call includes
// writing the ledger out, as fcmtool -ledger does.
func (r *integrateRun) run(i int) error {
	p := r.plan[i]
	var led *ledger.Ledger
	if p.cfg.ledger {
		led = ledger.New(ledger.Header{Tool: "bench"})
	}
	res, err := depint.Integrate(r.inputs[p.input].sys, p.cfg.options(led)...)
	if err != nil {
		return fmt.Errorf("integrate %s: %w", r.inputs[p.input].sys.Name, err)
	}
	if led != nil {
		r.buf.Reset()
		if err := led.WriteJSONL(&r.buf); err != nil {
			return err
		}
	}
	r.last, r.lastLed = res, led
	return nil
}

// after checks the assignment of the first call of each (input, config)
// and holds every repeat's ledger to the first one's bytes.
func (r *integrateRun) after(i int) error {
	if r.checked == nil {
		r.checked, r.ledgers = map[int]bool{}, map[int][32]byte{}
	}
	p := r.plan[i]
	if !r.checked[i] {
		r.checked[i] = true
		if err := checkAssignment(r.inputs[p.input].sys, r.last.Assignment); err != nil {
			return err
		}
	}
	if r.lastLed == nil {
		return nil
	}
	sum := sha256.Sum256(r.buf.Bytes())
	if prev, ok := r.ledgers[i]; ok && prev != sum {
		return fmt.Errorf("%s under %s/%s: repeated call wrote different ledger bytes",
			r.inputs[p.input].sys.Name, p.cfg.strategy, p.cfg.approach)
	}
	r.ledgers[i] = sum
	return nil
}

func (r *integrateRun) verify() []error {
	if r.corpus == nil {
		return nil
	}
	return verifyCorpus(r.root, r.corpus, r.specs)
}

// replay repeats call i stage by stage through the layers' public
// functions, in IntegrateContext's order, and requires the same
// Assignment and Report as the Integrate call it repeats.
func (r *integrateRun) replay(i int, t *tracer) error {
	p := r.plan[i]
	sys := r.inputs[p.input].sys
	root := t.start("integrate.replay", 0)
	sched.Observe(t.reg)
	asg, rep, err := replayIntegrate(sys, p.cfg, t, root.ID)
	sched.Observe(nil)
	if err == nil && r.lastLed != nil {
		err = t.stage(root.ID, "ledger.encode", func() error {
			var buf bytes.Buffer
			if err := r.lastLed.WriteJSONL(&buf); err != nil {
				return err
			}
			t.sum["ledger.bytes"] += float64(buf.Len())
			return nil
		})
		t.sum["ledger.records"] += float64(r.lastLed.Len())
	}
	t.sum["replay.s"] += t.finish(root)
	t.sum["integrate.replays"]++
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(asg, r.last.Assignment) || !reflect.DeepEqual(rep, r.last.Report) {
		return fmt.Errorf("%s: replayed assignment or report differs from Integrate's", sys.Name)
	}
	return nil
}

// replayIntegrate runs the pipeline of one configuration stage by stage,
// each stage a span under parent.
func replayIntegrate(sys *spec.System, c intConfig, t *tracer, parent int) (depint.Assignment, depint.Report, error) {
	var (
		asg      depint.Assignment
		rep      depint.Report
		initial  *graph.Graph
		p        [][]float64
		exp      *cluster.Expansion
		expanded *graph.Graph
	)
	weights, err := attrs.DefaultWeights()
	if err != nil {
		return asg, rep, err
	}
	stage := func(name string, fn func() error) error {
		if err == nil {
			err = t.stage(parent, name, fn)
		}
		return err
	}
	stage("spec", func() error {
		if err := sys.Validate(); err != nil {
			return err
		}
		g, err := sys.Graph()
		initial = g
		if err == nil {
			p, _ = g.Matrix()
		}
		return err
	})
	stage("influence", func() error {
		_, err := influence.SeparationMatrixWorkers(context.Background(), p, 0, 0)
		return err
	})
	stage("cluster.expand", func() error {
		var err error
		exp, err = cluster.Expand(initial, sys.Jobs())
		return err
	})
	stage("graph.clone", func() error {
		expanded = exp.Graph.Clone()
		return nil
	})
	if err != nil {
		return asg, rep, err
	}
	platform, req, err := defaultPlatform(sys, exp)
	if err != nil {
		return asg, rep, err
	}

	chain := c.chain()
	var attemptErr error
	for _, strat := range chain {
		work := exp.Graph
		if len(chain) > 1 {
			stage("graph.clone", func() error {
				work = exp.Graph.Clone()
				return nil
			})
		}
		cond := cluster.NewCondenser(work, exp.Jobs)
		cond.SetContext(context.Background())
		cond.Observe(nil, t.reg)
		attemptErr = t.stage(parent, "cluster.condense", func() error {
			return condense(cond, strat, sys.HWNodes, weights)
		})
		if attemptErr == nil {
			attemptErr = t.stage(parent, "mapping.assign", func() error {
				var err error
				asg, err = assign(cond.G, platform, weights, req, c.approachOrDefault())
				return err
			})
		}
		if attemptErr == nil {
			break
		}
		t.sum["cluster.fallbacks"]++
	}
	if attemptErr != nil {
		return asg, rep, attemptErr
	}
	stage("mapping.evaluate", func() error {
		rep = mapping.Evaluate(expanded, asg, platform, mapping.EvalConfig{CriticalThreshold: 10, Requirements: req})
		return nil
	})
	stage("metrics", func() error {
		mods := make([]metrics.ModuleSpec, 0, len(sys.Processes))
		for _, proc := range sys.Processes {
			mods = append(mods, metrics.ModuleSpec{Name: proc.Name, FaultProb: 0.1, Replicas: proc.FT, Majority: proc.FT >= 3})
		}
		_, err := metrics.SystemReliability(mods)
		return err
	})
	return asg, rep, err
}

// defaultPlatform builds Integrate's default platform — a complete graph
// of HWNodes processors, each offering every resource the specification
// names — and the per-replica resource requirements.
func defaultPlatform(sys *spec.System, exp *cluster.Expansion) (*hw.Platform, mapping.Requirements, error) {
	platform, err := hw.Complete(sys.HWNodes)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range platform.Nodes() {
		node, err := platform.Node(name)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range sys.Processes {
			for _, res := range p.Resources {
				node.Resources[res] = true
			}
		}
	}
	req := mapping.Requirements{}
	for _, p := range sys.Processes {
		if len(p.Resources) == 0 {
			continue
		}
		for _, rep := range exp.ReplicasOf[p.Name] {
			req[rep] = append([]string(nil), p.Resources...)
		}
	}
	return platform, req, nil
}

func condense(c *cluster.Condenser, s depint.Strategy, target int, w attrs.Weights) error {
	switch s {
	case depint.H1:
		return c.ReduceByInfluence(target)
	case depint.H1PairAll:
		return c.ReduceByInfluencePairAll(target)
	case depint.H2:
		return c.ReduceByMinCut(target)
	case depint.H3:
		return c.ReduceBySpheres(target, w)
	case depint.Criticality:
		return c.ReduceByCriticality(target)
	case depint.TimingOrder:
		return c.ReduceByTiming(target)
	case depint.SeparationGuided:
		return c.ReduceBySeparation(target, 0)
	case depint.H2SourceTarget:
		return c.ReduceByMinCutST(target, w)
	}
	return errors.New("unknown strategy " + s.String())
}

func assign(g *graph.Graph, p *hw.Platform, w attrs.Weights, req mapping.Requirements, a depint.Approach) (depint.Assignment, error) {
	var asg depint.Assignment
	var err error
	switch a {
	case depint.ByImportance:
		asg, _, err = mapping.AssignByImportanceDetailed(g, p, w, req)
	case depint.Lexicographic:
		asg, _, err = mapping.AssignLexicographicDetailed(g, p, nil, req)
	case depint.FCRAware:
		asg, _, err = mapping.AssignCriticalityAwareDetailed(g, p, req, 10)
	default:
		err = errors.New("unknown approach " + a.String())
	}
	return asg, err
}
