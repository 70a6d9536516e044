// Package scengen is the framework's workload source: a seeded,
// deterministic generator of realistic integration scenarios at
// parameterized scale. One worked example (p1..p8) cannot exercise the
// FCM/criticality/influence model; scengen produces whole families of
// system specifications — automotive/avionics-style criticality ladders,
// microservice meshes with hub nodes, ALFRED-style layered architectures
// with per-component fault trees, and sensor/voter redundancy patterns —
// each a valid spec.System (plus an FCM hierarchy) that Integrate accepts
// without error.
//
// # Determinism contract
//
// Generation follows the same internal/rng substream discipline as the
// fault-injection campaigns: every generated element (a process's
// attribute tuple, an edge's weight, a component's fault tree) draws from
// its own PCG substream derived from (seed, element index), never from a
// shared stream, so the output does not depend on the order elements are
// filled in. Attribute synthesis shards across Config.Workers goroutines
// and the encoded scenario is byte-identical at every worker count — the
// property cmd/scenariocheck and the determinism suite pin.
//
// # Feasibility by construction
//
// Generated timing triples satisfy a schedulability invariant: every
// EST lies in [0, B], every window TCD−EST is at least 2B, and the CTs of
// a whole scenario sum to at most B (B = timingBudget). Under the
// processor-demand criterion any subset of such jobs is feasible on one
// processor, so condensation can always reach the HW node count and
// Integrate never fails on a generated scenario — the property the
// 100-seed suite in property_test.go proves per family.
package scengen

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/rng"
	"repro/internal/spec"
)

// Family names a scenario topology family.
type Family string

// The four generator families.
const (
	// Ladder is an automotive/avionics-style criticality ladder: a small
	// safety tier (TMR/duplex) above control, operational and monitoring
	// tiers, with influence flowing up the ladder from the functions that
	// feed the critical ones.
	Ladder Family = "ladder"
	// Mesh is a microservice mesh: a few high-degree hub services the
	// leaf services call into, hub-to-hub backbone edges, and sparse
	// leaf-to-leaf chatter.
	Mesh Family = "mesh"
	// Layered is an ALFRED-style layered architecture: strictly ranked
	// layers with the most critical components at the bottom, influence
	// propagating from each layer to the one above it, and a
	// per-component fault tree (tasks/procedures) on every component.
	Layered Family = "layered"
	// SensorVoter is the failure-mode-reasoning redundancy pattern:
	// groups of redundant sensors feeding a voter feeding an actuator,
	// plus a shared health monitor every voter reports into.
	SensorVoter Family = "sensor-voter"
)

// Families returns all generator families in a fixed order.
func Families() []Family { return []Family{Ladder, Mesh, Layered, SensorVoter} }

// Size presets accepted by Parse and the -gen CLI syntax.
const (
	SizeSmall  = "small"
	SizeMedium = "medium"
	SizeLarge  = "large"
)

// SizeProcesses maps a size preset to its target process count.
func SizeProcesses(size string) (int, error) {
	switch size {
	case SizeSmall:
		return 12, nil
	case SizeMedium:
		return 36, nil
	case SizeLarge:
		return 120, nil
	}
	n, err := strconv.Atoi(size)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("%w: size %q (want small, medium, large or a process count)", ErrBadConfig, size)
	}
	return n, nil
}

// Errors returned by configuration parsing and validation.
var (
	ErrBadConfig = errors.New("scengen: invalid configuration")
	ErrBadFamily = errors.New("scengen: unknown family")
)

// Config parameterizes one generated scenario.
type Config struct {
	// Family selects the topology family.
	Family Family
	// Processes is the target process count; families round it to their
	// structural grain (the sensor-voter family to whole groups), so the
	// generated system may differ by a few processes. 0 means small.
	Processes int
	// Seed makes generation reproducible: the same (Family, Processes,
	// Seed) always produces a byte-identical scenario.
	Seed uint64
	// Workers shards attribute/edge/hierarchy synthesis across
	// goroutines (0 = GOMAXPROCS). Every element draws from its own
	// substream, so the output is byte-identical at every worker count.
	Workers int
	// HWNodes overrides the generated platform size (0 = family default,
	// roughly a third of the process count and always strictly above the
	// largest replication degree).
	HWNodes int
	// Name overrides the generated system name (default
	// "<family>-n<processes>-s<seed>").
	Name string
}

// Scenario is one generated integration problem: the system specification
// the pipeline consumes plus the FCM hierarchy (per-component fault
// trees) behind its processes.
type Scenario struct {
	Config    Config
	System    *spec.System
	Hierarchy *spec.HierarchySpec
}

// Parse decodes the CLI scenario syntax "family:size:seed", e.g.
// "ladder:small:7" or "mesh:48:1998". Size is a preset name or a process
// count; seed is a non-negative integer.
func Parse(s string) (Config, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return Config{}, fmt.Errorf("%w: %q (want family:size:seed)", ErrBadConfig, s)
	}
	fam := Family(strings.TrimSpace(parts[0]))
	if !knownFamily(fam) {
		return Config{}, fmt.Errorf("%w: %q (families: %s)", ErrBadFamily, parts[0], familyList())
	}
	n, err := SizeProcesses(strings.TrimSpace(parts[1]))
	if err != nil {
		return Config{}, err
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(parts[2]), 10, 64)
	if err != nil {
		return Config{}, fmt.Errorf("%w: seed %q", ErrBadConfig, parts[2])
	}
	return Config{Family: fam, Processes: n, Seed: seed}, nil
}

func knownFamily(f Family) bool {
	for _, k := range Families() {
		if k == f {
			return true
		}
	}
	return false
}

func familyList() string {
	names := make([]string, 0, 4)
	for _, f := range Families() {
		names = append(names, string(f))
	}
	return strings.Join(names, ", ")
}

// timingBudget is B in the schedulability invariant: ΣCT ≤ B, EST ∈
// [0, B], window ≥ 2B. Any subset of such jobs passes the
// processor-demand criterion, so every generated colocation is feasible.
const timingBudget = 100.0

// Stream salts: one per draw class, so the substream of (say) process 3's
// attributes never collides with the substream of edge 3's weight.
const (
	saltShape uint64 = 0x5ca1ab1e0ddba11
	saltAttr  uint64 = 0xbadc0ffee0ddf00d
	saltEdge  uint64 = 0x1ce1ce1ce1ce1ce
	saltHier  uint64 = 0xf1a7f00d5eed5eed
)

// genEnv carries the seed material of one generation run.
type genEnv struct {
	base    uint64 // family-folded master seed
	workers int
}

func newGenEnv(cfg Config) *genEnv {
	h := fnv.New64a()
	h.Write([]byte(cfg.Family))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &genEnv{base: rng.Mix(cfg.Seed) ^ h.Sum64(), workers: workers}
}

// shape returns the serial topology stream: the one stream family
// builders may consume sequentially (tier sizes, edge targets), because
// topology construction is inherently ordered and never sharded.
func (g *genEnv) shape() *rand.Rand { return rng.New(rng.Mix(g.base ^ saltShape)) }

// protoProcess is a process the family builder has placed topologically
// but whose concrete attributes are still to be drawn.
type protoProcess struct {
	name           string
	critLo, critHi float64 // criticality range of the role
	fts            []int   // candidate replication degrees
	ctScale        float64 // relative computation weight (1 = average)
	// fault-tree shape: tasks in [tasksLo, tasksHi], procedures per task
	// in [procsLo, procsHi].
	tasksLo, tasksHi int
	procsLo, procsHi int
}

// protoEdge is an influence edge with its weight still to be drawn.
type protoEdge struct {
	from, to int
	wLo, wHi float64
	factor   string
}

// build is a family builder's output: the topology skeleton plus the
// family's HW sizing hint.
type build struct {
	protos  []protoProcess
	edges   []protoEdge
	hwNodes int // 0 = shared default
}

// Generate produces one scenario. The same Config (ignoring Workers)
// always yields a byte-identical scenario; an invalid Config is an error.
func Generate(cfg Config) (*Scenario, error) {
	if !knownFamily(cfg.Family) {
		return nil, fmt.Errorf("%w: %q (families: %s)", ErrBadFamily, cfg.Family, familyList())
	}
	if cfg.Processes == 0 {
		cfg.Processes, _ = SizeProcesses(SizeSmall)
	}
	if cfg.Processes < 4 {
		return nil, fmt.Errorf("%w: %d processes (families need at least 4)", ErrBadConfig, cfg.Processes)
	}
	if cfg.Processes > 100000 {
		return nil, fmt.Errorf("%w: %d processes (cap is 100000)", ErrBadConfig, cfg.Processes)
	}
	env := newGenEnv(cfg)

	var b build
	switch cfg.Family {
	case Ladder:
		b = buildLadder(env, cfg.Processes)
	case Mesh:
		b = buildMesh(env, cfg.Processes)
	case Layered:
		b = buildLayered(env, cfg.Processes)
	case SensorVoter:
		b = buildSensorVoter(env, cfg.Processes)
	}

	procs := env.fillProcesses(b.protos)
	infl := env.fillEdges(b.edges, procs)
	hier := env.fillHierarchy(b.protos, procs)

	maxFT := 1
	for _, p := range procs {
		if p.FT > maxFT {
			maxFT = p.FT
		}
	}
	hw := cfg.HWNodes
	if hw == 0 {
		hw = b.hwNodes
	}
	if hw == 0 {
		hw = len(procs) / 3
	}
	// The platform must out-size the largest replica group (replicas may
	// never colocate) and never out-size the cluster supply.
	if hw <= maxFT {
		hw = maxFT + 1
	}
	if hw > len(procs) {
		hw = len(procs)
	}

	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("%s-n%d-s%d", cfg.Family, len(procs), cfg.Seed)
	}
	sys := &spec.System{Name: name, Processes: procs, Influences: infl, HWNodes: hw}
	if err := sys.Validate(); err != nil {
		// Unreachable by construction; surfaced rather than trusted.
		return nil, fmt.Errorf("scengen: generated system invalid: %w", err)
	}
	hier.Name = name + "-hierarchy"
	return &Scenario{Config: cfg, System: sys, Hierarchy: hier}, nil
}

// fillProcesses draws the concrete attribute tuples, sharding the
// per-process substream draws over the worker pool, then applies the
// serial timing normalization that establishes the schedulability
// invariant (ΣCT ≤ 0.9·B after rounding, EST ∈ [0, B], window ≥ 2B).
func (g *genEnv) fillProcesses(protos []protoProcess) []spec.Process {
	n := len(protos)
	procs := make([]spec.Process, n)
	rawCT := make([]float64, n)
	estU := make([]float64, n)
	winU := make([]float64, n)
	g.shard(n, saltAttr, func(i int, rng *rand.Rand) {
		p := protos[i]
		// Fixed draw order per element: criticality, FT, CT, EST, window.
		procs[i].Name = p.name
		procs[i].Criticality = round1(p.critLo + rng.Float64()*(p.critHi-p.critLo))
		procs[i].FT = p.fts[rng.IntN(len(p.fts))]
		scale := p.ctScale
		if scale <= 0 {
			scale = 1
		}
		rawCT[i] = scale * (0.5 + rng.Float64())
		estU[i] = rng.Float64()
		winU[i] = rng.Float64()
	})
	sum := 0.0
	for _, v := range rawCT {
		sum += v
	}
	scale := 0.9 * timingBudget / sum
	for i := range procs {
		procs[i].CT = floor3(rawCT[i] * scale)
		procs[i].EST = round3(timingBudget * estU[i])
		procs[i].TCD = procs[i].EST + 2*timingBudget + round3(timingBudget*winU[i])
	}
	return procs
}

// fillEdges draws edge weights on per-edge substreams, sharded.
func (g *genEnv) fillEdges(edges []protoEdge, procs []spec.Process) []spec.Influence {
	infl := make([]spec.Influence, len(edges))
	g.shard(len(edges), saltEdge, func(j int, rng *rand.Rand) {
		e := edges[j]
		w := round3(e.wLo + rng.Float64()*(e.wHi-e.wLo))
		if w < 0.01 {
			w = 0.01
		}
		if w > 1 {
			w = 1
		}
		infl[j] = spec.Influence{
			From:    procs[e.from].Name,
			To:      procs[e.to].Name,
			Weight:  w,
			Factors: []string{e.factor},
		}
	})
	return infl
}

// fillHierarchy grows the per-component fault tree of every process —
// tasks under the process, procedures (the basic events) under each task
// — on the process's private hierarchy substream.
func (g *genEnv) fillHierarchy(protos []protoProcess, procs []spec.Process) *spec.HierarchySpec {
	pss := make([]spec.ProcessSpec, len(protos))
	g.shard(len(protos), saltHier, func(i int, rng *rand.Rand) {
		p := protos[i]
		tLo, tHi := p.tasksLo, p.tasksHi
		if tLo < 1 {
			tLo, tHi = 1, 2
		}
		tasks := make([]spec.TaskSpec, tLo+rng.IntN(tHi-tLo+1))
		for t := range tasks {
			pLo, pHi := p.procsLo, p.procsHi
			if pLo < 1 {
				pLo, pHi = 1, 3
			}
			fns := make([]spec.ProcedureSpec, pLo+rng.IntN(pHi-pLo+1))
			for f := range fns {
				fns[f] = spec.ProcedureSpec{
					Name:      fmt.Sprintf("%s/t%d/f%d", p.name, t, f),
					Stateless: rng.Float64() < 0.5,
				}
			}
			tasks[t] = spec.TaskSpec{Name: fmt.Sprintf("%s/t%d", p.name, t), Procedures: fns}
		}
		pss[i] = spec.ProcessSpec{Name: p.name, Criticality: procs[i].Criticality, Tasks: tasks}
	})
	return &spec.HierarchySpec{Processes: pss}
}

// shard runs fn(i, r) for i in [0, n) across the worker pool in
// contiguous index blocks, where r is element i's private substream
// within draw class salt. The substream depends only on (seed, family,
// salt, i) and each element only touches its own slice slot, so the
// result is byte-identical at every worker count.
func (g *genEnv) shard(n int, salt uint64, fn func(i int, r *rand.Rand)) {
	base := rng.Mix(g.base ^ salt)
	workers := g.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i, rng.New(base+uint64(i)))
		}
		return
	}
	var wg sync.WaitGroup
	per := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i, rng.New(base+uint64(i)))
			}
		}(lo, hi)
	}
	wg.Wait()
}

// pickDistinct draws up to k distinct values from [0, n) excluding self,
// using the serial shape stream. Fewer than k come back when n is small.
func pickDistinct(rng *rand.Rand, n, k, self int) []int {
	if n <= 1 {
		return nil
	}
	seen := map[int]bool{self: true}
	out := make([]int, 0, k)
	for attempts := 0; len(out) < k && attempts < 8*k; attempts++ {
		v := rng.IntN(n)
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
func floor3(v float64) float64 { return math.Floor(v*1000) / 1000 }
