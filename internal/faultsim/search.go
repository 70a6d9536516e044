package faultsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stage"
)

// ErrSearchSpaceEmpty is returned when the search graph has no nodes.
var ErrSearchSpaceEmpty = errors.New("faultsim: adversarial search space is empty")

// Scenario is one point of the adversarial search space: which FCM the
// initial fault is forced into, under which fault model, and — for the
// burst model — how many simultaneous faults strike. Burst is 0 for the
// non-burst models.
type Scenario struct {
	SeedNode string `json:"seed_node"`
	Model    string `json:"model"`
	Burst    int    `json:"burst,omitempty"`
}

// key is the memoization/checkpoint identity of the scenario.
func (s Scenario) key() string {
	return s.Model + "|" + strconv.Itoa(s.Burst) + "|" + s.SeedNode
}

func (s Scenario) String() string {
	if s.Model == "burst" {
		return fmt.Sprintf("%s(k=%d)@%s", s.Model, s.Burst, s.SeedNode)
	}
	return s.Model + "@" + s.SeedNode
}

// model materialises the scenario's FaultModel.
func (s Scenario) model() (FaultModel, error) {
	return ModelByName(s.Model, s.Burst, 1)
}

// Evaluation is the measured outcome of one scenario: its
// criticality-weighted escape rate (the adversarial objective — expected
// criticality mass escaping across HW boundaries per trial), plus the
// plain escape rate and mean criticality loss for context.
type Evaluation struct {
	Scenario            Scenario `json:"scenario"`
	Score               float64  `json:"score"`
	EscapeRate          float64  `json:"escape_rate"`
	MeanCriticalityLoss float64  `json:"mean_criticality_loss"`
}

// SearchResult is the outcome of an adversarial search: the worst-case
// scenario found, every evaluation performed (in evaluation order — the
// greedy trajectory), and whether the evaluation budget stopped the climb
// before it converged to a local optimum.
type SearchResult struct {
	Best        Evaluation   `json:"best"`
	Evaluations []Evaluation `json:"evaluations"`
	// Exhausted is true when MaxEvals ended the search while an
	// unevaluated improving neighbour might remain; false means the climb
	// converged (no neighbour beat the current scenario).
	Exhausted bool `json:"exhausted"`
}

// SearchConfig configures an adversarial scenario search over
// (seed node × fault model × burst size).
type SearchConfig struct {
	// Graph and HWOf are the system under attack, as for Campaign.
	Graph *graph.Graph
	HWOf  map[string]string
	// Trials is the Monte-Carlo budget of each scenario evaluation.
	Trials int
	// Seed makes the whole search reproducible: each scenario is
	// evaluated under a seed derived from (Seed, scenario key), so its
	// score does not depend on when — or whether — other scenarios ran.
	Seed uint64
	// Workers shards each evaluation's trials, exactly as
	// Campaign.Workers; scores are bit-identical for every value.
	Workers int
	// MaxEvals bounds the number of distinct scenarios evaluated
	// (default 50). Memoized re-visits are free.
	MaxEvals int
	// CriticalThreshold and MaxHops pass through to each evaluation.
	CriticalThreshold float64
	MaxHops           int
	// Span receives one "search_eval" event per evaluation and a final
	// "search_done" event, each also streamed on the observer's bus
	// (Span.Publish), which never blocks the climb; the observer's
	// registry tracks evaluations and the best score.
	Span *obs.Span
	// Ledger, when set, receives one "search_eval" provenance record per
	// evaluation (in evaluation order) and a final "search_best" record
	// after the climb ends. Nil records nothing.
	Ledger *ledger.Ledger
	// Ctx, when non-nil, is polled between evaluations; cancellation
	// persists a checkpoint (when configured) and aborts.
	Ctx context.Context
	// CheckpointPath, when non-empty, persists the evaluation history
	// after every completed evaluation (atomic write-then-rename). With
	// Resume, a killed search replays its recorded evaluations from the
	// checkpoint instead of re-running them; because the climb is
	// deterministic given the scores, the resumed search finishes with a
	// SearchResult bit-identical to an uninterrupted run.
	CheckpointPath string
	Resume         bool
	// LaxResume discards a corrupt (undecodable) evaluation journal with
	// a "resume_discarded" span event and starts the climb fresh, instead
	// of failing with ErrCheckpointCorrupt. Journals from a different
	// search configuration are still rejected.
	LaxResume bool
	// Runner, when non-nil, executes each scenario's campaign in place of
	// Run — the hook the distributed fabric uses to shard evaluations
	// across workers. A Runner MUST be bit-identical to Run for the same
	// campaign (the fabric coordinator is, by its merge contract); like
	// Workers, it is excluded from the search fingerprint, so a resumed
	// search may switch between local and fabric execution freely.
	Runner func(Campaign) (Result, error)
}

// searchCheckpoint is the on-disk evaluation history of a search in
// flight. The greedy trajectory is a pure function of the scores, so the
// history alone positions a resume exactly.
type searchCheckpoint struct {
	Version     int          `json:"version"`
	Fingerprint string       `json:"fingerprint"`
	Evaluations []Evaluation `json:"evaluations"`
}

const searchCheckpointVersion = 1

// fingerprint hashes everything that determines the search trajectory:
// the underlying campaign identity plus the search parameters. MaxEvals
// and Workers are deliberately excluded, so a resume may extend the
// budget or change the pool width.
func (cfg SearchConfig) fingerprint() string {
	base := Campaign{
		Graph:             cfg.Graph,
		HWOf:              cfg.HWOf,
		Seed:              cfg.Seed,
		CriticalThreshold: cfg.CriticalThreshold,
		MaxHops:           cfg.MaxHops,
	}
	h := fnv.New64a()
	h.Write([]byte("faultsim-search-v1\x00"))
	h.Write([]byte(base.fingerprint()))
	h.Write([]byte("\x00" + strconv.Itoa(cfg.Trials)))
	h.Write([]byte("\x00" + strconv.Itoa(burstMax(len(cfg.Graph.Nodes())))))
	return strconv.FormatUint(h.Sum64(), 16)
}

// burstMax bounds the burst size the search explores on a graph of the
// given size: 4, at most the node count, and at least 2.
func burstMax(nodes int) int { return max(min(4, nodes), 2) }

// searcher carries the memo table and evaluation log through the climb.
type searcher struct {
	cfg   SearchConfig
	nodes []string
	memo  map[string]Evaluation
	log   []Evaluation
	// replay holds checkpointed evaluations not yet re-requested by the
	// climb; scores come from here before any campaign runs.
	replay    map[string]Evaluation
	bestGauge *obs.Gauge
	evalsCtr  *obs.Counter
}

// Search hill-climbs over fault scenarios to find the one maximising the
// criticality-weighted escape rate — the adversary's best shot at pushing
// critical-fault mass across HW boundaries. The climb starts at the
// highest-criticality node under the single-fault model and greedily
// moves to the best improving neighbour (adjacent seed node in sorted
// order, a different fault model, burst size ±1) until no neighbour
// improves or the evaluation budget runs out.
//
// Every scenario is evaluated by a Campaign whose occurrence weights
// force the seed node and whose seed derives from (Seed, scenario), so
// each score is independent of evaluation order: the search is
// deterministic across worker counts and across kill/resume.
func Search(cfg SearchConfig) (SearchResult, error) {
	wrap := func(err error) error { return stage.Wrap("inject", "search", "", err) }
	if cfg.Trials <= 0 {
		return SearchResult{}, wrap(fmt.Errorf("%w: %d", ErrNoTrials, cfg.Trials))
	}
	if cfg.Graph == nil || cfg.Graph.NumNodes() == 0 {
		return SearchResult{}, wrap(ErrSearchSpaceEmpty)
	}
	nodes := append([]string(nil), cfg.Graph.Nodes()...)
	sort.Strings(nodes)

	s := &searcher{
		cfg:    cfg,
		nodes:  nodes,
		memo:   make(map[string]Evaluation),
		replay: make(map[string]Evaluation),
	}
	if reg := cfg.Span.Metrics(); reg != nil {
		s.evalsCtr = reg.Counter("faultsim_search_evals_total", "adversarial scenario evaluations")
		s.bestGauge = reg.Gauge("faultsim_search_best_score", "best criticality-weighted escape rate found")
	}
	if cfg.Resume && cfg.CheckpointPath != "" {
		if err := s.loadCheckpoint(); err != nil {
			return SearchResult{}, err
		}
	}

	maxEvals := cfg.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 50
	}

	cur, err := s.evaluate(s.start())
	if err != nil {
		return SearchResult{}, err
	}
	best := cur
	exhausted := false
climb:
	for {
		improved := false
		next := cur
		for _, n := range s.neighbors(cur.Scenario) {
			if _, done := s.memo[n.key()]; !done && len(s.memo) >= maxEvals {
				exhausted = true
				break climb
			}
			ev, err := s.evaluate(n)
			if err != nil {
				return SearchResult{}, err
			}
			if ev.Score > best.Score {
				best = ev
			}
			if ev.Score > next.Score {
				next = ev
				improved = true
			}
		}
		if !improved {
			break
		}
		cur = next
	}

	if cfg.Span != nil {
		cfg.Span.Publish("search_done", "search",
			obs.String("scenario", best.Scenario.String()),
			obs.Float("score", best.Score),
			obs.Int("evaluations", len(s.log)),
			obs.Bool("exhausted", exhausted))
	}
	// The evaluation log is deterministic (the climb is a pure function of
	// the scores), so recording it after the fact keeps the ledger
	// byte-identical run to run.
	for _, ev := range s.log {
		cfg.Ledger.Append(ledger.Record{
			Kind: ledger.KindSearchEval, Stage: "faultsim",
			Detail: ev.Scenario.String(), Score: ev.Score,
			Values: map[string]float64{
				"escape_rate":           ev.EscapeRate,
				"mean_criticality_loss": ev.MeanCriticalityLoss,
			},
		})
	}
	cfg.Ledger.Append(ledger.Record{
		Kind: ledger.KindSearchBest, Stage: "faultsim",
		Detail: best.Scenario.String(), Score: best.Score,
		Values: map[string]float64{
			"evaluations": float64(len(s.log)),
			"exhausted":   b2f(exhausted),
		},
	})
	return SearchResult{Best: best, Evaluations: s.log, Exhausted: exhausted}, nil
}

// start is the climb's initial scenario: the single-fault model at the
// highest-criticality node (lexicographically first on ties).
func (s *searcher) start() Scenario {
	seed := s.nodes[0]
	bestCrit := s.cfg.Graph.Attrs(seed).Value(attrs.Criticality)
	for _, n := range s.nodes[1:] {
		if c := s.cfg.Graph.Attrs(n).Value(attrs.Criticality); c > bestCrit {
			seed, bestCrit = n, c
		}
	}
	return Scenario{SeedNode: seed, Model: "single"}
}

// neighbors enumerates the scenarios one move away, in a fixed order:
// adjacent seed nodes (sorted order, wrapping), the other fault models at
// the same seed, and burst size ±1 within [2, burstMax].
func (s *searcher) neighbors(cur Scenario) []Scenario {
	var out []Scenario
	idx := sort.SearchStrings(s.nodes, cur.SeedNode)
	n := len(s.nodes)
	if n > 1 {
		out = append(out,
			Scenario{SeedNode: s.nodes[(idx+1)%n], Model: cur.Model, Burst: cur.Burst},
			Scenario{SeedNode: s.nodes[(idx+n-1)%n], Model: cur.Model, Burst: cur.Burst})
	}
	bm := burstMax(n)
	for _, m := range []string{"single", "correlated", "burst"} {
		if m == cur.Model {
			continue
		}
		sc := Scenario{SeedNode: cur.SeedNode, Model: m}
		if m == "burst" {
			sc.Burst = 2
		}
		out = append(out, sc)
	}
	if cur.Model == "burst" {
		if cur.Burst+1 <= bm {
			out = append(out, Scenario{SeedNode: cur.SeedNode, Model: "burst", Burst: cur.Burst + 1})
		}
		if cur.Burst-1 >= 2 {
			out = append(out, Scenario{SeedNode: cur.SeedNode, Model: "burst", Burst: cur.Burst - 1})
		}
	}
	return out
}

// evaluate scores a scenario, consulting the memo table and the resume
// replay before spending trials on a campaign.
func (s *searcher) evaluate(sc Scenario) (Evaluation, error) {
	if ev, ok := s.memo[sc.key()]; ok {
		return ev, nil
	}
	if s.cfg.Ctx != nil {
		if err := s.cfg.Ctx.Err(); err != nil {
			return Evaluation{}, stage.Wrap("inject", "search", sc.SeedNode, err)
		}
	}
	ev, replayed := s.replay[sc.key()]
	if !replayed {
		var err error
		ev, err = s.run(sc)
		if err != nil {
			return Evaluation{}, err
		}
	}
	s.memo[sc.key()] = ev
	s.log = append(s.log, ev)
	if s.evalsCtr != nil {
		s.evalsCtr.Inc()
	}
	if s.bestGauge != nil && ev.Score > s.bestGauge.Value() {
		s.bestGauge.Set(ev.Score)
	}
	if s.cfg.Span != nil {
		s.cfg.Span.Publish("search_eval", "search",
			obs.String("scenario", sc.String()),
			obs.Float("score", ev.Score),
			obs.Float("escape_rate", ev.EscapeRate),
			obs.Bool("replayed", replayed))
	}
	if s.cfg.CheckpointPath != "" && !replayed {
		if err := s.saveCheckpoint(); err != nil {
			return Evaluation{}, err
		}
	}
	return ev, nil
}

// run executes the scenario's campaign. The occurrence weights put all
// mass on the seed node, so the first injected fault of every trial is
// the scenario's seed (the burst model's remaining draws fall back to
// uniform over the other nodes once the mass is spent). The campaign seed
// mixes the scenario identity into the search seed, giving every scenario
// its own substream family.
func (s *searcher) run(sc Scenario) (Evaluation, error) {
	model, err := sc.model()
	if err != nil {
		return Evaluation{}, stage.Wrap("inject", "search", sc.SeedNode, err)
	}
	h := fnv.New64a()
	h.Write([]byte(sc.key()))
	exec := Run
	if s.cfg.Runner != nil {
		exec = s.cfg.Runner
	}
	res, err := exec(Campaign{
		Graph:             s.cfg.Graph,
		HWOf:              s.cfg.HWOf,
		Trials:            s.cfg.Trials,
		Seed:              rng.Mix(s.cfg.Seed ^ h.Sum64()),
		Workers:           s.cfg.Workers,
		OccurrenceWeights: map[string]float64{sc.SeedNode: 1},
		CriticalThreshold: s.cfg.CriticalThreshold,
		MaxHops:           s.cfg.MaxHops,
		Model:             model,
		Ctx:               s.cfg.Ctx,
	})
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{
		Scenario:            sc,
		Score:               res.CriticalityWeightedEscapeRate(),
		EscapeRate:          res.EscapeRate(),
		MeanCriticalityLoss: res.CriticalityLoss / float64(res.Trials),
	}, nil
}

// saveCheckpoint atomically persists the evaluation history.
func (s *searcher) saveCheckpoint() error {
	data, err := json.Marshal(searchCheckpoint{
		Version:     searchCheckpointVersion,
		Fingerprint: s.cfg.fingerprint(),
		Evaluations: s.log,
	})
	if err != nil {
		return fmt.Errorf("faultsim: search checkpoint encode: %w", err)
	}
	if err := writeFileAtomic(s.cfg.CheckpointPath, ".faultsim-search-*", data); err != nil {
		return fmt.Errorf("faultsim: search checkpoint write %s: %w", s.cfg.CheckpointPath, err)
	}
	return nil
}

// loadCheckpoint fills the replay table from a prior run's history. An
// absent file starts fresh; a file from a different search is
// ErrCheckpointMismatch.
func (s *searcher) loadCheckpoint() error {
	data, err := os.ReadFile(s.cfg.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("faultsim: search checkpoint: %w", err)
	}
	var ck searchCheckpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		cerr := corruptError("search", s.cfg.CheckpointPath, data, err)
		if !s.cfg.LaxResume {
			return cerr
		}
		if s.cfg.Span != nil {
			s.cfg.Span.Event("resume_discarded",
				obs.String("path", s.cfg.CheckpointPath),
				obs.String("error", cerr.Error()))
		}
		return nil
	}
	if ck.Version != searchCheckpointVersion || ck.Fingerprint != s.cfg.fingerprint() {
		return fmt.Errorf("%w: %s", ErrCheckpointMismatch, s.cfg.CheckpointPath)
	}
	for _, ev := range ck.Evaluations {
		s.replay[ev.Scenario.key()] = ev
	}
	return nil
}
