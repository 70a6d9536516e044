// Package robust certifies the stability of an integration under
// perturbation of its estimated spec inputs. The paper's probability
// factors p_i1·p_i2·p_i3 (carried here as influence-edge weights) and the
// Table-1 criticalities are estimates, not measurements; a placement that
// flips when an estimate moves a few percent rests on noise. The
// certifier draws an ensemble of perturbed specifications within ±ε
// relative bands, re-runs the integration pipeline on each, and reports
// how often the placement survives, how far the containment metrics
// drift, and which single parameters the outcome is most sensitive to.
//
// # Monotone stability ladder
//
// Each ensemble member draws one direction vector d ∈ [-1,1]^P (P = the
// number of perturbable parameters) from its own internal/rng PCG
// substream, then walks the ε ladder by scaling the same direction:
// parameter x becomes x·(1+ε·d_j), clamped to its legal range. A member
// counts as stable at level ε_k only when its placement matches the
// baseline at every level up to and including ε_k — the perturbation
// balls are nested, so the stable fraction is monotonically non-increasing
// in ε by construction, and at ε = 0 the perturbation is the identity so
// the fraction is exactly 1.
package robust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/stage"
)

// Errors returned by Certify.
var (
	ErrNoEvaluator = errors.New("robust: nil evaluator")
	ErrNoSystem    = errors.New("robust: nil system")
	ErrBadEpsilon  = errors.New("robust: epsilon out of range")
	ErrBaseline    = errors.New("robust: baseline evaluation failed")
)

// Outcome is what the evaluator reports for one (possibly perturbed)
// specification: the canonical placement and the containment metrics
// whose drift the certificate tracks.
type Outcome struct {
	// Placement is the canonical placement key (see CanonicalPlacement);
	// two outcomes with equal Placement put the same processes together
	// on the same machines, up to HW-node relabelling.
	Placement string `json:"placement"`
	// EscapeRate is the measured fault-escape rate of the placement.
	EscapeRate float64 `json:"escape_rate"`
	// CrossInfluence is the total influence crossing HW boundaries
	// (the §5.3 goodness criterion; lower is better).
	CrossInfluence float64 `json:"cross_influence"`
}

// Evaluator integrates one specification and measures it. Implementations
// must be deterministic: the certificate compares outcomes across
// perturbed re-runs, so run-to-run noise in the evaluator would read as
// instability of the integration.
type Evaluator func(sys *spec.System) (Outcome, error)

// Config parameterises a certification run.
type Config struct {
	// Epsilons is the ladder of relative perturbation half-widths
	// (e.g. 0, 0.05, 0.10). Values are sorted ascending and deduplicated;
	// each must lie in [0,1). An empty ladder defaults to
	// {0, 0.01, 0.05, 0.10}.
	Epsilons []float64
	// Samples is the ensemble size per ladder level (default 20).
	Samples int
	// Seed drives the per-sample direction draws; a fixed seed makes the
	// whole certificate reproducible.
	Seed uint64
	// SkipSensitivity disables the one-at-a-time parameter probes (which
	// cost two evaluations per spec parameter).
	SkipSensitivity bool
	// Span receives one "certify_member" event per ensemble evaluation,
	// one "certify_level" event per ladder ε and a final "certify_done"
	// event, each also streamed on the observer's bus (Span.Publish), and
	// one "robust_sensitivity" event per flipped parameter; the observer's
	// registry tracks evaluations and the stable fraction at the widest ε.
	Span *obs.Span
	// Ledger, when set, receives one "certify_level" provenance record
	// per ladder ε and a final "certify" summary record. Nil records
	// nothing.
	Ledger *ledger.Ledger
	// Ctx, when non-nil, is polled between evaluations.
	Ctx context.Context
}

// Level is the certificate row for one ε.
type Level struct {
	Epsilon float64 `json:"epsilon"`
	// StableFraction is the fraction of ensemble members whose placement
	// matched the baseline at this and every smaller ε.
	StableFraction float64 `json:"stable_fraction"`
	// MeanEscapeDelta / WorstEscapeDelta are the mean and maximum signed
	// drift of the escape rate across the ensemble at this ε (positive =
	// worse than baseline).
	MeanEscapeDelta  float64 `json:"mean_escape_delta"`
	WorstEscapeDelta float64 `json:"worst_escape_delta"`
	// MeanInfluenceDelta / WorstInfluenceDelta track the cross-HW
	// influence the same way.
	MeanInfluenceDelta  float64 `json:"mean_influence_delta"`
	WorstInfluenceDelta float64 `json:"worst_influence_delta"`
	// Errors counts ensemble members whose perturbed integration failed
	// outright at this ε; they count as unstable and are excluded from
	// the delta statistics.
	Errors int `json:"errors,omitempty"`
}

// Sensitivity reports a one-at-a-time probe of a single spec parameter at
// the widest ε of the ladder.
type Sensitivity struct {
	// Parameter names the probed input: "criticality(p4)" or
	// "weight(p1>p2)".
	Parameter string `json:"parameter"`
	// Flipped is true when moving this one parameter by ±ε changed the
	// placement (or broke the integration).
	Flipped bool `json:"flipped"`
	// EscapeDelta is the largest absolute escape-rate drift of the two
	// probes.
	EscapeDelta float64 `json:"escape_delta"`
}

// Certificate is the robustness report of one integration.
type Certificate struct {
	// Baseline is the unperturbed outcome every comparison is against.
	Baseline Outcome `json:"baseline"`
	// Levels holds one row per ladder ε, ascending; StableFraction is
	// monotonically non-increasing down the rows.
	Levels []Level `json:"levels"`
	// Sensitivities ranks the spec parameters most able to move the
	// outcome, placement-flipping parameters first, then by escape
	// drift. Empty when Config.SkipSensitivity was set.
	Sensitivities []Sensitivity `json:"sensitivities,omitempty"`
	// Samples and Seed echo the configuration.
	Samples int    `json:"samples"`
	Seed    uint64 `json:"seed"`
	// Evaluations counts evaluator calls spent (baseline + ensemble +
	// probes).
	Evaluations int `json:"evaluations"`
}

// StableAt returns the stable fraction at the widest ladder ε.
func (c *Certificate) StableAt() float64 {
	if len(c.Levels) == 0 {
		return 0
	}
	return c.Levels[len(c.Levels)-1].StableFraction
}

// CanonicalPlacement reduces an assignment (process/replica name → HW
// node) to a label-invariant partition key: members are grouped by HW
// node, each group sorted, groups sorted, groups joined by "|". Two
// placements that co-locate the same sets of members map to the same key
// even when the HW nodes are named differently.
func CanonicalPlacement(assign map[string]string) string {
	byNode := map[string][]string{}
	for m, n := range assign {
		byNode[n] = append(byNode[n], m)
	}
	groups := make([]string, 0, len(byNode))
	for _, ms := range byNode {
		sort.Strings(ms)
		groups = append(groups, strings.Join(ms, ","))
	}
	sort.Strings(groups)
	return strings.Join(groups, "|")
}

// param is one perturbable spec input.
type param struct {
	name  string
	get   func(*spec.System) float64
	set   func(*spec.System, float64)
	clamp func(float64) float64
}

func clamp01(x float64) float64 { return math.Min(1, math.Max(0, x)) }
func clampPos(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// parameters enumerates the perturbable inputs of a specification in a
// fixed order: every process criticality, then every influence weight.
// The weight of an influence edge is the product of the paper's p_i1,
// p_i2, p_i3 factors, so a ±ε relative band on the weight covers a
// combined ±ε mis-estimation of the factors.
func parameters(sys *spec.System) []param {
	var ps []param
	for i := range sys.Processes {
		i := i
		ps = append(ps, param{
			name:  "criticality(" + sys.Processes[i].Name + ")",
			get:   func(s *spec.System) float64 { return s.Processes[i].Criticality },
			set:   func(s *spec.System, v float64) { s.Processes[i].Criticality = v },
			clamp: clampPos,
		})
	}
	for i := range sys.Influences {
		i := i
		e := sys.Influences[i]
		ps = append(ps, param{
			name:  "weight(" + e.From + ">" + e.To + ")",
			get:   func(s *spec.System) float64 { return s.Influences[i].Weight },
			set:   func(s *spec.System, v float64) { s.Influences[i].Weight = v },
			clamp: clamp01,
		})
	}
	return ps
}

// clone deep-copies the parts of a System the perturbation touches.
func clone(sys *spec.System) *spec.System {
	out := *sys
	out.Processes = append([]spec.Process(nil), sys.Processes...)
	out.Influences = append([]spec.Influence(nil), sys.Influences...)
	return &out
}

// Certify runs the certification: baseline, the ε ladder over the
// ensemble, and (unless disabled) the one-at-a-time sensitivity probes.
func Certify(sys *spec.System, eval Evaluator, cfg Config) (*Certificate, error) {
	wrap := func(node string, err error) error { return stage.Wrap("certify", "perturb", node, err) }
	if sys == nil {
		return nil, wrap("", ErrNoSystem)
	}
	if eval == nil {
		return nil, wrap("", ErrNoEvaluator)
	}
	eps, err := ladder(cfg.Epsilons)
	if err != nil {
		return nil, wrap("", err)
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 20
	}

	var evalsCtr *obs.Counter
	var stableGauge *obs.Gauge
	if reg := cfg.Span.Metrics(); reg != nil {
		evalsCtr = reg.Counter("robust_evals_total", "perturbed integration evaluations")
		stableGauge = reg.Gauge("robust_stable_fraction", "placement-stability fraction at the widest epsilon")
	}
	evals := 0
	measure := func(s *spec.System, node string) (Outcome, error) {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return Outcome{}, wrap(node, err)
			}
		}
		evals++
		if evalsCtr != nil {
			evalsCtr.Inc()
		}
		return eval(s)
	}

	base, err := measure(sys, "")
	if err != nil {
		return nil, wrap("", fmt.Errorf("%w: %w", ErrBaseline, err))
	}

	params := parameters(sys)
	// Direction vectors are drawn once per member, before the ladder walk,
	// so every ε level perturbs along the same ray (nested balls).
	dirs := make([][]float64, samples)
	for i := range dirs {
		r := rng.New(rng.Mix(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15)) // member i's substream
		d := make([]float64, len(params))
		for j := range d {
			d[j] = 2*r.Float64() - 1
		}
		dirs[i] = d
	}

	cert := &Certificate{Baseline: base, Samples: samples, Seed: cfg.Seed}
	stable := make([]bool, samples)
	for i := range stable {
		stable[i] = true
	}
	for _, e := range eps {
		lvl := Level{Epsilon: e}
		var escSum, infSum float64
		measured := 0
		worstEsc, worstInf := math.Inf(-1), math.Inf(-1)
		for i := 0; i < samples; i++ {
			out, err := func() (Outcome, error) {
				if e == 0 {
					// ε=0 is the identity perturbation; reuse the baseline
					// instead of spending an evaluation per member.
					return base, nil
				}
				p := clone(sys)
				for j, pr := range params {
					pr.set(p, pr.clamp(pr.get(sys)*(1+e*dirs[i][j])))
				}
				return measure(p, fmt.Sprintf("sample-%d", i))
			}()
			if err != nil {
				if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
					return nil, err
				}
				lvl.Errors++
				stable[i] = false
				if cfg.Span != nil {
					cfg.Span.Publish("certify_member", "certify",
						obs.Float("epsilon", e),
						obs.Int("sample", i),
						obs.Bool("error", true))
				}
				continue
			}
			measured++
			dEsc := out.EscapeRate - base.EscapeRate
			dInf := out.CrossInfluence - base.CrossInfluence
			escSum += dEsc
			infSum += dInf
			worstEsc = math.Max(worstEsc, dEsc)
			worstInf = math.Max(worstInf, dInf)
			if out.Placement != base.Placement {
				stable[i] = false
			}
			if cfg.Span != nil {
				cfg.Span.Publish("certify_member", "certify",
					obs.Float("epsilon", e),
					obs.Int("sample", i),
					obs.Bool("stable", stable[i]),
					obs.Float("escape_delta", dEsc))
			}
		}
		n := 0
		for _, ok := range stable {
			if ok {
				n++
			}
		}
		lvl.StableFraction = float64(n) / float64(samples)
		if measured > 0 {
			lvl.MeanEscapeDelta = escSum / float64(measured)
			lvl.MeanInfluenceDelta = infSum / float64(measured)
			lvl.WorstEscapeDelta = worstEsc
			lvl.WorstInfluenceDelta = worstInf
		}
		cert.Levels = append(cert.Levels, lvl)
		cfg.Ledger.Append(ledger.Record{
			Kind: ledger.KindCertifyLevel, Stage: "certify",
			A: fmt.Sprintf("ε=%g", e),
			Values: map[string]float64{
				"epsilon":              e,
				"stable_fraction":      lvl.StableFraction,
				"mean_escape_delta":    lvl.MeanEscapeDelta,
				"worst_escape_delta":   lvl.WorstEscapeDelta,
				"mean_influence_delta": lvl.MeanInfluenceDelta,
				"errors":               float64(lvl.Errors),
			},
		})
		if cfg.Span != nil {
			cfg.Span.Publish("certify_level", "certify",
				obs.Float("epsilon", e),
				obs.Float("stable_frac", lvl.StableFraction),
				obs.Float("worst_escape_delta", lvl.WorstEscapeDelta),
				obs.Int("errors", lvl.Errors))
		}
	}
	if stableGauge != nil {
		stableGauge.Set(cert.StableAt())
	}
	if cfg.Span != nil {
		cfg.Span.Publish("certify_done", "certify",
			obs.Int("levels", len(cert.Levels)),
			obs.Float("stable_frac_widest", cert.StableAt()))
	}

	if !cfg.SkipSensitivity && len(eps) > 0 && eps[len(eps)-1] > 0 {
		cert.Sensitivities, err = sensitivities(sys, params, base, eps[len(eps)-1], measure, cfg.Span)
		if err != nil {
			return nil, err
		}
	}
	cert.Evaluations = evals
	flipped := 0
	for _, s := range cert.Sensitivities {
		if s.Flipped {
			flipped++
		}
	}
	cfg.Ledger.Append(ledger.Record{
		Kind: ledger.KindCertify, Stage: "certify",
		Detail: fmt.Sprintf("baseline placement %s", base.Placement),
		Values: map[string]float64{
			"stable_fraction_widest": cert.StableAt(),
			"evaluations":            float64(cert.Evaluations),
			"samples":                float64(cert.Samples),
			"levels":                 float64(len(cert.Levels)),
			"flipped_parameters":     float64(flipped),
		},
	})
	return cert, nil
}

// sensitivities probes each parameter alone at ±eps and ranks the
// parameters by their power to move the outcome.
func sensitivities(sys *spec.System, params []param, base Outcome, eps float64,
	measure func(*spec.System, string) (Outcome, error), span *obs.Span) ([]Sensitivity, error) {
	out := make([]Sensitivity, 0, len(params))
	for _, pr := range params {
		s := Sensitivity{Parameter: pr.name}
		for _, sign := range []float64{1, -1} {
			p := clone(sys)
			pr.set(p, pr.clamp(pr.get(sys)*(1+sign*eps)))
			o, err := measure(p, pr.name)
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return nil, err
				}
				// A probe that breaks the integration outright is maximal
				// sensitivity, not a certification failure.
				s.Flipped = true
				continue
			}
			if o.Placement != base.Placement {
				s.Flipped = true
			}
			if d := math.Abs(o.EscapeRate - base.EscapeRate); d > s.EscapeDelta {
				s.EscapeDelta = d
			}
		}
		if span != nil && s.Flipped {
			span.Event("robust_sensitivity",
				obs.String("parameter", s.Parameter),
				obs.Float("escape_delta", s.EscapeDelta))
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Flipped != out[j].Flipped {
			return out[i].Flipped
		}
		return out[i].EscapeDelta > out[j].EscapeDelta
	})
	return out, nil
}

// ladder normalises the ε list: defaults, sort, dedupe, range check.
func ladder(eps []float64) ([]float64, error) {
	if len(eps) == 0 {
		eps = []float64{0, 0.01, 0.05, 0.10}
	}
	out := append([]float64(nil), eps...)
	sort.Float64s(out)
	dedup := out[:0]
	for i, e := range out {
		if e < 0 || e >= 1 || math.IsNaN(e) {
			return nil, fmt.Errorf("%w: %g (need 0 <= eps < 1)", ErrBadEpsilon, e)
		}
		if i > 0 && e == out[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	return dedup, nil
}
