package depint

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/spec"
	"repro/internal/stage"
)

// Re-exported robustness-certification types (see internal/robust).
type (
	// Certificate is the robustness report CertifyRobustness emits:
	// placement-stability fraction per ε, worst-case/mean escape and
	// cross-influence drift, and the most sensitive spec parameters.
	Certificate = robust.Certificate
	// RobustLevel is one ε row of a Certificate.
	RobustLevel = robust.Level
	// Sensitivity is one ranked one-at-a-time parameter probe.
	Sensitivity = robust.Sensitivity
)

// RobustnessConfig parameterises CertifyRobustness.
type RobustnessConfig struct {
	// Epsilons is the ladder of relative perturbation half-widths applied
	// to every criticality and influence weight (an influence weight is
	// the product of the paper's p_i1·p_i2·p_i3 factors, so the band
	// models their combined mis-estimation). Empty defaults to
	// {0, 0.01, 0.05, 0.10}; each value must lie in [0,1).
	Epsilons []float64
	// Samples is the perturbation-ensemble size per ε (default 20).
	Samples int
	// Seed fixes the perturbation directions and the fault-injection
	// streams, making the certificate reproducible.
	Seed uint64
	// Trials is the fault-injection budget per evaluation (default 2000).
	Trials int
	// SkipSensitivity disables the per-parameter probes (two extra
	// integrations per spec parameter).
	SkipSensitivity bool
	// Options configures every Integrate run of the ensemble (strategy,
	// approach, workers, …). WithObserver here also instruments the
	// certification itself: one "certify_robustness" span with per-level
	// events, plus robust_* metrics.
	Options []Option
	// Ctx, when non-nil, cancels the certification between evaluations.
	Ctx context.Context
}

// CertifyRobustness integrates sys, then re-integrates an ensemble of
// perturbed copies — every criticality and influence weight moved within
// ±ε relative bands — and certifies how stable the resulting placement
// is. The returned Certificate reports, per ε of the ladder, the fraction
// of the ensemble whose placement (up to HW-node relabelling) matched the
// baseline, the mean and worst-case drift of the fault-escape rate and
// the cross-HW influence, and a ranking of the spec parameters whose
// individual mis-estimation most endangers the outcome.
//
// The ensemble is nested (one perturbation direction per member, scaled
// by ε), so the stability fraction is exactly 1 at ε = 0 and
// monotonically non-increasing as ε grows.
func CertifyRobustness(sys *System, cfg RobustnessConfig) (*Certificate, error) {
	if sys == nil {
		return nil, stage.Wrap("certify", "perturb", "", ErrNilSystem)
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 2000
	}

	var o options
	for _, opt := range cfg.Options {
		opt(&o)
	}
	span := o.observer.StartSpan("certify_robustness",
		obs.String("system", sys.Name),
		obs.Int("samples", cfg.Samples),
		obs.Int("trials", trials))
	defer span.End()

	// The ensemble members must not write onto the caller's ledger — only
	// the certification verdict belongs there, recorded by robust.Certify
	// itself. WithLedger(nil) last in the option list wins.
	innerOpts := cfg.Options
	if o.ledger != nil {
		innerOpts = append(append([]Option{}, cfg.Options...), WithLedger(nil))
	}
	eval := func(s *spec.System) (robust.Outcome, error) {
		res, err := Integrate(s, innerOpts...)
		if err != nil {
			return robust.Outcome{}, err
		}
		fr, err := res.InjectFaults(trials, cfg.Seed)
		if err != nil {
			return robust.Outcome{}, fmt.Errorf("depint: certify fault injection: %w", err)
		}
		return robust.Outcome{
			Placement:      robust.CanonicalPlacement(res.HWOf()),
			EscapeRate:     fr.EscapeRate(),
			CrossInfluence: res.Report.CrossInfluence,
		}, nil
	}

	return robust.Certify(sys, eval, robust.Config{
		Epsilons:        cfg.Epsilons,
		Samples:         cfg.Samples,
		Seed:            cfg.Seed,
		SkipSensitivity: cfg.SkipSensitivity,
		Span:            span,
		Ledger:          o.ledger,
		Ctx:             cfg.Ctx,
	})
}
