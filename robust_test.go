package depint

import (
	"errors"
	"testing"

	"repro/internal/obs"
)

// certCfg keeps the paper-example certification cheap: a small ensemble
// and a short fault-injection budget per evaluation.
func certCfg(seed uint64, eps ...float64) RobustnessConfig {
	return RobustnessConfig{
		Epsilons:        eps,
		Samples:         6,
		Seed:            seed,
		Trials:          200,
		SkipSensitivity: true,
	}
}

// TestCertifyRobustnessPaperExample is the acceptance property on the
// paper's worked example: stability fraction exactly 1.0 at ε=0, and
// monotonically non-increasing as ε grows — across seeds.
func TestCertifyRobustnessPaperExample(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		cert, err := CertifyRobustness(PaperExample(), certCfg(seed, 0, 0.02, 0.05, 0.15))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(cert.Levels) != 4 {
			t.Fatalf("seed %d: %d levels, want 4", seed, len(cert.Levels))
		}
		if cert.Levels[0].Epsilon != 0 || cert.Levels[0].StableFraction != 1.0 {
			t.Errorf("seed %d: stability at eps=0 = %g, want exactly 1.0",
				seed, cert.Levels[0].StableFraction)
		}
		for i := 1; i < len(cert.Levels); i++ {
			if cert.Levels[i].StableFraction > cert.Levels[i-1].StableFraction {
				t.Errorf("seed %d: stability rose from %g (eps=%g) to %g (eps=%g)",
					seed, cert.Levels[i-1].StableFraction, cert.Levels[i-1].Epsilon,
					cert.Levels[i].StableFraction, cert.Levels[i].Epsilon)
			}
		}
		if cert.Baseline.Placement == "" {
			t.Errorf("seed %d: empty baseline placement", seed)
		}
		if cert.StableAt() != cert.Levels[len(cert.Levels)-1].StableFraction {
			t.Errorf("seed %d: StableAt disagrees with the last level", seed)
		}
	}
}

// TestCertifyRobustnessSensitivities: the full probe pass on the paper
// example must rank every spec parameter (8 criticalities + 13 weights).
func TestCertifyRobustnessSensitivities(t *testing.T) {
	cfg := certCfg(7, 0, 0.1)
	cfg.SkipSensitivity = false
	cfg.Samples = 2
	cert, err := CertifyRobustness(PaperExample(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Sensitivities) != 21 {
		t.Fatalf("sensitivities = %d, want 21 (8 criticalities + 13 weights)",
			len(cert.Sensitivities))
	}
	for i := 1; i < len(cert.Sensitivities); i++ {
		a, b := cert.Sensitivities[i-1], cert.Sensitivities[i]
		if !a.Flipped && b.Flipped {
			t.Fatalf("flipping parameter %s ranked below non-flipping %s",
				b.Parameter, a.Parameter)
		}
	}
}

// TestCertifyRobustnessObserver: WithObserver in the options must hang a
// certify_robustness span with one certify_level event per ε.
func TestCertifyRobustnessObserver(t *testing.T) {
	o := obs.New()
	cfg := certCfg(7, 0, 0.05)
	cfg.Options = []Option{WithObserver(o)}
	if _, err := CertifyRobustness(PaperExample(), cfg); err != nil {
		t.Fatal(err)
	}
	var cspan *obs.Span
	for _, r := range o.Roots() {
		if r.Name() == "certify_robustness" {
			cspan = r
		}
	}
	if cspan == nil {
		t.Fatal("no certify_robustness span recorded")
	}
	levels := 0
	for _, ev := range cspan.Events() {
		if ev.Name == "certify_level" {
			levels++
		}
	}
	if levels != 2 {
		t.Errorf("certify_level events = %d, want 2", levels)
	}
}

// TestCertifyRobustnessNilSystem: the nil spec is a classified error.
func TestCertifyRobustnessNilSystem(t *testing.T) {
	if _, err := CertifyRobustness(nil, certCfg(1, 0)); !errors.Is(err, ErrNilSystem) {
		t.Errorf("err = %v, want ErrNilSystem", err)
	}
}

// TestCertifyRobustnessDeterministic: the certificate is a pure function
// of (system, config).
func TestCertifyRobustnessDeterministic(t *testing.T) {
	a, err := CertifyRobustness(PaperExample(), certCfg(7, 0, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CertifyRobustness(PaperExample(), certCfg(7, 0, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if a.Baseline != b.Baseline || len(a.Levels) != len(b.Levels) {
		t.Fatal("two identical certifications disagree on the baseline")
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			t.Errorf("level %d differs: %+v vs %+v", i, a.Levels[i], b.Levels[i])
		}
	}
}
