package faultsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrBadProbability marks a campaign whose injected probabilities — edge
// weights, occurrence weights, the comm-fault fraction, or a fault-model
// parameter — fall outside [0,1] or are not finite. The paper's Eq. (1)
// factors are probabilities; a campaign silently fed a NaN weight would
// bias every estimator, so Run rejects them up front with a
// stage-taxonomy error instead.
var ErrBadProbability = errors.New("faultsim: probability out of range")

// ErrBadModel marks an invalid fault-model parameterisation (burst size
// below 1, non-probability persistence, …).
var ErrBadModel = errors.New("faultsim: invalid fault model")

// FaultModel selects how the initial fault set of each trial is drawn —
// the paper's single-fault assumption ("faults occur in single FCMs, or
// in communication between a pair of FCMs", §2) generalised to the
// correlated and common-mode failure classes layered architectures face.
//
// The interface is sealed: implementations live in this package and are
// obtained from the constructors SingleFault, Correlated, Burst and
// Transient. Sealing is what keeps the determinism contract enforceable —
// every model draws from the trial's private PCG substream in a fixed
// order, so campaign results stay bit-identical across worker counts and
// checkpoint/resume for every model.
type FaultModel interface {
	// Name identifies the model ("single", "correlated", "burst",
	// "transient"); it participates in the checkpoint fingerprint, so a
	// resume under a different model is rejected as a mismatch.
	Name() string

	// validate checks the model parameters at campaign start.
	validate() error

	// fingerprint adds the model identity (name + parameters) to the
	// campaign fingerprint.
	fingerprint(h idHash) idHash

	// persist is the probability a fault is permanent rather than
	// transient (1 = every fault permanent; only Transient lowers it).
	persist() float64

	// inject draws the initial fault set for one trial into t, using only
	// rng and the immutable env.
	inject(env *campaignEnv, rng *rand.Rand, t *trialState)
}

// trialOrigin is one initially faulty FCM of a trial, by node id.
type trialOrigin struct {
	node int
	// viaCross marks an origin that became faulty through a corrupted
	// cross-HW communication, so its criticality counts as escaped loss.
	viaCross bool
}

// trialState carries the injection outcome of one trial from the model
// into the shared propagation loop. A worker reuses one for every trial,
// together with the Burst sampler's scratch.
type trialState struct {
	origins []trialOrigin
	// weights and taken are Burst's per-trial sampler copy and drawn
	// marks, kept across trials to avoid allocating them.
	weights []float64
	taken   []bool
	// commFault marks a trial whose initial fault was a corrupted
	// communication rather than an FCM fault.
	commFault bool
	// commCrossed marks a comm fault whose corrupted message itself
	// crossed a HW boundary.
	commCrossed bool
}

func (t *trialState) reset() {
	*t = trialState{origins: t.origins[:0], weights: t.weights, taken: t.taken}
}

// injectSingle is the paper's original fault model: with probability
// env.commFrac the trial corrupts a communication edge (the receiving FCM
// becomes faulty); otherwise one FCM drawn from the occurrence-weight
// sampler faults. Shared by SingleFault and Transient so both make the
// exact same rng draws as the pre-interface injector.
func injectSingle(env *campaignEnv, rng *rand.Rand, t *trialState) {
	if env.commFrac > 0 && len(env.edges) > 0 && rng.Float64() < env.commFrac {
		e := env.edges[rng.IntN(len(env.edges))]
		t.commFault = true
		crossed := env.hasHW && env.hw[e.from] != env.hw[e.to]
		t.commCrossed = crossed
		t.origins = append(t.origins, trialOrigin{node: e.to, viaCross: crossed})
		return
	}
	t.origins = append(t.origins, trialOrigin{node: env.pick(rng)})
}

// singleModel is the default: one initial fault per trial.
type singleModel struct{}

// SingleFault returns the paper's single-fault model (the default when
// Campaign.Model is nil): each trial injects one fault, into an FCM or —
// with probability CommFaultFraction — into a communication edge.
func SingleFault() FaultModel { return singleModel{} }

func (singleModel) Name() string                { return "single" }
func (singleModel) validate() error             { return nil }
func (singleModel) fingerprint(h idHash) idHash { return h.str("single") }
func (singleModel) persist() float64            { return 1 }
func (singleModel) inject(env *campaignEnv, rng *rand.Rand, t *trialState) {
	injectSingle(env, rng, t)
}

// correlatedModel faults every FCM colocated with the drawn one.
type correlatedModel struct{}

// Correlated returns the common-mode fault model: the trial draws one FCM
// from the occurrence-weight sampler and then faults *every* FCM hosted
// on the same HW node simultaneously — the correlated failure class a
// shared power supply, clock or hypervisor induces, which the single-fault
// containment argument of Eq. (1)–(4) does not cover. With no HW mapping
// the model degenerates to SingleFault (there is no colocation to share).
func Correlated() FaultModel { return correlatedModel{} }

func (correlatedModel) Name() string                { return "correlated" }
func (correlatedModel) validate() error             { return nil }
func (correlatedModel) fingerprint(h idHash) idHash { return h.str("correlated") }
func (correlatedModel) persist() float64            { return 1 }
func (correlatedModel) inject(env *campaignEnv, rng *rand.Rand, t *trialState) {
	seed := env.pick(rng)
	if !env.hasHW {
		t.origins = append(t.origins, trialOrigin{node: seed})
		return
	}
	host := env.hw[seed]
	// Node ids follow the sorted node names, so the colocated set
	// enumerates in a fixed order — the same order at every worker count
	// and resume point.
	for n, h := range env.hw {
		if h == host {
			t.origins = append(t.origins, trialOrigin{node: n})
		}
	}
}

// burstModel injects K distinct initial faults per trial.
type burstModel struct{ k int }

// Burst returns the k-simultaneous-fault model: each trial draws k
// distinct FCMs (weighted sampling without replacement over the
// occurrence weights; once the remaining weight mass is exhausted the
// residue is drawn uniformly) and faults them all at once. Burst(1) is
// equivalent to SingleFault with CommFaultFraction 0. k is clamped to the
// node count at injection time.
func Burst(k int) FaultModel { return burstModel{k: k} }

func (m burstModel) Name() string { return "burst" }
func (m burstModel) validate() error {
	if m.k < 1 {
		return fmt.Errorf("%w: burst size %d (must be >= 1)", ErrBadModel, m.k)
	}
	return nil
}
func (m burstModel) fingerprint(h idHash) idHash { return h.str("burst").int(m.k) }
func (m burstModel) persist() float64            { return 1 }
func (m burstModel) inject(env *campaignEnv, rng *rand.Rand, t *trialState) {
	k := m.k
	if k > len(env.nodes) {
		k = len(env.nodes)
	}
	// Weighted sampling without replacement: copy the sampler weights,
	// zero each drawn node. When the remaining mass hits zero (forced
	// seed nodes, zero-weight tails) the rest draws uniformly over the
	// not-yet-faulty nodes, so a burst always reaches its size.
	weights := append(t.weights[:0], env.weights...)
	taken := t.taken
	if cap(taken) < len(env.nodes) {
		taken = make([]bool, len(env.nodes))
	}
	taken = taken[:len(env.nodes)]
	clear(taken)
	t.weights, t.taken = weights, taken
	total := env.weightTotal
	for drawn := 0; drawn < k; drawn++ {
		idx := -1
		if total > 0 {
			x := rng.Float64() * total
			for i, w := range weights {
				x -= w
				if x < 0 {
					idx = i
					break
				}
			}
			if idx < 0 { // float round-off at the tail
				for i := len(weights) - 1; i >= 0; i-- {
					if weights[i] > 0 {
						idx = i
						break
					}
				}
			}
		}
		if idx < 0 {
			// Uniform over the remaining nodes, in sorted-node order.
			nth := rng.IntN(len(env.nodes) - drawn)
			for i := range env.nodes {
				if taken[i] {
					continue
				}
				if nth == 0 {
					idx = i
					break
				}
				nth--
			}
		}
		taken[idx] = true
		total -= weights[idx]
		if total < 0 {
			total = 0
		}
		weights[idx] = 0
		t.origins = append(t.origins, trialOrigin{node: idx})
	}
}

// transientModel is single-fault injection with per-fault recovery.
type transientModel struct{ persistProb float64 }

// Transient returns the transient-vs-permanent fault model: injection is
// the single-fault model's, but every fault — injected or propagated — is
// permanent only with probability persist. A transient fault still
// affects its FCM (it counts toward AffectedCount, criticality loss and
// escape accounting) but recovers before transmitting onward, so it never
// joins the propagation frontier; Result.TransientFaults counts the
// recoveries. Transient(1) is bit-identical to SingleFault.
func Transient(persist float64) FaultModel { return transientModel{persistProb: persist} }

func (m transientModel) Name() string { return "transient" }
func (m transientModel) validate() error {
	if m.persistProb < 0 || m.persistProb > 1 || math.IsNaN(m.persistProb) {
		return fmt.Errorf("%w: transient persistence %g", ErrBadModel, m.persistProb)
	}
	return nil
}
func (m transientModel) fingerprint(h idHash) idHash {
	return h.str("transient").float(m.persistProb)
}
func (m transientModel) persist() float64 { return m.persistProb }
func (m transientModel) inject(env *campaignEnv, rng *rand.Rand, t *trialState) {
	injectSingle(env, rng, t)
}

// ModelByName returns the fault model a CLI selector names: "single",
// "correlated", "burst" (size from burst, minimum 2 when unset) or
// "transient" (persistence from persist). Unknown names are an error
// listing the catalogue.
func ModelByName(name string, burst int, persist float64) (FaultModel, error) {
	switch name {
	case "", "single":
		return SingleFault(), nil
	case "correlated":
		return Correlated(), nil
	case "burst":
		if burst < 1 {
			burst = 2
		}
		return Burst(burst), nil
	case "transient":
		return Transient(persist), nil
	default:
		return nil, fmt.Errorf("%w: unknown model %q (have single, correlated, burst, transient)",
			ErrBadModel, name)
	}
}
