package fabric

import "repro/internal/rng"

// Spot-check selection. The coordinator re-evaluates a deterministic,
// seed-chosen fraction of returned chunks locally and compares bytes; a
// divergent worker is quarantined. Selection must be a pure function of
// (seed, epoch, chunk) — never of arrival order or worker identity — so
// the same campaign always audits the same chunks (reproducible audits)
// and a worker cannot learn or influence which of its results are
// checked by timing its replies.

// SpotChecked reports whether the coordinator audits grid chunk seq of
// the given epoch under the given seed and check fraction. frac <= 0
// checks nothing, frac >= 1 everything; in between, the hash of
// (seed, epoch, seq) is compared against frac scaled to the full 64-bit
// range, giving an expected frac of all chunks with no pattern a worker
// could predict without the seed.
func SpotChecked(seed, epoch uint64, seq int, frac float64) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	h := rng.Mix(rng.Mix(seed^0x5370637465636b21) ^ rng.Mix(epoch) ^ uint64(seq))
	// Compare in float space: h/2^64 < frac.
	return float64(h>>11)/(1<<53) < frac
}
