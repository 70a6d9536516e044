// Package rng derives independent, reproducible random substreams from
// correlated seed material (consecutive trial or element indices). Every
// randomized component of the repository seeds its PCG generators through
// it, so one substream convention holds everywhere: a substream depends
// only on its base value, never on execution order, which is what makes
// sharded campaigns and generators bit-identical at every worker count.
package rng

import "math/rand/v2"

// salt decorrelates the two PCG seed words of a substream.
const salt = 0xda942042e4dd58b5

// Mix is the SplitMix64 mixer: a bijective avalanche over 64 bits, so
// distinct inputs never collide.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seeds returns the PCG seed pair of the substream with the given base,
// for reseeding a rand.PCG in place without allocating.
func Seeds(base uint64) (uint64, uint64) {
	return Mix(base), Mix(base ^ salt)
}

// New returns a generator positioned on the substream with the given base.
func New(base uint64) *rand.Rand {
	return rand.New(rand.NewPCG(Seeds(base)))
}
