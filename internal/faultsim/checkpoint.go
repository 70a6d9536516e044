package faultsim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/stage"
)

// ErrCheckpointMismatch is returned when a checkpoint file exists but was
// written by a campaign with a different identity (graph, seed, fault
// model, …). The trial count is deliberately NOT part of the identity, so
// a finished campaign can be resumed with a larger Trials to extend it.
var ErrCheckpointMismatch = errors.New("faultsim: checkpoint does not match campaign")

// ErrCheckpointCorrupt is returned when a checkpoint or search-journal
// file exists but does not decode — a truncated torn write, a leftover
// temp file renamed into place, byte rot. The error is classified under
// the taxonomy's "resume" stage and names the path and, when the decoder
// can pin one, the byte offset of the damage. Campaign.LaxResume (and
// SearchConfig.LaxResume) downgrade it to a logged restart-from-zero;
// identity mismatches are never downgraded.
var ErrCheckpointCorrupt = errors.New("faultsim: checkpoint corrupt")

// corruptError classifies a decode failure of the file at path as an
// ErrCheckpointCorrupt wrapped in a "resume"-stage taxonomy error. The
// offset of the damage is recovered from the JSON decoder when it reports
// one; a truncated file reports its length (the decoder ran off the end).
func corruptError(rule, path string, data []byte, err error) error {
	offset := int64(len(data))
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		offset = syn.Offset
	case errors.As(err, &typ):
		offset = typ.Offset
	}
	return stage.Wrap("resume", rule, "", fmt.Errorf(
		"%w: %s at offset %d of %d: %v", ErrCheckpointCorrupt, path, offset, len(data), err))
}

// Version 2 dropped the serialized PCG state: per-trial substream seeding
// means the completed-trial frontier alone positions a resume exactly, for
// any worker count. Version-1 checkpoints are rejected as mismatches.
const checkpointVersion = 2

// checkpointFile is the on-disk snapshot of a campaign in flight: the
// merged partial Result, the completed-trial frontier, and a fingerprint
// of everything that determines the trial sequence. Writes are atomic
// (temp file in the destination directory, then rename), so a crash
// mid-write leaves the previous checkpoint intact and a resumed run is
// bit-identical to an uninterrupted one.
type checkpointFile struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	TrialsDone  int    `json:"trials_done"`
	Result      Result `json:"result"`
}

// fingerprint hashes the campaign identity: everything that influences the
// deterministic trial sequence except the trial count. Graph node and edge
// enumerations are sorted, so equal campaigns hash equally.
func (c Campaign) fingerprint() string { return fingerprint(flatten(&c), c.model()) }

// fingerprint returns the env's campaign fingerprint.
func (env *campaignEnv) fingerprint() string { return fingerprint(env.spec, env.model) }

// fingerprint hashes the flat campaign w under model: the seed, the
// propagation parameters, the model identity, then every node (name,
// host, occurrence weight, criticality) and every edge (endpoints,
// weight, replica flag) in w's order.
func fingerprint(w *WireCampaign, model FaultModel) string {
	h := newIDHash().str("faultsim-campaign-v2").hex(w.Seed).int(w.MaxHops).
		float(w.CriticalThreshold).float(w.CommFaultFraction)
	// The fault model is part of the campaign identity: a resume under a
	// different model (or different model parameters) must be rejected.
	h = model.fingerprint(h)
	for _, n := range w.Nodes {
		h = h.str(n.Name).str(n.HW).float(w.OccurrenceWeights[n.Name]).float(n.Criticality)
	}
	for _, e := range w.Edges {
		h = h.str(e.From).str(e.To).float(e.Weight).str(strconv.FormatBool(e.Replica))
	}
	return strconv.FormatUint(uint64(h), 16)
}

// idHash is a running 64-bit FNV-1a hash of a campaign identity. Every
// field is hashed as its text followed by a NUL byte — numbers in the
// strconv forms below — so the hash of a campaign never changes with the
// way it is computed. A value type passed and returned by value, it
// stays on the stack: hashing a campaign allocates nothing per field.
type idHash uint64

// fnvPrime is the 64-bit FNV prime. A field's closing NUL is hashed as a
// bare multiplication: XOR with 0 changes nothing.
const fnvPrime = 1099511628211

func newIDHash() idHash { return 14695981039346656037 }

// bytes hashes b and the NUL that ends a field.
func (h idHash) bytes(b []byte) idHash {
	for _, c := range b {
		h = (h ^ idHash(c)) * fnvPrime
	}
	return h * fnvPrime
}

// str hashes a string field.
func (h idHash) str(s string) idHash {
	for i := 0; i < len(s); i++ {
		h = (h ^ idHash(s[i])) * fnvPrime
	}
	return h * fnvPrime
}

// hex hashes u in lower-case hexadecimal without leading zeros, as
// strconv.FormatUint(u, 16) writes it.
func (h idHash) hex(u uint64) idHash {
	for shift := (63 - bits.LeadingZeros64(u|1)) &^ 3; shift >= 0; shift -= 4 {
		h = (h ^ idHash("0123456789abcdef"[u>>shift&0xf])) * fnvPrime
	}
	return h * fnvPrime
}

// int hashes i in decimal.
func (h idHash) int(i int) idHash {
	var buf [20]byte
	return h.bytes(strconv.AppendInt(buf[:0], int64(i), 10))
}

// float hashes the bits of f in hexadecimal, −0 as +0: the shipped spec
// drops a zero float (omitempty), so a flagless worker reads a −0 as +0,
// and the two run the same trials.
func (h idHash) float(f float64) idHash {
	if f == 0 {
		f = 0
	}
	return h.hex(math.Float64bits(f))
}

// saveCheckpoint atomically persists the campaign state after done trials.
func saveCheckpoint(path, fp string, done int, res Result) error {
	data, err := json.Marshal(checkpointFile{
		Version:     checkpointVersion,
		Fingerprint: fp,
		TrialsDone:  done,
		Result:      res,
	})
	if err != nil {
		return fmt.Errorf("faultsim: checkpoint encode: %w", err)
	}
	if err := writeFileAtomic(path, ".faultsim-ckpt-*", data); err != nil {
		return fmt.Errorf("faultsim: checkpoint write %s: %w", path, err)
	}
	return nil
}

// writeFileAtomic replaces path with data crash-safely: it writes a temp
// file named after pattern in the same directory, syncs and closes it,
// then renames it over path. On any failure the temp file is removed, so
// a reader sees either the old file or the complete new one.
func writeFileAtomic(path, pattern string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// loadCheckpoint reads a checkpoint if one exists at path. ok is false
// when the file is simply absent; a present-but-foreign checkpoint is an
// error (ErrCheckpointMismatch), never silently ignored.
func loadCheckpoint(path, fp string) (checkpointFile, bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return checkpointFile{}, false, nil
	}
	if err != nil {
		return checkpointFile{}, false, fmt.Errorf("faultsim: checkpoint read: %w", err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return checkpointFile{}, false, corruptError("checkpoint", path, data, err)
	}
	if cf.Version != checkpointVersion {
		return checkpointFile{}, false, fmt.Errorf("%w: version %d, want %d",
			ErrCheckpointMismatch, cf.Version, checkpointVersion)
	}
	if cf.Fingerprint != fp {
		return checkpointFile{}, false, fmt.Errorf("%w: fingerprint %s, want %s",
			ErrCheckpointMismatch, cf.Fingerprint, fp)
	}
	return cf, true, nil
}

// stopZ is the two-sided 95% normal quantile of the early-stopping
// interval, √2·erf⁻¹(0.95).
const stopZ = 1.9599639845400534

// stopMinTrials is the number of trials before early stopping may end a
// campaign.
const stopMinTrials = 100

// wilsonHalfWidth is the half-width of the 95% Wilson score interval for
// a proportion p̂ observed over n trials:
// z/(1+z²/n)·√(p̂(1−p̂)/n + z²/(4n²)). Unlike the Wald interval it stays
// positive at p̂ = 0 (it is z²/(2n+2z²) there), so a campaign that has
// seen no escape yet cannot certify a zero rate after a handful of
// trials.
func wilsonHalfWidth(p float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	nf := float64(n)
	z2 := stopZ * stopZ
	return stopZ / (1 + z2/nf) * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
}
