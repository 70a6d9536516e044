// Package ledger is the framework's decision-provenance layer: an
// append-only, schema-versioned record of every decision an integration
// run makes — which FCMs were merged under which rule and Eq. (4) score,
// where each cluster was placed and which alternatives the placement
// beat, which strategies degraded or lost a race, what the fault-injection
// campaign measured — plus the config/spec fingerprint that identifies the
// run and a final metrics snapshot.
//
// Where package obs answers "where did the time go", ledger answers "why
// is p3 colocated with p5, and what would have happened otherwise" — and
// keeps answering after the process exits, because the ledger serialises
// to a JSONL file (one header line, one record per line).
//
// Records carry no wall-clock timestamps: a ledger is a pure function of
// the specification and the configuration, so two runs of the same system
// produce byte-identical ledgers. That determinism is what makes
// Diff usable as a CI regression gate (see diff.go) and Explain usable as
// a post-hoc query API (see explain.go).
//
// The zero value of the subsystem is "off": a nil *Ledger absorbs every
// call, so instrumented code pays one pointer comparison when no ledger
// is installed — the same contract as package obs.
package ledger

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// SchemaVersion is the on-disk ledger schema. Readers reject ledgers
// written under a different major schema rather than misinterpret them.
const SchemaVersion = 1

// Record kinds. One constant per decision class the pipeline records.
const (
	// KindPartition records stage 1: the process-level FCMs named by the
	// specification (Members) and the HW target (Detail).
	KindPartition = "partition"
	// KindInfluence records stage 2: the influence-graph construction and
	// Eq. (3) separation analysis (Detail holds the graph size).
	KindInfluence = "influence"
	// KindReplicate records one fault-tolerance expansion: A is the base
	// FCM, Members its replica ids.
	KindReplicate = "replicate"
	// KindReplicaEdge records one weight-0 replica-separation edge
	// inserted between A and B — the constraint that forbids colocation.
	KindReplicaEdge = "replica_edge"
	// KindMerge records one condensation step: Rule (H1, min-cut,
	// criticality-pair, …), operands A and B, the Eq. (4) mutual
	// influence in Score, and the resulting cluster id in Result.
	KindMerge = "merge"
	// KindBacktrack records one undone pairing decision of the §6.2
	// criticality search (A = high-criticality node, B = partner).
	KindBacktrack = "backtrack"
	// KindDegrade records one abandoned strategy of a fallback chain:
	// Rule is the strategy given up on, Detail the failure.
	KindDegrade = "degrade"
	// KindRace records the outcome of a strategy portfolio race: Rule is
	// the winning strategy.
	KindRace = "race"
	// KindPlace records one cluster-to-processor decision: A is the
	// cluster id, Node the chosen processor, Cost the influence-weighted
	// communication cost it was chosen at, and Alternatives the feasible
	// processors it beat.
	KindPlace = "place"
	// KindRefine records the post-assignment dilation-refinement pass.
	KindRefine = "refine"
	// KindMetrics is the final §5.3 goodness snapshot of a run (Values).
	KindMetrics = "metrics"
	// KindCampaign summarises one fault-injection campaign (Values).
	KindCampaign = "campaign"
	// KindSearchEval records one adversarial-search scenario evaluation
	// (Detail = scenario, Score = criticality-weighted escape rate).
	KindSearchEval = "search_eval"
	// KindSearchBest records the worst-case scenario a search found.
	KindSearchBest = "search_best"
	// KindCertify summarises a robustness certification (Values).
	KindCertify = "certify"
	// KindCertifyLevel records one ε row of a robustness certificate.
	KindCertifyLevel = "certify_level"
	// KindArtifact records a derived artifact (a regenerated table or
	// figure) by content hash, for run-to-run regression diffing.
	KindArtifact = "artifact"
	// KindScenario identifies a generated scenario under test (Detail =
	// family:processes:seed). A decision record: any change to the
	// generator that alters what a corpus entry denotes must surface as
	// a byte diff.
	KindScenario = "scenario"
)

// measurementKind reports whether a kind carries measured values rather
// than a decision: Diff compares measurement records through thresholds
// instead of byte equality (Monte-Carlo noise is not a decision change).
func measurementKind(kind string) bool {
	switch kind {
	case KindMetrics, KindCampaign, KindSearchEval, KindSearchBest,
		KindCertify, KindCertifyLevel:
		return true
	}
	return false
}

// Header identifies a run: what was integrated, under which
// configuration, by which tool, and the fingerprint that must match for
// two ledgers to be comparable decision-for-decision.
type Header struct {
	Schema      int    `json:"schema"`
	Tool        string `json:"tool,omitempty"`
	System      string `json:"system,omitempty"`
	Strategy    string `json:"strategy,omitempty"`
	Approach    string `json:"approach,omitempty"`
	HWNodes     int    `json:"hw_nodes,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Alternative is one feasible-but-not-chosen processor of a placement
// decision, with the cost the chosen node beat.
type Alternative struct {
	Node string  `json:"node"`
	Cost float64 `json:"cost"`
}

// Record is one ledger line. The struct is deliberately flat — every
// decision class uses the subset of fields it needs — so records diff,
// grep and render uniformly. No field carries wall-clock time.
type Record struct {
	// Seq is the append order, assigned by the ledger.
	Seq int `json:"seq"`
	// Kind classifies the decision (see the Kind constants).
	Kind string `json:"kind"`
	// Stage is the pipeline stage the decision was made in.
	Stage string `json:"stage,omitempty"`
	// Rule names the heuristic or rule that made the decision (H1,
	// criticality-pair, importance, …).
	Rule string `json:"rule,omitempty"`
	// A and B are the decision operands (nodes, clusters, parameters).
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Score is the quantity the decision was taken on: the Eq. (4)
	// mutual influence of a merge, the objective of a search evaluation.
	Score float64 `json:"score,omitempty"`
	// Result is the entity the decision produced (a cluster id, a
	// winning scenario).
	Result string `json:"result,omitempty"`
	// Node and Cost describe a placement: the chosen processor and the
	// influence-weighted communication cost it was chosen at.
	Node string  `json:"node,omitempty"`
	Cost float64 `json:"cost,omitempty"`
	// Alternatives lists the feasible placements the decision beat.
	Alternatives []Alternative `json:"alternatives,omitempty"`
	// Members lists member entities (partition processes, replica ids).
	Members []string `json:"members,omitempty"`
	// Attempt is the fallback-chain attempt the decision belongs to.
	Attempt int `json:"attempt,omitempty"`
	// Detail is the human-readable remainder of the decision.
	Detail string `json:"detail,omitempty"`
	// Values holds the measured quantities of measurement records
	// (metrics snapshots, campaign summaries). JSON encoding sorts the
	// keys, keeping the serialised form deterministic.
	Values map[string]float64 `json:"values,omitempty"`
}

// Ledger is an append-only decision log. All methods are safe on a nil
// receiver (they do nothing or return zero values) and safe for
// concurrent use.
type Ledger struct {
	mu      sync.Mutex
	header  Header
	records []Record
}

// New builds a ledger with the given header. The schema version is
// stamped in unconditionally.
func New(h Header) *Ledger {
	h.Schema = SchemaVersion
	return &Ledger{header: h}
}

// Header returns the ledger's header (zero value on nil).
func (l *Ledger) Header() Header {
	if l == nil {
		return Header{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.header
}

// MergeHeader fills empty header fields from h, leaving fields the ledger
// already has untouched — the CLI names the tool, the pipeline fills in
// system, strategy, approach and fingerprint.
func (l *Ledger) MergeHeader(h Header) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.header.Schema == 0 {
		l.header.Schema = SchemaVersion
	}
	if l.header.Tool == "" {
		l.header.Tool = h.Tool
	}
	if l.header.System == "" {
		l.header.System = h.System
	}
	if l.header.Strategy == "" {
		l.header.Strategy = h.Strategy
	}
	if l.header.Approach == "" {
		l.header.Approach = h.Approach
	}
	if l.header.HWNodes == 0 {
		l.header.HWNodes = h.HWNodes
	}
	if l.header.Fingerprint == "" {
		l.header.Fingerprint = h.Fingerprint
	}
}

// Append adds one record, assigns its sequence number, and returns it.
// Appending to a nil ledger returns -1 and does nothing.
func (l *Ledger) Append(r Record) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r.Seq = len(l.records)
	l.records = append(l.records, r)
	return r.Seq
}

// AppendAll splices a batch of records (e.g. a race winner's scratch
// ledger) into the ledger, re-assigning sequence numbers.
func (l *Ledger) AppendAll(rs []Record) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range rs {
		r.Seq = len(l.records)
		l.records = append(l.records, r)
	}
}

// Len returns the number of records (0 on nil).
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Records returns a copy of the record list in append order.
func (l *Ledger) Records() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.records...)
}

// Errors returned by the serialisation layer.
var (
	// ErrSchema marks a ledger written under an incompatible schema.
	ErrSchema = errors.New("ledger: unsupported schema version")
	// ErrEmpty marks a file with no header line.
	ErrEmpty = errors.New("ledger: empty ledger file")
)

// WriteJSONL serialises the ledger: the header on the first line, then
// one record per line, in append order. Each line is byte for byte what
// encoding/json's Encoder writes for the header or record. The whole
// ledger is encoded under the lock into one buffer and handed to w in one
// Write; a record holding a NaN or infinite float fails with the error
// encoding/json returns for it, and nothing is written.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	size := l.header.sizeHint()
	for i := range l.records {
		size += l.records[i].sizeHint()
	}
	buf := appendHeader(make([]byte, 0, size), &l.header)
	var (
		keys []string
		err  error
	)
	for i := range l.records {
		r := &l.records[i]
		if buf, keys, err = appendRecord(buf, r, keys); err != nil {
			l.mu.Unlock()
			return fmt.Errorf("ledger: write record %d: %w", r.Seq, err)
		}
	}
	l.mu.Unlock()
	_, err = w.Write(buf)
	return err
}

// WriteFile writes the JSONL serialisation to path (atomically enough
// for a run artifact: create truncates, a failed write returns an error).
func (l *Ledger) WriteFile(path string) error {
	if l == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJSONL parses a ledger serialised by WriteJSONL.
func ReadJSONL(r io.Reader) (*Ledger, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, ErrEmpty
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("ledger: parse header: %w", err)
	}
	if h.Schema != SchemaVersion {
		return nil, fmt.Errorf("%w: file has %d, reader understands %d",
			ErrSchema, h.Schema, SchemaVersion)
	}
	l := &Ledger{header: h}
	line := 1
	for sc.Scan() {
		line++
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("ledger: parse line %d: %w", line, err)
		}
		l.records = append(l.records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// ReadFile parses the ledger file at path.
func ReadFile(path string) (*Ledger, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l, err := ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// Fingerprint hashes an arbitrary configuration value (via its canonical
// JSON form) into a short hex digest — the identity two ledgers must
// share to be decision-comparable. A value encoding/json cannot marshal
// is hashed from its %+v form instead, which is stable only for values
// that hold no pointers (a pointer prints as its address).
func Fingerprint(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%+v", v))
	}
	return FingerprintBytes(b)
}

// FingerprintBytes is Fingerprint's digest of an already encoded value:
// the first 8 bytes of its SHA-256, in hex. Callers that append their
// canonical JSON by hand (AppendJSONString, AppendJSONFloat) hash it here.
func FingerprintBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
