package fabric

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/faultsim"
	"repro/internal/ledger"
)

// The frame codec is written by hand, without reflection. appendFrame
// writes byte for byte what json.Marshal writes for the same Frame: the
// fields in struct order under the same omitempty rules, strings and
// floats through the ledger's JSON primitives. decodeFrame parses that
// canonical form directly and hands any other input — whitespace,
// escapes, unknown, duplicate or case-variant keys, a null the encoder
// never writes, a number it cannot place, the relay's events and meter —
// to json.Unmarshal whole, so what a payload decodes to never depends on
// which path read it.
// FuzzFrameEncodeMatchesJSON and FuzzFrameDecodeMatchesJSON hold both
// directions to encoding/json.

// appendFrame appends f's JSON encoding to dst. On a NaN or infinite
// float it returns the error json.Marshal would, and the bytes appended
// so far are to be dropped.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	var err error
	dst = ledger.AppendJSONString(append(dst, `{"type":`...), f.Type)
	dst = appendIntField(dst, `,"proto":`, int64(f.Proto))
	dst = appendStringField(dst, `,"fingerprint":`, f.Fingerprint)
	dst = appendStringField(dst, `,"worker":`, f.Worker)
	dst = appendStringField(dst, `,"reason":`, f.Reason)
	dst = appendIntField(dst, `,"trials":`, int64(f.Trials))
	dst = appendStringField(dst, `,"nonce":`, f.Nonce)
	dst = appendStringField(dst, `,"mac":`, f.MAC)
	dst = appendUintField(dst, `,"epoch":`, f.Epoch)
	if f.Spec != nil {
		if dst = append(dst, `,"spec":`...); f.specJSON != nil {
			dst = append(dst, f.specJSON...)
		} else if dst, err = appendCampaign(dst, f.Spec); err != nil {
			return dst, err
		}
	}
	dst = appendUintField(dst, `,"lease":`, f.Lease)
	dst = appendIntField(dst, `,"begin":`, int64(f.Begin))
	dst = appendIntField(dst, `,"end":`, int64(f.End))
	if f.Chunk != nil {
		if dst, err = appendChunk(append(dst, `,"chunk":`...), f.Chunk); err != nil {
			return dst, err
		}
	}
	if len(f.Leases) > 0 {
		dst = append(dst, `,"leases":[`...)
		for i, id := range f.Leases {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, id, 10)
		}
		dst = append(dst, ']')
	}
	dst = appendStringField(dst, `,"trace":`, f.Trace)
	dst = appendIntField(dst, `,"ts":`, f.TS)
	dst = appendIntField(dst, `,"echo_ts":`, f.EchoTS)
	dst = appendIntField(dst, `,"hold_us":`, f.HoldUS)
	dst = appendIntField(dst, `,"wts":`, f.WTS)
	dst = appendIntField(dst, `,"recv_us":`, f.RecvUS)
	dst = appendIntField(dst, `,"start_us":`, f.StartUS)
	dst = appendIntField(dst, `,"end_us":`, f.EndUS)
	// Events and Meter ride only relay-on frames and carry map[string]any
	// attributes: they stay on encoding/json.
	if len(f.Events) > 0 {
		if dst, err = appendMarshal(append(dst, `,"events":`...), f.Events); err != nil {
			return dst, err
		}
	}
	if len(f.Meter) > 0 {
		if dst, err = appendMarshal(append(dst, `,"meter":`...), f.Meter); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// encodeSpec encodes a campaign spec once for every campaign frame of an
// epoch, into a buffer presized from the spec: its names plus 40 bytes
// per node and per edge, which holds the JSON around them and a number
// of up to six significant digits (a spec with longer numbers grows the
// buffer once more). A spec that fails to encode yields nil: each frame
// then encodes Spec itself and fails with the encoder's error.
func encodeSpec(w *faultsim.WireCampaign) []byte {
	size := 256 + 40*(len(w.Nodes)+len(w.Edges)+len(w.OccurrenceWeights)) + len(w.Model) + len(w.Label)
	for _, n := range w.Nodes {
		size += len(n.Name) + len(n.HW)
	}
	for _, e := range w.Edges {
		size += len(e.From) + len(e.To)
	}
	for k := range w.OccurrenceWeights {
		size += len(k)
	}
	buf, err := appendCampaign(make([]byte, 0, size), w)
	if err != nil {
		return nil
	}
	return buf
}

// appendChunk appends the JSON encoding of a result chunk. The per-trial
// loss slices have no omitempty: nil is written as null.
func appendChunk(dst []byte, ch *faultsim.ChunkOutput) ([]byte, error) {
	var err error
	dst = strconv.AppendInt(append(dst, `{"begin":`...), int64(ch.Begin), 10)
	dst = strconv.AppendInt(append(dst, `,"end":`...), int64(ch.End), 10)
	dst = strconv.AppendInt(append(dst, `,"total_affected":`...), int64(ch.TotalAffected), 10)
	dst = strconv.AppendInt(append(dst, `,"cross_transmissions":`...), int64(ch.CrossTransmissions), 10)
	dst = strconv.AppendInt(append(dst, `,"trials_with_escape":`...), int64(ch.TrialsWithEscape), 10)
	dst = strconv.AppendInt(append(dst, `,"comm_fault_trials":`...), int64(ch.CommFaultTrials), 10)
	dst = strconv.AppendInt(append(dst, `,"critical_affected":`...), int64(ch.CriticalAffected), 10)
	dst = strconv.AppendInt(append(dst, `,"initial_faults":`...), int64(ch.InitialFaults), 10)
	dst = strconv.AppendInt(append(dst, `,"transient_faults":`...), int64(ch.TransientFaults), 10)
	if dst, err = appendFloats(append(dst, `,"crit_per_trial":`...), ch.CritPerTrial); err != nil {
		return dst, err
	}
	if dst, err = appendFloats(append(dst, `,"esc_per_trial":`...), ch.EscPerTrial); err != nil {
		return dst, err
	}
	dst = appendIntsField(dst, `,"affected":`, ch.Affected)
	dst = appendIntsField(dst, `,"edge_trials":`, ch.EdgeTrials)
	dst = appendIntsField(dst, `,"transmissions":`, ch.Transmissions)
	return append(dst, '}'), nil
}

// appendCampaign appends the JSON encoding of a shipped campaign spec.
// Nodes has no omitempty: nil is written as null. OccurrenceWeights is
// written in sorted key order, as encoding/json writes every map.
func appendCampaign(dst []byte, w *faultsim.WireCampaign) ([]byte, error) {
	var err error
	dst = append(dst, `{"nodes":`...)
	if w.Nodes == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, n := range w.Nodes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = ledger.AppendJSONString(append(dst, `{"name":`...), n.Name)
			if dst, err = appendFloatField(dst, `,"criticality":`, n.Criticality); err != nil {
				return dst, err
			}
			dst = append(appendStringField(dst, `,"hw":`, n.HW), '}')
		}
		dst = append(dst, ']')
	}
	if len(w.Edges) > 0 {
		dst = append(dst, `,"edges":[`...)
		for i, e := range w.Edges {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = ledger.AppendJSONString(append(dst, `{"from":`...), e.From)
			dst = ledger.AppendJSONString(append(dst, `,"to":`...), e.To)
			if dst, err = appendFloatField(dst, `,"weight":`, e.Weight); err != nil {
				return dst, err
			}
			if e.Replica {
				dst = append(dst, `,"replica":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"trials":`...), int64(w.Trials), 10)
	dst = strconv.AppendUint(append(dst, `,"seed":`...), w.Seed, 10)
	if len(w.OccurrenceWeights) > 0 {
		keys := make([]string, 0, len(w.OccurrenceWeights))
		for k := range w.OccurrenceWeights {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = append(dst, `,"occurrence_weights":{`...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(ledger.AppendJSONString(dst, k), ':')
			if dst, err = ledger.AppendJSONFinite(dst, w.OccurrenceWeights[k]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	if dst, err = appendFloatField(dst, `,"critical_threshold":`, w.CriticalThreshold); err != nil {
		return dst, err
	}
	dst = appendIntField(dst, `,"max_hops":`, int64(w.MaxHops))
	if dst, err = appendFloatField(dst, `,"comm_fault_fraction":`, w.CommFaultFraction); err != nil {
		return dst, err
	}
	dst = appendStringField(dst, `,"model":`, w.Model)
	dst = appendIntField(dst, `,"burst":`, int64(w.Burst))
	if dst, err = appendFloatField(dst, `,"persist":`, w.Persist); err != nil {
		return dst, err
	}
	dst = appendStringField(dst, `,"label":`, w.Label)
	return append(dst, '}'), nil
}

// The append*Field helpers write `,"key":value` (key carries its comma,
// quotes and colon) unless the value is its type's zero (omitempty).

func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return ledger.AppendJSONString(append(dst, key...), s)
}

func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func appendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func appendFloatField(dst []byte, key string, f float64) ([]byte, error) {
	if f == 0 {
		return dst, nil
	}
	return ledger.AppendJSONFinite(append(dst, key...), f)
}

func appendIntsField(dst []byte, key string, vs []int) []byte {
	if len(vs) == 0 {
		return dst
	}
	dst = append(append(dst, key...), '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendFloats appends vs as a JSON array, or null when vs is nil.
func appendFloats(dst []byte, vs []float64) ([]byte, error) {
	if vs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	var err error
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = ledger.AppendJSONFinite(dst, v); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

func appendMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// decodeFrame decodes one frame payload into the zero Frame f: through
// the canonical-form parser when it recognises the whole payload, else
// through json.Unmarshal. The parser fills a result chunk taken from
// spare when one is waiting there (nil: never). f holds no reference into
// data afterwards.
func decodeFrame(data []byte, f *Frame, spare <-chan *faultsim.ChunkOutput) error {
	if parseFrame(data, f, spare) {
		return nil
	}
	*f = Frame{}
	return json.Unmarshal(data, f)
}

// parseFrame parses the canonical frame form into the zero Frame f. It
// reports false, leaving f partly filled, on anything else. It never
// converts a key to a string, and it sizes every array by counting the
// array's elements in data before allocating, unless the array fits the
// storage of a chunk taken from spare.
func parseFrame(data []byte, f *Frame, spare <-chan *faultsim.ChunkOutput) bool {
	d := frameDecoder{b: data, spare: spare}
	return d.frame(f) && d.i == len(d.b)
}

// frameDecoder is a cursor over a frame payload. Every method reports
// false on input outside the canonical form.
type frameDecoder struct {
	b []byte
	i int

	// names interns the strings of a campaign spec: every edge endpoint
	// repeats a node name, and HW names repeat across nodes.
	names map[string]string
	// spare holds released chunks a result may be decoded into.
	spare <-chan *faultsim.ChunkOutput
}

// newChunk returns a released chunk when one is waiting, else a fresh one.
func (d *frameDecoder) newChunk() *faultsim.ChunkOutput {
	select {
	case ch := <-d.spare:
		return ch
	default:
		return new(faultsim.ChunkOutput)
	}
}

// lit consumes c if it is the next byte.
func (d *frameDecoder) lit(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// word consumes s if the input continues with it.
func (d *frameDecoder) word(s string) bool {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// object consumes '{' and reports whether the object is empty ('}'
// consumed too).
func (d *frameDecoder) object() (ok, empty bool) {
	if !d.lit('{') {
		return false, false
	}
	return true, d.lit('}')
}

// key consumes `"name":` and returns the name's bytes, which must be
// plain ASCII without escapes.
func (d *frameDecoder) key() ([]byte, bool) {
	if !d.lit('"') {
		return nil, false
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			k := d.b[start:d.i]
			d.i++
			return k, d.lit(':')
		}
		if c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
			return nil, false
		}
		d.i++
	}
	return nil, false
}

// rawString consumes a JSON string with no escapes and valid UTF-8 —
// the strings encoding/json takes over verbatim — and returns its bytes.
func (d *frameDecoder) rawString() ([]byte, bool) {
	if !d.lit('"') {
		return nil, false
	}
	start, ascii := d.i, true
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			s := d.b[start:d.i]
			d.i++
			return s, ascii || utf8.Valid(s)
		}
		if c < 0x20 || c == '\\' {
			return nil, false
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
		d.i++
	}
	return nil, false
}

func (d *frameDecoder) str() (string, bool) {
	s, ok := d.rawString()
	return string(s), ok
}

// name consumes a string of a campaign spec, interned in d.names.
func (d *frameDecoder) name() (string, bool) {
	b, ok := d.rawString()
	if !ok {
		return "", false
	}
	if s, ok := d.names[string(b)]; ok {
		return s, true
	}
	s := string(b)
	d.names[s] = s
	return s, true
}

// frameTypes are the frame type names decoded without an allocation.
var frameTypes = [...]string{
	TypeHello, TypeWelcome, TypeReject, TypeLease, TypeResult, TypeHeartbeat,
	TypeDrain, TypeDone, TypeChallenge, TypeAuth, TypeCampaign, TypeNeedCampaign,
}

func (d *frameDecoder) typeName() (string, bool) {
	s, ok := d.rawString()
	if !ok {
		return "", false
	}
	for _, t := range frameTypes {
		if string(s) == t {
			return t, true
		}
	}
	return string(s), true
}

// digits consumes the JSON integer digits 0 | [1-9][0-9]* and returns
// their value, failing past limit.
func (d *frameDecoder) digits(limit uint64) (uint64, bool) {
	if d.i >= len(d.b) {
		return 0, false
	}
	if d.b[d.i] == '0' {
		d.i++
		return 0, true
	}
	var v uint64
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i] - '0'
		if c > 9 {
			break
		}
		// 18 digits stay below 10^18 < 2^63; only longer runs can overflow.
		if d.i-start >= 18 && v > (limit-uint64(c))/10 {
			return 0, false
		}
		v = v*10 + uint64(c)
		d.i++
	}
	return v, d.i > start
}

// uint64 consumes an unsigned JSON integer.
func (d *frameDecoder) uint64() (uint64, bool) {
	return d.digits(1<<64 - 1)
}

// int64 consumes a JSON integer that fits in an int64.
func (d *frameDecoder) int64() (int64, bool) {
	if d.lit('-') {
		v, ok := d.digits(1 << 63)
		return -int64(v), ok
	}
	v, ok := d.digits(1<<63 - 1)
	return int64(v), ok
}

// int consumes a JSON integer that fits in an int.
func (d *frameDecoder) int() (int, bool) {
	v, ok := d.int64()
	return int(v), ok && int64(int(v)) == v
}

// float consumes a JSON number and parses it the way encoding/json does,
// failing where encoding/json would (out of float64 range).
func (d *frameDecoder) float() (float64, bool) {
	start := d.i
	d.lit('-')
	if !d.lit('0') {
		if d.i >= len(d.b) || d.b[d.i] < '1' || d.b[d.i] > '9' {
			return 0, false
		}
		d.digitRun()
	}
	if d.lit('.') && !d.digitRun() {
		return 0, false
	}
	if d.lit('e') || d.lit('E') {
		if !d.lit('-') {
			d.lit('+')
		}
		if !d.digitRun() {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	return v, err == nil
}

// digitRun consumes one or more decimal digits.
func (d *frameDecoder) digitRun() bool {
	start := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
		d.i++
	}
	return d.i > start
}

// next consumes the separator after an object member: more is true after
// a ',', ok is true after a ',' or the closing '}'.
func (d *frameDecoder) next() (more, ok bool) {
	if d.lit(',') {
		return true, true
	}
	return false, d.lit('}')
}

// The arrays are sized by counting their elements in the frame before
// any element is parsed: in the canonical form an array of numbers holds
// one comma fewer than elements, an array of flat objects one '{' per
// element, and neither holds a ']' before its end. A string holding '{'
// or ']' miscounts, and the element parse that follows, which expects
// exactly the counted elements, then fails. A count above what the
// shortest elements could fill fails at once, so no array is allocated
// larger than its bytes could hold.

// countNumbers counts the elements of the number array whose '[' was
// just consumed, without moving the cursor.
func (d *frameDecoder) countNumbers() (int, bool) {
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end <= 0 {
		return 0, end == 0
	}
	n := bytes.Count(d.b[d.i:d.i+end], comma) + 1
	return n, 2*n-1 <= end // n elements "0" and n-1 commas
}

// countObjects counts the elements of the object array whose '[' was
// just consumed, without moving the cursor.
func (d *frameDecoder) countObjects() (int, bool) {
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		return 0, false
	}
	n := bytes.Count(d.b[d.i:d.i+end], brace)
	return n, 3*n-1 <= end // n elements "{}" and n-1 commas
}

var comma, brace = []byte{','}, []byte{'{'}

func (d *frameDecoder) uints() ([]uint64, bool) {
	if !d.lit('[') {
		return nil, false
	}
	n, ok := d.countNumbers()
	if !ok {
		return nil, false
	}
	vs := make([]uint64, n)
	for i := range vs {
		if i > 0 && !d.lit(',') {
			return nil, false
		}
		if vs[i], ok = d.uint64(); !ok {
			return nil, false
		}
	}
	return vs, d.lit(']')
}

// resized returns buf at length n, reusing its storage when it fits. The
// result is never nil, as json.Unmarshal decodes "[]" to an empty slice.
func resized[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ints consumes an int array, into buf's storage when it fits.
func (d *frameDecoder) ints(buf []int) ([]int, bool) {
	if !d.lit('[') {
		return nil, false
	}
	n, ok := d.countNumbers()
	if !ok {
		return nil, false
	}
	vs := resized(buf, n)
	for i := range vs {
		if i > 0 && !d.lit(',') {
			return nil, false
		}
		if vs[i], ok = d.int(); !ok {
			return nil, false
		}
	}
	return vs, d.lit(']')
}

// floats consumes a float array, into buf's storage when it fits, or
// null (nil).
func (d *frameDecoder) floats(buf []float64) ([]float64, bool) {
	if d.word("null") {
		return nil, true
	}
	if !d.lit('[') {
		return nil, false
	}
	n, ok := d.countNumbers()
	if !ok {
		return nil, false
	}
	vs := resized(buf, n)
	for i := range vs {
		if i > 0 && !d.lit(',') {
			return nil, false
		}
		if vs[i], ok = d.float(); !ok {
			return nil, false
		}
	}
	return vs, d.lit(']')
}

// Each object parser below records the members it has read in a bit set
// and fails on a repeated key, whose meaning under encoding/json (decode
// again into the same field) is left to encoding/json.

func (d *frameDecoder) frame(f *Frame) bool {
	if ok, empty := d.object(); !ok || empty {
		return ok
	}
	var seen uint32
	for {
		k, ok := d.key()
		if !ok {
			return false
		}
		var bit uint32
		switch string(k) {
		case "type":
			bit = 1 << 0
			f.Type, ok = d.typeName()
		case "proto":
			bit = 1 << 1
			f.Proto, ok = d.int()
		case "fingerprint":
			bit = 1 << 2
			f.Fingerprint, ok = d.str()
		case "worker":
			bit = 1 << 3
			f.Worker, ok = d.str()
		case "reason":
			bit = 1 << 4
			f.Reason, ok = d.str()
		case "trials":
			bit = 1 << 5
			f.Trials, ok = d.int()
		case "nonce":
			bit = 1 << 6
			f.Nonce, ok = d.str()
		case "mac":
			bit = 1 << 7
			f.MAC, ok = d.str()
		case "epoch":
			bit = 1 << 8
			f.Epoch, ok = d.uint64()
		case "spec":
			bit = 1 << 9
			f.Spec = new(faultsim.WireCampaign)
			ok = d.campaign(f.Spec)
		case "lease":
			bit = 1 << 10
			f.Lease, ok = d.uint64()
		case "begin":
			bit = 1 << 11
			f.Begin, ok = d.int()
		case "end":
			bit = 1 << 12
			f.End, ok = d.int()
		case "chunk":
			bit = 1 << 13
			f.Chunk = d.newChunk()
			ok = d.chunk(f.Chunk)
		case "leases":
			bit = 1 << 14
			f.Leases, ok = d.uints()
		case "trace":
			bit = 1 << 15
			f.Trace, ok = d.str()
		case "ts":
			bit = 1 << 16
			f.TS, ok = d.int64()
		case "echo_ts":
			bit = 1 << 17
			f.EchoTS, ok = d.int64()
		case "hold_us":
			bit = 1 << 18
			f.HoldUS, ok = d.int64()
		case "wts":
			bit = 1 << 19
			f.WTS, ok = d.int64()
		case "recv_us":
			bit = 1 << 20
			f.RecvUS, ok = d.int64()
		case "start_us":
			bit = 1 << 21
			f.StartUS, ok = d.int64()
		case "end_us":
			bit = 1 << 22
			f.EndUS, ok = d.int64()
		default:
			// Including events and meter: relay-only payloads of
			// map[string]any attributes, left to encoding/json with the
			// rest of their frame.
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.next(); !more {
			return ok
		}
	}
}

// chunk parses a result chunk into ch, which may be a released chunk: its
// slices lend their storage, and every member the payload leaves out
// decodes to its zero value, as into a fresh chunk.
func (d *frameDecoder) chunk(ch *faultsim.ChunkOutput) bool {
	old := *ch
	*ch = faultsim.ChunkOutput{}
	if ok, empty := d.object(); !ok || empty {
		return ok
	}
	var seen uint16
	for {
		k, ok := d.key()
		if !ok {
			return false
		}
		var bit uint16
		switch string(k) {
		case "begin":
			bit = 1 << 0
			ch.Begin, ok = d.int()
		case "end":
			bit = 1 << 1
			ch.End, ok = d.int()
		case "total_affected":
			bit = 1 << 2
			ch.TotalAffected, ok = d.int()
		case "cross_transmissions":
			bit = 1 << 3
			ch.CrossTransmissions, ok = d.int()
		case "trials_with_escape":
			bit = 1 << 4
			ch.TrialsWithEscape, ok = d.int()
		case "comm_fault_trials":
			bit = 1 << 5
			ch.CommFaultTrials, ok = d.int()
		case "critical_affected":
			bit = 1 << 6
			ch.CriticalAffected, ok = d.int()
		case "initial_faults":
			bit = 1 << 7
			ch.InitialFaults, ok = d.int()
		case "transient_faults":
			bit = 1 << 8
			ch.TransientFaults, ok = d.int()
		case "crit_per_trial":
			bit = 1 << 9
			ch.CritPerTrial, ok = d.floats(old.CritPerTrial)
		case "esc_per_trial":
			bit = 1 << 10
			ch.EscPerTrial, ok = d.floats(old.EscPerTrial)
		case "affected":
			bit = 1 << 11
			ch.Affected, ok = d.ints(old.Affected)
		case "edge_trials":
			bit = 1 << 12
			ch.EdgeTrials, ok = d.ints(old.EdgeTrials)
		case "transmissions":
			bit = 1 << 13
			ch.Transmissions, ok = d.ints(old.Transmissions)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.next(); !more {
			return ok
		}
	}
}

func (d *frameDecoder) campaign(w *faultsim.WireCampaign) bool {
	if ok, empty := d.object(); !ok || empty {
		return ok
	}
	d.names = map[string]string{}
	var seen uint16
	for {
		k, ok := d.key()
		if !ok {
			return false
		}
		var bit uint16
		switch string(k) {
		case "nodes":
			bit = 1 << 0
			w.Nodes, ok = d.nodes()
		case "edges":
			bit = 1 << 1
			w.Edges, ok = d.edges()
		case "trials":
			bit = 1 << 2
			w.Trials, ok = d.int()
		case "seed":
			bit = 1 << 3
			w.Seed, ok = d.uint64()
		case "occurrence_weights":
			bit = 1 << 4
			w.OccurrenceWeights, ok = d.weights()
		case "critical_threshold":
			bit = 1 << 5
			w.CriticalThreshold, ok = d.float()
		case "max_hops":
			bit = 1 << 6
			w.MaxHops, ok = d.int()
		case "comm_fault_fraction":
			bit = 1 << 7
			w.CommFaultFraction, ok = d.float()
		case "model":
			bit = 1 << 8
			w.Model, ok = d.str()
		case "burst":
			bit = 1 << 9
			w.Burst, ok = d.int()
		case "persist":
			bit = 1 << 10
			w.Persist, ok = d.float()
		case "label":
			bit = 1 << 11
			w.Label, ok = d.str()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.next(); !more {
			return ok
		}
	}
}

// nodes consumes the spec's node array or null (nil).
func (d *frameDecoder) nodes() ([]faultsim.WireNode, bool) {
	if d.word("null") {
		return nil, true
	}
	if !d.lit('[') {
		return nil, false
	}
	n, ok := d.countObjects()
	if !ok {
		return nil, false
	}
	ns := make([]faultsim.WireNode, n)
	for i := range ns {
		if i > 0 && !d.lit(',') {
			return nil, false
		}
		if !d.node(&ns[i]) {
			return nil, false
		}
	}
	return ns, d.lit(']')
}

func (d *frameDecoder) node(n *faultsim.WireNode) bool {
	if ok, empty := d.object(); !ok || empty {
		return ok
	}
	var seen uint8
	for {
		k, ok := d.key()
		if !ok {
			return false
		}
		var bit uint8
		switch string(k) {
		case "name":
			bit = 1 << 0
			n.Name, ok = d.name()
		case "criticality":
			bit = 1 << 1
			n.Criticality, ok = d.float()
		case "hw":
			bit = 1 << 2
			n.HW, ok = d.name()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.next(); !more {
			return ok
		}
	}
}

func (d *frameDecoder) edges() ([]faultsim.WireEdge, bool) {
	if !d.lit('[') {
		return nil, false
	}
	n, ok := d.countObjects()
	if !ok {
		return nil, false
	}
	es := make([]faultsim.WireEdge, n)
	for i := range es {
		if i > 0 && !d.lit(',') {
			return nil, false
		}
		if !d.edge(&es[i]) {
			return nil, false
		}
	}
	return es, d.lit(']')
}

func (d *frameDecoder) edge(e *faultsim.WireEdge) bool {
	if ok, empty := d.object(); !ok || empty {
		return ok
	}
	var seen uint8
	for {
		k, ok := d.key()
		if !ok {
			return false
		}
		var bit uint8
		switch string(k) {
		case "from":
			bit = 1 << 0
			e.From, ok = d.name()
		case "to":
			bit = 1 << 1
			e.To, ok = d.name()
		case "weight":
			bit = 1 << 2
			e.Weight, ok = d.float()
		case "replica":
			bit = 1 << 3
			if e.Replica = d.word("true"); !e.Replica {
				ok = d.word("false")
			}
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.next(); !more {
			return ok
		}
	}
}

// weights consumes the spec's occurrence-weight object. A repeated key
// overwrites, as under encoding/json.
func (d *frameDecoder) weights() (map[string]float64, bool) {
	ok, empty := d.object()
	if !ok {
		return nil, false
	}
	m := map[string]float64{}
	if empty {
		return m, true
	}
	for {
		k, ok := d.rawString()
		if !ok || !d.lit(':') {
			return nil, false
		}
		v, ok := d.float()
		if !ok {
			return nil, false
		}
		m[string(k)] = v
		if more, ok := d.next(); !more {
			return m, ok
		}
	}
}
