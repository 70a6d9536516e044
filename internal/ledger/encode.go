package ledger

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The ledger's JSON is appended by hand, without reflection. Every line
// equals what encoding/json's Encoder writes for the same Header or
// Record, byte for byte: the goldens, ledger-diff and every stored
// fingerprint depend on it, and FuzzLedgerEncodeMatchesJSON holds the two
// together.

const hexDigits = "0123456789abcdef"

// jsonSafe[b] reports whether the ASCII byte b is written as itself: not
// a control byte, quote, backslash or one of the HTML-escaped <, >, &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// AppendJSONString appends s as a JSON string the way encoding/json
// writes it with HTML escaping on (its default): `"` and `\` escaped,
// \b \f \n \r \t as short escapes, other control bytes and <, >, & as
// \u00XX, invalid UTF-8 as \ufffd, and U+2028/U+2029 as \u2028/\u2029.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONFloat appends f the way encoding/json writes a float64: the
// shortest 'f' form, or 'e' when |f| < 1e-6 or |f| ≥ 1e21, with a
// two-digit negative exponent cut to one (1e-07 → 1e-7). JSON has no
// NaN or infinity; those are appended as the fixed tokens NaN, +Inf and
// -Inf, which no finite value produces. Callers that must emit valid
// JSON check for them first (see AppendJSONFinite).
func AppendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendJSONFinite appends f as JSON, or fails the way encoding/json does on
// a NaN or infinity.
func AppendJSONFinite(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	return AppendJSONFloat(dst, f), nil
}

// appendKey appends the separator after the previous field, the quoted
// key and the colon. Keys are plain ASCII and need no escaping.
func appendKey(dst []byte, key string) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// appendStringField appends "key":"s" unless s is empty (omitempty).
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return AppendJSONString(appendKey(dst, key), s)
}

// appendHeader appends h's JSON line, newline included.
func appendHeader(dst []byte, h *Header) []byte {
	dst = strconv.AppendInt(append(dst, `{"schema":`...), int64(h.Schema), 10)
	dst = appendStringField(dst, "tool", h.Tool)
	dst = appendStringField(dst, "system", h.System)
	dst = appendStringField(dst, "strategy", h.Strategy)
	dst = appendStringField(dst, "approach", h.Approach)
	if h.HWNodes != 0 {
		dst = strconv.AppendInt(appendKey(dst, "hw_nodes"), int64(h.HWNodes), 10)
	}
	dst = appendStringField(dst, "fingerprint", h.Fingerprint)
	return append(dst, '}', '\n')
}

// appendRecord appends r's JSON line, newline included, in the field
// order and with the omitempty rules of Record's struct tags. keys is
// scratch for sorting Values' keys; the grown scratch is returned with
// the line. On a NaN or infinite float it returns the error
// encoding/json would, and the bytes appended so far are to be dropped.
func appendRecord(dst []byte, r *Record, keys []string) ([]byte, []string, error) {
	var err error
	dst = strconv.AppendInt(append(dst, `{"seq":`...), int64(r.Seq), 10)
	dst = AppendJSONString(appendKey(dst, "kind"), r.Kind)
	dst = appendStringField(dst, "stage", r.Stage)
	dst = appendStringField(dst, "rule", r.Rule)
	dst = appendStringField(dst, "a", r.A)
	dst = appendStringField(dst, "b", r.B)
	if r.Score != 0 {
		if dst, err = AppendJSONFinite(appendKey(dst, "score"), r.Score); err != nil {
			return dst, keys, err
		}
	}
	dst = appendStringField(dst, "result", r.Result)
	dst = appendStringField(dst, "node", r.Node)
	if r.Cost != 0 {
		if dst, err = AppendJSONFinite(appendKey(dst, "cost"), r.Cost); err != nil {
			return dst, keys, err
		}
	}
	if len(r.Alternatives) > 0 {
		dst = append(appendKey(dst, "alternatives"), '[')
		for i, a := range r.Alternatives {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(append(dst, `{"node":`...), a.Node)
			if dst, err = AppendJSONFinite(append(dst, `,"cost":`...), a.Cost); err != nil {
				return dst, keys, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(r.Members) > 0 {
		dst = append(appendKey(dst, "members"), '[')
		for i, m := range r.Members {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, m)
		}
		dst = append(dst, ']')
	}
	if r.Attempt != 0 {
		dst = strconv.AppendInt(appendKey(dst, "attempt"), int64(r.Attempt), 10)
	}
	dst = appendStringField(dst, "detail", r.Detail)
	if len(r.Values) > 0 {
		if cap(keys) < len(r.Values) {
			keys = make([]string, 0, len(r.Values))
		}
		keys = keys[:0]
		for k := range r.Values {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(appendKey(dst, "values"), '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(AppendJSONString(dst, k), ':')
			if dst, err = AppendJSONFinite(dst, r.Values[k]); err != nil {
				return dst, keys, err
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}', '\n'), keys, nil
}

// sizeHint is an upper bound on h's JSON line when no string needs
// escaping.
func (h *Header) sizeHint() int {
	return 144 + len(h.Tool) + len(h.System) + len(h.Strategy) + len(h.Approach) + len(h.Fingerprint)
}

// sizeHint is an upper bound on r's JSON line when no string needs
// escaping: field names and separators of the fields present, numbers
// at their widest (20 digits for an int, 25 characters for a float),
// plus the strings.
func (r *Record) sizeHint() int {
	n := 40 + len(r.Kind) // {"seq":N,"kind":"…"}\n
	for _, s := range [...]string{r.Stage, r.Rule, r.A, r.B, r.Result, r.Node, r.Detail} {
		if s != "" {
			n += 12 + len(s) // ,"result":"…"
		}
	}
	if r.Score != 0 {
		n += 34 // ,"score":x
	}
	if r.Cost != 0 {
		n += 33 // ,"cost":x
	}
	if r.Attempt != 0 {
		n += 31 // ,"attempt":N
	}
	n += 18 // ,"alternatives":[]
	for _, a := range r.Alternatives {
		n += 46 + len(a.Node) // {"node":"…","cost":x},
	}
	n += 13 // ,"members":[]
	for _, m := range r.Members {
		n += 3 + len(m) // "…",
	}
	n += 12 // ,"values":{}
	for k := range r.Values {
		n += 29 + len(k) // "…":x,
	}
	return n
}
