package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"dyntables/internal/types"
)

// The wire representation splits by direction. Bind arguments travel
// client→server as tagged values (wireArg) so 64-bit integers survive
// JSON without float rounding and timestamps/intervals keep their type.
// Result rows travel server→client as plain JSON values — readable from
// any HTTP client — with timestamps as RFC 3339 strings and intervals
// as Go duration strings; the Go client decodes numbers with
// json.Number to preserve integer precision.
//
// Request bodies and the small protocol bodies go through encoding/json.
// The two result bodies, statementBody and rowsBody, do not: the server
// appends their JSON straight from types.Value into one buffer (below),
// and the Go client reads them with a scanner of its own (decode.go).
// The bytes are the ones encoding/json writes for those structs, byte
// for byte, and the decoded values are the ones encoding/json with
// UseNumber produces; FuzzWireCodec holds both codecs to that.

// wireArg is one tagged bind argument.
type wireArg struct {
	// Name is set for :name bindings, empty for positional ones.
	Name string `json:"name,omitempty"`
	// T tags the value type: null, int, float, str, bool, ts, dur, json.
	T string `json:"t"`
	// S carries int (decimal), ts (RFC 3339) and dur (Go duration)
	// payloads as text; Str carries strings verbatim.
	S string `json:"s,omitempty"`
	// F carries float payloads.
	F float64 `json:"f,omitempty"`
	// B carries bool payloads.
	B bool `json:"b,omitempty"`
	// J carries VARIANT payloads as raw JSON.
	J json.RawMessage `json:"j,omitempty"`
}

// encodeArg converts a Go bind value to its tagged wire form.
func encodeArg(v any) (wireArg, error) {
	switch x := v.(type) {
	case nil:
		return wireArg{T: "null"}, nil
	case bool:
		return wireArg{T: "bool", B: x}, nil
	case int:
		return wireArg{T: "int", S: strconv.FormatInt(int64(x), 10)}, nil
	case int8:
		return wireArg{T: "int", S: strconv.FormatInt(int64(x), 10)}, nil
	case int16:
		return wireArg{T: "int", S: strconv.FormatInt(int64(x), 10)}, nil
	case int32:
		return wireArg{T: "int", S: strconv.FormatInt(int64(x), 10)}, nil
	case int64:
		return wireArg{T: "int", S: strconv.FormatInt(x, 10)}, nil
	case uint8:
		return wireArg{T: "int", S: strconv.FormatUint(uint64(x), 10)}, nil
	case uint16:
		return wireArg{T: "int", S: strconv.FormatUint(uint64(x), 10)}, nil
	case uint32:
		return wireArg{T: "int", S: strconv.FormatUint(uint64(x), 10)}, nil
	case float32:
		return wireArg{T: "float", F: float64(x)}, nil
	case float64:
		return wireArg{T: "float", F: x}, nil
	case string:
		return wireArg{T: "str", S: x}, nil
	case time.Time:
		return wireArg{T: "ts", S: x.UTC().Format(time.RFC3339Nano)}, nil
	case time.Duration:
		return wireArg{T: "dur", S: x.String()}, nil
	case json.Number:
		if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
			return wireArg{T: "int", S: strconv.FormatInt(i, 10)}, nil
		}
		f, err := x.Float64()
		if err != nil {
			return wireArg{}, fmt.Errorf("bind arg: bad number %q", x)
		}
		return wireArg{T: "float", F: f}, nil
	case map[string]any, []any:
		raw, err := json.Marshal(x)
		if err != nil {
			return wireArg{}, fmt.Errorf("bind arg: %w", err)
		}
		return wireArg{T: "json", J: raw}, nil
	default:
		return wireArg{}, fmt.Errorf("bind arg: unsupported type %T", v)
	}
}

// decodeArg converts a tagged wire value back to the Go bind value the
// engine session accepts.
func decodeArg(a wireArg) (any, error) {
	switch a.T {
	case "null":
		return nil, nil
	case "bool":
		return a.B, nil
	case "int":
		i, err := strconv.ParseInt(a.S, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bind arg: bad int %q", a.S)
		}
		return i, nil
	case "float":
		return a.F, nil
	case "str":
		return a.S, nil
	case "ts":
		t, err := time.Parse(time.RFC3339Nano, a.S)
		if err != nil {
			return nil, fmt.Errorf("bind arg: bad timestamp %q", a.S)
		}
		return t, nil
	case "dur":
		d, err := time.ParseDuration(a.S)
		if err != nil {
			return nil, fmt.Errorf("bind arg: bad duration %q", a.S)
		}
		return d, nil
	case "json":
		var v any
		if err := json.Unmarshal(a.J, &v); err != nil {
			return nil, fmt.Errorf("bind arg: bad json: %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("bind arg: unknown tag %q", a.T)
	}
}

// decodeArgs splits tagged wire arguments into the positional slice and
// named map the Session interface takes.
func decodeArgs(args []wireArg) (pos []any, named map[string]any, err error) {
	for _, a := range args {
		v, err := decodeArg(a)
		if err != nil {
			return nil, nil, err
		}
		if a.Name != "" {
			if named == nil {
				named = make(map[string]any)
			}
			named[a.Name] = v
			continue
		}
		pos = append(pos, v)
	}
	return pos, named, nil
}

// appendResultBody appends the statementBody of one buffered result,
// {"result":{...}}, and a newline.
func appendResultBody(dst []byte, res *Result) ([]byte, error) {
	dst = append(dst, `{"result":`...)
	dst, err := appendResult(dst, res)
	return append(dst, "}\n"...), err
}

// appendScriptBody appends the statementBody of a script's results,
// {"results":[...]}, and a newline.
func appendScriptBody(dst []byte, results []*Result) ([]byte, error) {
	if len(results) == 0 {
		return append(dst, "{}\n"...), nil
	}
	dst = append(dst, `{"results":[`...)
	for i, res := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendResult(dst, res); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}\n"...), nil
}

// appendCursorBody appends the statementBody that opens a cursor,
// {"statement_id":...,"columns":[...]}, and a newline.
func appendCursorBody(dst []byte, id string, cols []string) []byte {
	dst = append(dst, '{')
	if id != "" {
		dst = append(dst, `"statement_id":`...)
		dst = appendString(dst, id)
	}
	if len(cols) > 0 {
		if id != "" {
			dst = append(dst, ',')
		}
		dst = append(dst, `"columns":`...)
		dst = appendStrings(dst, cols)
	}
	return append(dst, "}\n"...)
}

// appendResult appends one resultBody.
func appendResult(dst []byte, res *Result) ([]byte, error) {
	dst = append(dst, `{"kind":`...)
	dst = appendString(dst, res.Kind)
	if len(res.Columns) > 0 {
		dst = append(dst, `,"columns":`...)
		dst = appendStrings(dst, res.Columns)
	}
	if len(res.Rows) > 0 {
		dst = append(dst, `,"rows":[`...)
		for i, row := range res.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendRow(dst, row, res.Columns); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if res.RowsAffected != 0 {
		dst = append(dst, `,"rows_affected":`...)
		dst = strconv.AppendInt(dst, int64(res.RowsAffected), 10)
	}
	if res.Message != "" {
		dst = append(dst, `,"message":`...)
		dst = appendString(dst, res.Message)
	}
	return append(dst, '}'), nil
}

// A rowsBody (one cursor page) is written in three steps, because its rows
// come one at a time from the cursor: appendPageStart, then appendRow per
// row with a comma between rows, then appendPageEnd.

// appendPageStart opens a rowsBody.
func appendPageStart(dst []byte) []byte { return append(dst, `{"rows":[`...) }

// appendPageEnd closes a rowsBody opened by appendPageStart.
func appendPageEnd(dst []byte, after int64, done bool) []byte {
	dst = append(dst, `],"after":`...)
	dst = strconv.AppendInt(dst, after, 10)
	dst = append(dst, `,"done":`...)
	dst = strconv.AppendBool(dst, done)
	return append(dst, "}\n"...)
}

// appendRow appends one result row as a JSON array. It fails on a cell
// JSON cannot carry, a non-finite FLOAT or a VARIANT that holds one, with
// an error naming the cell's column from cols.
func appendRow(dst []byte, row []types.Value, cols []string) ([]byte, error) {
	dst = append(dst, '[')
	for j, v := range row {
		if j > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendValue(dst, v); err != nil {
			col := strconv.Itoa(j + 1)
			if j < len(cols) {
				col = cols[j]
			}
			return dst, fmt.Errorf("column %q holds a value JSON cannot encode: %v", col, err)
		}
	}
	return append(dst, ']'), nil
}

// appendValue appends one result cell as a plain JSON value: INT as a
// number, FLOAT as encoding/json formats a float64, STRING and BOOL as
// themselves, TIMESTAMP as an RFC 3339 string, INTERVAL as a Go duration
// string, and VARIANT as json.Marshal writes its payload.
func appendValue(dst []byte, v types.Value) ([]byte, error) {
	switch v.Kind() {
	case types.KindNull:
		return append(dst, "null"...), nil
	case types.KindInt:
		return strconv.AppendInt(dst, v.Int(), 10), nil
	case types.KindFloat:
		return appendFloat(dst, v.Float())
	case types.KindString:
		return appendString(dst, v.Str()), nil
	case types.KindBool:
		return strconv.AppendBool(dst, v.Bool()), nil
	case types.KindTimestamp:
		// RFC 3339 text is ASCII that needs no escaping.
		dst = append(dst, '"')
		dst = v.Time().UTC().AppendFormat(dst, time.RFC3339Nano)
		return append(dst, '"'), nil
	case types.KindInterval:
		return appendString(dst, v.Interval().String()), nil
	case types.KindVariant:
		raw, err := json.Marshal(v.Variant())
		if err != nil {
			return dst, err
		}
		return append(dst, raw...), nil
	default:
		return appendString(dst, v.String()), nil
	}
}

// appendFloat appends f as encoding/json does: the shortest decimal that
// round-trips, in exponent form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent written without its leading zero (1e-7, not
// 1e-07). NaN and the infinities have no JSON form.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
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
	return dst, nil
}

// appendStrings appends a JSON array of strings.
func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// htmlSafe[c] reports whether the ASCII byte c goes into a JSON string
// unescaped: encoding/json's HTML-safe set, which escapes '<', '>' and '&'
// besides the quote, the backslash and control bytes.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it: HTML-safe, U+2028 and U+2029 escaped, and each byte of
// invalid UTF-8 replaced by U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
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
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
