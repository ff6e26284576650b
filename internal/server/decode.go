package server

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The Go client reads the two result bodies, statementBody and rowsBody,
// with the scanner below instead of encoding/json. It produces the values
// encoding/json with UseNumber produces for those structs: cells are
// json.Number, string, bool or nil, and map[string]any or []any inside a
// VARIANT; an empty array decodes to an empty, non-nil slice. Object keys
// match field names as encoding/json matches them (exactly, else without
// regard to case; see fieldIs), and unknown keys are skipped, so a newer
// server that adds fields still works with this client. It accepts no
// input that encoding/json rejects: the syntax is checked as strictly,
// nesting is capped at encoding/json's depth, and a value of the wrong
// JSON type for its field is an error. The body is scanned as one string,
// so a number or a string without escapes is a substring of it, not a
// copy.

// maxWireDepth is encoding/json's limit on nested arrays and objects.
const maxWireDepth = 10000

// maxRowEstimate and maxRowChunk cap the rows, and the cells, that rows
// allocates room for ahead of reading them.
const (
	maxRowEstimate = 4096
	maxRowChunk    = 4096
)

// wireDecoder scans one JSON document held in s. The first error sticks:
// it moves the scanner to the end of the input, so every later read fails
// at once and every array or object loop ends.
type wireDecoder struct {
	s     string
	i     int
	depth int
	err   error
}

// decodeStatementBody decodes a statementBody from data into b.
func decodeStatementBody(data string, b *statementBody) error {
	d := &wireDecoder{s: data}
	d.open('{')
	for n := 0; d.more('}', n); n++ {
		switch key := d.key(); {
		case fieldIs(key, "statement_id"):
			d.stringField(&b.StatementID)
		case fieldIs(key, "columns"):
			b.Columns = d.stringList()
		case fieldIs(key, "result"):
			if d.null() {
				b.Result = nil
				break
			}
			if b.Result == nil {
				b.Result = new(resultBody)
			}
			d.result(b.Result)
		case fieldIs(key, "results"):
			b.Results = d.results()
		default:
			d.value()
		}
	}
	return d.end()
}

// decodeRowsBody decodes a rowsBody from data into b.
func decodeRowsBody(data string, b *rowsBody) error {
	d := &wireDecoder{s: data}
	d.open('{')
	for n := 0; d.more('}', n); n++ {
		switch key := d.key(); {
		case fieldIs(key, "rows"):
			b.Rows = d.rows()
		case fieldIs(key, "after"):
			d.intField(&b.After)
		case fieldIs(key, "done"):
			d.boolField(&b.Done)
		default:
			d.value()
		}
	}
	return d.end()
}

// fieldIs reports whether an object key selects the field name, which is
// ASCII and lower case. encoding/json matches a key to a field exactly, or
// else after folding every rune of both: ASCII to upper case, any other
// rune r to upper(lower(r)).
func fieldIs(key, name string) bool {
	if key == name {
		return true
	}
	fold := func(r rune) rune {
		if r >= utf8.RuneSelf {
			return unicode.ToUpper(unicode.ToLower(r))
		}
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	j := 0
	for _, r := range key {
		if j >= len(name) || fold(r) != fold(rune(name[j])) {
			return false
		}
		j++
	}
	return j == len(name)
}

// result decodes a resultBody object into r.
func (d *wireDecoder) result(r *resultBody) {
	d.open('{')
	for n := 0; d.more('}', n); n++ {
		switch key := d.key(); {
		case fieldIs(key, "kind"):
			d.stringField(&r.Kind)
		case fieldIs(key, "columns"):
			r.Columns = d.stringList()
		case fieldIs(key, "rows"):
			r.Rows = d.rows()
		case fieldIs(key, "rows_affected"):
			n := int64(r.RowsAffected)
			d.intField(&n)
			r.RowsAffected = int(n)
		case fieldIs(key, "message"):
			d.stringField(&r.Message)
		default:
			d.value()
		}
	}
}

// results decodes an array of resultBody objects; null is a nil slice and
// a null element a zero resultBody.
func (d *wireDecoder) results() []resultBody {
	if d.null() {
		return nil
	}
	out := []resultBody{}
	d.open('[')
	for n := 0; d.more(']', n); n++ {
		out = append(out, resultBody{})
		if !d.null() {
			d.result(&out[n])
		}
	}
	return out
}

// rows decodes an array of rows, each an array of cells; null is a nil
// slice, and so is a null row. Each row is read into a scratch slice and
// copied into a backing array shared with the rows before it. The first
// row's length in bytes estimates how many rows follow, which sizes the
// row slice and the first backing array; past the estimate both grow by
// doubling, and no estimate exceeds maxRowEstimate rows or maxRowChunk
// cells. So a page of many rows takes a few allocations, not one per row,
// and a one-row answer no more than it needs.
func (d *wireDecoder) rows() [][]any {
	if d.null() {
		return nil
	}
	rows := [][]any{}
	var row, chunk []any
	d.open('[')
	for n := 0; d.more(']', n); n++ {
		if d.null() {
			rows = append(rows, nil)
			continue
		}
		start := d.i
		row = row[:0]
		d.open('[')
		for m := 0; d.more(']', m); m++ {
			row = append(row, d.value())
		}
		if len(row) == 0 {
			rows = append(rows, []any{})
			continue
		}
		if cap(chunk)-len(chunk) < len(row) {
			want := 2 * cap(chunk)
			if chunk == nil {
				est := min((len(d.s)-d.i)/(d.i-start+1), maxRowEstimate)
				rows = slices.Grow(rows, est+1)
				want = (est + 1) * len(row)
			}
			chunk = make([]any, 0, max(min(want, maxRowChunk), len(row)))
		}
		at := len(chunk)
		chunk = append(chunk, row...)
		rows = append(rows, chunk[at:len(chunk):len(chunk)])
	}
	return rows
}

// stringList decodes an array of strings; null is a nil slice and a null
// element an empty string.
func (d *wireDecoder) stringList() []string {
	if d.null() {
		return nil
	}
	out := []string{}
	d.open('[')
	for n := 0; d.more(']', n); n++ {
		var s string
		d.stringField(&s)
		out = append(out, s)
	}
	return out
}

// stringField decodes a string into *dst; null leaves *dst as it is.
func (d *wireDecoder) stringField(dst *string) {
	if d.null() {
		return
	}
	if d.peek() != '"' {
		d.fail("expected a string")
		return
	}
	*dst = d.str()
}

// intField decodes an integer into *dst; null leaves *dst as it is. As in
// encoding/json, a number with a fraction or an exponent is an error.
func (d *wireDecoder) intField(dst *int64) {
	if d.null() {
		return
	}
	lit := d.number()
	if d.err != nil {
		return
	}
	n, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		d.fail("number " + lit + " is not an int64")
		return
	}
	*dst = n
}

// boolField decodes true or false into *dst; null leaves *dst as it is.
func (d *wireDecoder) boolField(dst *bool) {
	switch {
	case d.null():
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		d.fail("expected a bool")
	}
}

// value decodes any JSON value as encoding/json with UseNumber decodes
// it into an interface.
func (d *wireDecoder) value() any {
	switch c := d.peek(); {
	case c == '"':
		return d.str()
	case c == '-' || '0' <= c && c <= '9':
		return json.Number(d.number())
	case c == '[':
		out := []any{}
		d.open('[')
		for n := 0; d.more(']', n); n++ {
			out = append(out, d.value())
		}
		return out
	case c == '{':
		out := map[string]any{}
		d.open('{')
		for n := 0; d.more('}', n); n++ {
			key := d.key()
			out[key] = d.value()
		}
		return out
	case d.literal("true"):
		return true
	case d.literal("false"):
		return false
	case d.null():
		return nil
	default:
		d.fail("expected a value")
		return nil
	}
}

// peek returns the next byte, or 0 at the end of the input.
func (d *wireDecoder) peek() byte {
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

// literal consumes lit if it is next.
func (d *wireDecoder) literal(lit string) bool {
	if strings.HasPrefix(d.s[d.i:], lit) {
		d.i += len(lit)
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (d *wireDecoder) null() bool { return d.literal("null") }

// open consumes the opening byte of an array or object. Its members are
// read by a loop over more:
//
//	d.open('[')
//	for n := 0; d.more(']', n); n++ { ... read member n ... }
func (d *wireDecoder) open(c byte) {
	d.space()
	if d.peek() != c {
		d.fail("expected " + string(c))
		return
	}
	d.i++
	if d.depth++; d.depth > maxWireDepth {
		d.fail("exceeded max depth")
	}
}

// more reports whether the array or object being read has a member n,
// consuming the comma before it; at the closing byte, or after an error,
// it reports false.
func (d *wireDecoder) more(close byte, n int) bool {
	d.space()
	switch c := d.peek(); {
	case d.err != nil:
		return false
	case c == close:
		d.i++
		d.depth--
		return false
	case n == 0:
		return true
	case c == ',':
		d.i++
		d.space()
		return true
	default:
		d.fail("expected ',' or " + string(close))
		return false
	}
}

// key decodes an object key and the colon after it.
func (d *wireDecoder) key() string {
	if d.peek() != '"' {
		d.fail("expected an object key")
		return ""
	}
	key := d.str()
	d.space()
	if d.peek() != ':' {
		d.fail("expected ':' after an object key")
		return ""
	}
	d.i++
	d.space()
	return key
}

// end returns the first error, or checks that only whitespace follows the
// document.
func (d *wireDecoder) end() error {
	d.space()
	if d.err == nil && d.i != len(d.s) {
		d.fail("data after the top-level value")
	}
	return d.err
}

func (d *wireDecoder) space() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// fail records the first error and moves to the end of the input.
func (d *wireDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("server: response body: %s at offset %d", msg, d.i)
	}
	d.i = len(d.s)
}

// number consumes a JSON number and returns its literal.
func (d *wireDecoder) number() string {
	s, start := d.s, d.i
	digits := func(i int) int {
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i
	}
	i := start
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digits(i + 1)
	default:
		d.fail("expected a number")
		return ""
	}
	if i < len(s) && s[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			d.fail("expected a digit after the decimal point")
			return ""
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if j := digits(i); j > i {
			i = j
		} else {
			d.fail("expected a digit in the exponent")
			return ""
		}
	}
	d.i = i
	return s[start:i]
}

// str consumes a JSON string. One with no escapes and valid UTF-8 is
// returned as a substring of the input; otherwise it is unquoted as
// encoding/json unquotes: a lone or broken surrogate escape, and each byte
// of invalid UTF-8, become U+FFFD.
func (d *wireDecoder) str() string {
	s := d.s
	start := d.i + 1
	for i := start; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return s[start:i]
		case c == '\\':
			return d.unquote(start, i)
		case c < ' ':
			d.fail("control character in a string")
			return ""
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.fail("unterminated string")
	return ""
}

// unquote finishes a string that starts at start and needs rewriting from
// i on.
func (d *wireDecoder) unquote(start, i int) string {
	s := d.s
	b := make([]byte, 0, i-start+16)
	b = append(b, s[start:i]...)
	for i < len(s) {
		c := s[i]
		switch {
		case c == '"':
			d.i = i + 1
			return string(b)
		case c == '\\':
			if i+1 >= len(s) {
				d.fail("unterminated string")
				return ""
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s, i)
				if r < 0 {
					d.fail(`invalid \u escape`)
					return ""
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A valid pair takes the next escape with it.
					if r = utf16.DecodeRune(r, hex4(s, i+2)); r != utf8.RuneError {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				d.fail("invalid escape in a string")
				return ""
			}
			i += 2
		case c < ' ':
			d.fail("control character in a string")
			return ""
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.fail("unterminated string")
	return ""
}

// hex4 reads the escape \uXXXX at s[i:], or returns -1.
func hex4(s string, i int) rune {
	if i+6 > len(s) || s[i] != '\\' || s[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i+2 : i+6]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
