// Package types implements the value and type system shared by every layer
// of the engine: NULL-aware scalar values, variant (semi-structured) values,
// rows, schemas, comparison, hashing and casting.
//
// Timestamps are stored as microseconds since the Unix epoch in UTC, which
// matches the resolution the scheduler and transaction manager need and keeps
// values comparable with integer arithmetic. Intervals are durations in
// microseconds.
package types

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTimestamp
	KindInterval
	KindVariant
)

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindTimestamp:
		return "TIMESTAMP"
	case KindInterval:
		return "INTERVAL"
	case KindVariant:
		return "VARIANT"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// IntFamily reports whether values of kind k carry an int64 payload that
// orders them: INT, TIMESTAMP (microseconds) and INTERVAL (microseconds).
func (k Kind) IntFamily() bool {
	return k == KindInt || k == KindTimestamp || k == KindInterval
}

// KindFromName parses a SQL type name into a Kind. It accepts the common
// aliases used by the dialect (INTEGER, BIGINT, DOUBLE, TEXT, VARCHAR, ...).
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "NUMBER":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "STRING", "TEXT", "VARCHAR", "CHAR":
		return KindString, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "TIMESTAMP", "DATETIME", "TIMESTAMP_NTZ":
		return KindTimestamp, nil
	case "INTERVAL":
		return KindInterval, nil
	case "VARIANT", "JSON", "OBJECT":
		return KindVariant, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a NULL-aware runtime value. The zero Value is SQL NULL.
//
// Values are small and passed by value: 24 bytes on 64-bit platforms, one
// payload word and one pointer word. INT, TIMESTAMP, INTERVAL, FLOAT (its
// IEEE-754 bits) and BOOL (0 or 1) keep their payload in n. A STRING keeps
// its data pointer in p and its length in n. A VARIANT keeps in p a pointer
// to a boxed payload, which holds the result of encoding/json unmarshalling
// (map[string]any, []any, string, float64, bool, nil) and is treated as
// immutable; a nil payload is a nil p.
//
// Compare Values with Compare, Equal or EncodeKey. The == operator does not
// compile on Values, and reflect.DeepEqual compares STRING and VARIANT
// values by the identity of their data, not by content.
type Value struct {
	_    [0]func() // makes Value incomparable with ==
	p    unsafe.Pointer
	n    uint64
	kind Kind
}

// Null is the SQL NULL value.
var Null = Value{}

// intValue returns a value of an INT-family kind with payload i.
func intValue(k Kind, i int64) Value { return Value{kind: k, n: uint64(i)} }

// NewInt returns an INT value.
func NewInt(i int64) Value { return intValue(KindInt, i) }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// NewString returns a STRING value. It shares s's bytes; strings are
// immutable, so the value needs no copy. An empty string keeps a nil p, so
// every "" is one value and no p points at the end of another string.
func NewString(s string) Value {
	if len(s) == 0 {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// NewBool returns a BOOL value.
func NewBool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// NewTimestamp returns a TIMESTAMP value. The time is converted to UTC and
// truncated to microsecond precision.
func NewTimestamp(t time.Time) Value {
	return intValue(KindTimestamp, t.UTC().UnixMicro())
}

// NewTimestampMicros returns a TIMESTAMP value from microseconds since the
// Unix epoch.
func NewTimestampMicros(us int64) Value { return intValue(KindTimestamp, us) }

// NewInterval returns an INTERVAL value from a duration.
func NewInterval(d time.Duration) Value {
	return intValue(KindInterval, d.Microseconds())
}

// NewVariant returns a VARIANT value wrapping a JSON-shaped Go value.
func NewVariant(v any) Value {
	if v == nil {
		return Value{kind: KindVariant}
	}
	box := new(any)
	*box = v
	return Value{kind: KindVariant, p: unsafe.Pointer(box)}
}

// The payload accessors below read the fields without checking the kind;
// callers have checked it.

// i returns the int64 payload of an INT-family value.
func (v Value) i() int64 { return int64(v.n) }

// f returns the payload of a FLOAT value.
func (v Value) f() float64 { return math.Float64frombits(v.n) }

// s returns the payload of a STRING value.
func (v Value) s() string { return unsafe.String((*byte)(v.p), int(v.n)) }

// b returns the payload of a BOOL value.
func (v Value) b() bool { return v.n != 0 }

// variant returns the payload of a VARIANT value.
func (v Value) variant() any {
	if v.p == nil {
		return nil
	}
	return *(*any)(v.p)
}

// ParseVariant parses a JSON document into a VARIANT value.
func ParseVariant(doc string) (Value, error) {
	var v any
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		return Null, fmt.Errorf("types: invalid variant document: %w", err)
	}
	return NewVariant(v), nil
}

// Kind reports the value's kind. NULL values report KindNull.
func (v Value) Kind() Kind { return v.kind }

// ApproxBytes estimates the value's in-memory footprint: the fixed struct
// size plus any out-of-line payload (string bytes; a flat allowance for
// variants, whose trees are not walked — this is an accounting estimate,
// not a measurement).
func (v Value) ApproxBytes() int64 {
	const header = int64(unsafe.Sizeof(Value{}))
	switch v.kind {
	case KindString:
		return header + int64(len(v.s()))
	case KindVariant:
		return header + 64
	default:
		return header
	}
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the INT payload. It panics if the value is not an INT.
func (v Value) Int() int64 {
	v.mustBe(KindInt)
	return v.i()
}

// IntPayload returns the int64 payload of an INT-family value (see
// Kind.IntFamily), which orders values of one kind. It panics for every
// other kind.
func (v Value) IntPayload() int64 {
	if !v.kind.IntFamily() {
		panic(fmt.Sprintf("types: value is %s, not INT, TIMESTAMP or INTERVAL", v.kind))
	}
	return v.i()
}

// Float returns the FLOAT payload. It panics if the value is not a FLOAT.
func (v Value) Float() float64 {
	v.mustBe(KindFloat)
	return v.f()
}

// Str returns the STRING payload. It panics if the value is not a STRING.
func (v Value) Str() string {
	v.mustBe(KindString)
	return v.s()
}

// Bool returns the BOOL payload. It panics if the value is not a BOOL.
func (v Value) Bool() bool {
	v.mustBe(KindBool)
	return v.b()
}

// Time returns the TIMESTAMP payload. It panics if the value is not a
// TIMESTAMP.
func (v Value) Time() time.Time {
	v.mustBe(KindTimestamp)
	return time.UnixMicro(v.i()).UTC()
}

// Micros returns the TIMESTAMP payload in microseconds since the epoch.
func (v Value) Micros() int64 {
	v.mustBe(KindTimestamp)
	return v.i()
}

// Interval returns the INTERVAL payload. It panics if the value is not an
// INTERVAL.
func (v Value) Interval() time.Duration {
	v.mustBe(KindInterval)
	return time.Duration(v.i()) * time.Microsecond
}

// Variant returns the VARIANT payload. It panics if the value is not a
// VARIANT.
func (v Value) Variant() any {
	v.mustBe(KindVariant)
	return v.variant()
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("types: value is %s, not %s", v.kind, k))
	}
}

// Numeric reports whether the value is INT or FLOAT.
func (v Value) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsFloat returns the numeric payload widened to float64.
// It panics if the value is not numeric.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i())
	case KindFloat:
		return v.f()
	default:
		panic(fmt.Sprintf("types: value is %s, not numeric", v.kind))
	}
}

// String renders the value for display and for stable encodings.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.s()
	case KindBool:
		if v.b() {
			return "true"
		}
		return "false"
	case KindTimestamp:
		return v.Time().Format("2006-01-02 15:04:05.000000")
	case KindInterval:
		return v.Interval().String()
	case KindVariant:
		raw, err := json.Marshal(v.variant())
		if err != nil {
			return fmt.Sprintf("<variant:%v>", v.variant())
		}
		return string(raw)
	default:
		return fmt.Sprintf("<unknown:%d>", v.kind)
	}
}

// Compare orders two values. NULLs sort first and compare equal to each
// other. INT and FLOAT compare numerically across kinds. Comparing any other
// pair of distinct kinds is an error.
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0, nil
		case a.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.Numeric() && b.Numeric() {
		if a.kind == KindInt && b.kind == KindInt {
			return cmpOrdered(a.i(), b.i()), nil
		}
		return cmpFloat(a.AsFloat(), b.AsFloat()), nil
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("types: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s(), b.s()), nil
	case KindBool:
		return cmpBool(a.b(), b.b()), nil
	case KindTimestamp, KindInterval:
		return cmpOrdered(a.i(), b.i()), nil
	case KindVariant:
		return strings.Compare(a.String(), b.String()), nil
	default:
		return 0, fmt.Errorf("types: cannot compare %s values", a.kind)
	}
}

func cmpOrdered(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaNs sort after everything so ordering is total.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return 1
	default:
		return -1
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// Equal reports deep equality with NULL == NULL, matching the semantics
// used for grouping and change-set comparison (not SQL ternary equality).
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// EncodeKey appends a self-delimiting encoding of v to dst. Encodings are
// injective per kind and used to build group-by and join keys.
func (v Value) EncodeKey(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt, KindTimestamp, KindInterval:
		dst = appendInt64(dst, v.i())
	case KindFloat:
		dst = appendInt64(dst, int64(math.Float64bits(v.f())))
	case KindString:
		dst = appendInt64(dst, int64(len(v.s())))
		dst = append(dst, v.s()...)
	case KindBool:
		if v.b() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindVariant:
		s := v.String()
		dst = appendInt64(dst, int64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// KeyEqual reports whether a and b have the same EncodeKey encoding,
// without encoding them. Unlike Equal, INT 1 and FLOAT 1.0 differ, and so
// do FLOATs with different bits (0.0 and -0.0); NULL equals NULL.
func KeyEqual(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNull:
		return true
	case KindString:
		return a.s() == b.s()
	case KindBool:
		return a.b() == b.b()
	case KindVariant:
		return a.String() == b.String()
	default:
		return a.n == b.n
	}
}

func appendInt64(dst []byte, i int64) []byte {
	u := uint64(i)
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// Cast converts v to the target kind following the dialect's `::` semantics.
// NULL casts to NULL of any kind.
func Cast(v Value, target Kind) (Value, error) {
	if v.kind == KindNull || v.kind == target {
		return retag(v, target), nil
	}
	switch target {
	case KindInt:
		return castInt(v)
	case KindFloat:
		return castFloat(v)
	case KindString:
		// Variant strings unwrap to their payload rather than re-marshal
		// with JSON quoting.
		if v.kind == KindVariant {
			if s, ok := v.variant().(string); ok {
				return NewString(s), nil
			}
		}
		return NewString(v.String()), nil
	case KindBool:
		return castBool(v)
	case KindTimestamp:
		return castTimestamp(v)
	case KindInterval:
		return castInterval(v)
	case KindVariant:
		return castVariant(v)
	default:
		return Null, fmt.Errorf("types: cannot cast %s to %s", v.kind, target)
	}
}

func retag(v Value, target Kind) Value {
	if v.kind == KindNull {
		return Null
	}
	return v
}

func castInt(v Value) (Value, error) {
	switch v.kind {
	case KindFloat:
		return NewInt(int64(v.f())), nil
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.s()), 10, 64)
		if err != nil {
			// Snowflake-style: numeric strings with decimals cast via float.
			f, ferr := strconv.ParseFloat(strings.TrimSpace(v.s()), 64)
			if ferr != nil {
				return Null, fmt.Errorf("types: cannot cast %q to INT", v.s())
			}
			return NewInt(int64(f)), nil
		}
		return NewInt(i), nil
	case KindBool:
		if v.b() {
			return NewInt(1), nil
		}
		return NewInt(0), nil
	case KindVariant:
		return variantScalar(v, KindInt)
	default:
		return Null, fmt.Errorf("types: cannot cast %s to INT", v.kind)
	}
}

func castFloat(v Value) (Value, error) {
	switch v.kind {
	case KindInt:
		return NewFloat(float64(v.i())), nil
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s()), 64)
		if err != nil {
			return Null, fmt.Errorf("types: cannot cast %q to FLOAT", v.s())
		}
		return NewFloat(f), nil
	case KindVariant:
		return variantScalar(v, KindFloat)
	default:
		return Null, fmt.Errorf("types: cannot cast %s to FLOAT", v.kind)
	}
}

func castBool(v Value) (Value, error) {
	switch v.kind {
	case KindInt:
		return NewBool(v.i() != 0), nil
	case KindString:
		switch strings.ToLower(strings.TrimSpace(v.s())) {
		case "true", "t", "yes", "1":
			return NewBool(true), nil
		case "false", "f", "no", "0":
			return NewBool(false), nil
		}
		return Null, fmt.Errorf("types: cannot cast %q to BOOL", v.s())
	case KindVariant:
		return variantScalar(v, KindBool)
	default:
		return Null, fmt.Errorf("types: cannot cast %s to BOOL", v.kind)
	}
}

// timestampLayouts are the accepted textual timestamp formats, most
// specific first.
var timestampLayouts = []string{
	"2006-01-02 15:04:05.000000",
	"2006-01-02 15:04:05.000",
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05Z07:00",
	"2006-01-02T15:04:05",
	"2006-01-02",
}

func castTimestamp(v Value) (Value, error) {
	switch v.kind {
	case KindString:
		s := strings.TrimSpace(v.s())
		for _, layout := range timestampLayouts {
			if t, err := time.Parse(layout, s); err == nil {
				return NewTimestamp(t), nil
			}
		}
		return Null, fmt.Errorf("types: cannot cast %q to TIMESTAMP", v.s())
	case KindInt:
		// Integer seconds since epoch, matching TO_TIMESTAMP(int).
		return NewTimestampMicros(v.i() * 1_000_000), nil
	case KindVariant:
		return variantScalar(v, KindTimestamp)
	default:
		return Null, fmt.Errorf("types: cannot cast %s to TIMESTAMP", v.kind)
	}
}

func castInterval(v Value) (Value, error) {
	switch v.kind {
	case KindString:
		d, err := ParseIntervalText(v.s())
		if err != nil {
			return Null, err
		}
		return NewInterval(d), nil
	case KindInt:
		return NewInterval(time.Duration(v.i()) * time.Second), nil
	default:
		return Null, fmt.Errorf("types: cannot cast %s to INTERVAL", v.kind)
	}
}

func castVariant(v Value) (Value, error) {
	switch v.kind {
	case KindString:
		return ParseVariant(v.s())
	case KindInt:
		return NewVariant(float64(v.i())), nil
	case KindFloat:
		return NewVariant(v.f()), nil
	case KindBool:
		return NewVariant(v.b()), nil
	default:
		return Null, fmt.Errorf("types: cannot cast %s to VARIANT", v.kind)
	}
}

// variantScalar converts a variant holding a JSON scalar to the target kind.
func variantScalar(v Value, target Kind) (Value, error) {
	switch x := v.variant().(type) {
	case nil:
		return Null, nil
	case float64:
		if target == KindInt {
			return NewInt(int64(x)), nil
		}
		if target == KindFloat {
			return NewFloat(x), nil
		}
	case string:
		return Cast(NewString(x), target)
	case bool:
		if target == KindBool {
			return NewBool(x), nil
		}
	}
	return Null, fmt.Errorf("types: cannot cast variant %s to %s", v.String(), target)
}

// VariantGet returns the sub-value at a path element of a variant, i.e. the
// `payload:field` operator. Missing members yield NULL.
func VariantGet(v Value, field string) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	if v.kind != KindVariant {
		return Null, fmt.Errorf("types: %s is not a VARIANT", v.kind)
	}
	obj, ok := v.variant().(map[string]any)
	if !ok {
		return Null, nil
	}
	sub, ok := obj[field]
	if !ok {
		return Null, nil
	}
	return NewVariant(sub), nil
}

// VariantIndex returns the array element at position idx, or NULL when out
// of range or the variant is not an array.
func VariantIndex(v Value, idx int) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	if v.kind != KindVariant {
		return Null, fmt.Errorf("types: %s is not a VARIANT", v.kind)
	}
	arr, ok := v.variant().([]any)
	if !ok || idx < 0 || idx >= len(arr) {
		return Null, nil
	}
	return NewVariant(arr[idx]), nil
}

// ParseIntervalText parses the dialect's interval literals: `'1 minute'`,
// `'10 minutes'`, `'2 hours'`, `'30 seconds'`, `'1 day'`, and Go-style
// durations such as `'90s'`.
func ParseIntervalText(s string) (time.Duration, error) {
	text := strings.TrimSpace(strings.ToLower(s))
	fields := strings.Fields(text)
	if len(fields) == 2 {
		n, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("types: invalid interval %q", s)
		}
		unit := strings.TrimSuffix(fields[1], "s")
		var base time.Duration
		switch unit {
		case "microsecond", "us":
			base = time.Microsecond
		case "millisecond", "ms":
			base = time.Millisecond
		case "second", "sec":
			base = time.Second
		case "minute", "min":
			base = time.Minute
		case "hour", "hr":
			base = time.Hour
		case "day":
			base = 24 * time.Hour
		case "week":
			base = 7 * 24 * time.Hour
		default:
			return 0, fmt.Errorf("types: unknown interval unit %q", fields[1])
		}
		return time.Duration(n * float64(base)), nil
	}
	if d, err := time.ParseDuration(text); err == nil {
		return d, nil
	}
	return 0, fmt.Errorf("types: invalid interval %q", s)
}
