package types

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestValueIs24Bytes(t *testing.T) {
	if reflect.TypeOf(uintptr(0)).Size() != 8 {
		t.Skip("pointers are not 8 bytes on this platform")
	}
	if got := reflect.TypeOf(Value{}).Size(); got != 24 {
		t.Fatalf("Value is %d bytes, want 24", got)
	}
	if got := NewInt(1).ApproxBytes(); got != 24 {
		t.Errorf("ApproxBytes of an INT = %d, want the struct size 24", got)
	}
	if got := NewString("abc").ApproxBytes(); got != 24+3 {
		t.Errorf("ApproxBytes of a 3-byte STRING = %d, want 27", got)
	}
}

// layoutCase is what a value read before the collector ran, held in
// memory that shares nothing with the value.
type layoutCase struct {
	kind    Kind
	i       int64
	bits    uint64
	s       string
	b       bool
	text    string // String()
	castStr string // Cast(v, KindString).Str(), for non-NULL values
	key     []byte // EncodeKey
}

func describeValue(v Value) layoutCase {
	c := layoutCase{
		kind: v.Kind(),
		text: strings.Clone(v.String()),
		key:  v.EncodeKey(nil),
	}
	switch v.Kind() {
	case KindInt, KindTimestamp, KindInterval:
		c.i = v.IntPayload()
	case KindFloat:
		c.bits = math.Float64bits(v.Float())
	case KindString:
		c.s = strings.Clone(v.Str())
	case KindBool:
		c.b = v.Bool()
	}
	if !v.IsNull() {
		if s, err := Cast(v, KindString); err == nil {
			c.castStr = strings.Clone(s.Str())
		}
	}
	return c
}

// buildLayoutValues returns values of every kind whose strings and
// variants are built at run time, so that once it returns the values are
// the only references to their payloads.
//
//go:noinline
func buildLayoutValues(n int) ([]Value, []layoutCase) {
	big := strings.Repeat("0123456789", 1000) + strconv.Itoa(n)
	nested := map[string]any{
		"id":   float64(n),
		"tags": []any{"a", strconv.Itoa(n), map[string]any{"deep": []any{nil, true, strings.Repeat("z", n)}}},
	}
	vals := []Value{
		Null,
		NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(0), NewInt(-1),
		NewTimestampMicros(math.MinInt64), NewTimestampMicros(math.MaxInt64), NewInterval(-time.Hour),
		NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(2.5),
		NewBool(true), NewBool(false),
		NewString(""),
		NewString(strconv.Itoa(n * 7919)),
		NewString(fmt.Sprintf("row-%d-%s", n, strings.Repeat("x", 40+n))),
		NewString(big[4321:4350]),
		NewString(big[len(big)-3:]),
		NewString(big[17:17]),
		NewVariant(nil),
		NewVariant(nested),
		NewVariant([]any{nested, []any{}, nil}),
		NewVariant(strconv.Itoa(n)),
	}
	cases := make([]layoutCase, len(vals))
	for i, v := range vals {
		cases[i] = describeValue(v)
	}
	return vals, cases
}

// churn allocates and fills memory of the sizes the test's payloads had,
// so a payload the collector freed would be overwritten.
//
//go:noinline
func churn() int {
	total := 0
	for _, size := range []int{3, 8, 16, 29, 48, 64, 10004, 10240} {
		for j := 0; j < 64; j++ {
			b := bytes.Repeat([]byte{0xEE}, size)
			total += len(b)
		}
	}
	return total
}

// TestValuePayloadsSurviveGC checks every kind through its accessor,
// EncodeKey, Compare and Cast after the collector has run with the values
// as the only references to their payloads: a payload pointer the
// collector did not trace would read freed, reused memory.
func TestValuePayloadsSurviveGC(t *testing.T) {
	vals, want := buildLayoutValues(3)
	runtime.GC()
	churn()
	runtime.GC()
	churn()

	for i, v := range vals {
		w := want[i]
		name := fmt.Sprintf("%d:%s", i, w.kind)
		if v.Kind() != w.kind {
			t.Fatalf("%s: kind %s", name, v.Kind())
		}
		switch w.kind {
		case KindInt, KindTimestamp, KindInterval:
			if got := v.IntPayload(); got != w.i {
				t.Errorf("%s: payload %d, want %d", name, got, w.i)
			}
		case KindFloat:
			if got := math.Float64bits(v.Float()); got != w.bits {
				t.Errorf("%s: float bits %x, want %x", name, got, w.bits)
			}
		case KindString:
			if got := v.Str(); got != w.s {
				t.Errorf("%s: Str %q, want %q", name, got, w.s)
			}
		case KindBool:
			if got := v.Bool(); got != w.b {
				t.Errorf("%s: Bool %v, want %v", name, got, w.b)
			}
		}
		if got := v.String(); got != w.text {
			t.Errorf("%s: String %q, want %q", name, got, w.text)
		}
		if got := v.EncodeKey(nil); !bytes.Equal(got, w.key) {
			t.Errorf("%s: EncodeKey %x, want %x", name, got, w.key)
		}

		if c, err := Compare(v, v); err != nil || c != 0 {
			t.Errorf("%s: Compare with itself = %d, %v", name, c, err)
		}
		rebuilt := rebuildValue(t, w)
		if c, err := Compare(v, rebuilt); err != nil || c != 0 {
			t.Errorf("%s: Compare with a value rebuilt from its content = %d, %v", name, c, err)
		}

		same, err := Cast(v, w.kind)
		if err != nil || !bytes.Equal(same.EncodeKey(nil), w.key) {
			t.Errorf("%s: Cast to its own kind = %v, %v", name, same, err)
		}
		if w.kind != KindNull {
			s, err := Cast(v, KindString)
			if err != nil || s.Str() != w.castStr {
				t.Errorf("%s: Cast to STRING = %v, %v; want %q", name, s, err, w.castStr)
			}
		}
	}
	runtime.KeepAlive(vals)
}

// rebuildValue builds a fresh value from a case's recorded content.
func rebuildValue(t *testing.T, w layoutCase) Value {
	t.Helper()
	switch w.kind {
	case KindNull:
		return Null
	case KindInt:
		return NewInt(w.i)
	case KindTimestamp:
		return NewTimestampMicros(w.i)
	case KindInterval:
		return NewInterval(time.Duration(w.i) * time.Microsecond)
	case KindFloat:
		return NewFloat(math.Float64frombits(w.bits))
	case KindString:
		return NewString(w.s)
	case KindBool:
		return NewBool(w.b)
	case KindVariant:
		v, err := ParseVariant(w.text)
		if err != nil {
			t.Fatalf("ParseVariant(%q): %v", w.text, err)
		}
		return v
	}
	t.Fatalf("unexpected kind %s", w.kind)
	return Null
}
