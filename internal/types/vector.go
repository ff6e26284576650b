package types

import (
	"fmt"
	"slices"
	"sync"
)

// Vector is one typed column of a Batch: a kind tag, a typed payload
// slice for the scalar kinds, an optional null mask, and a generic
// []Value fallback for columns whose values do not share a single scalar
// kind (or contain variants). Vectors are immutable once built and safe
// to share across goroutines.
type Vector struct {
	kind Kind // payload kind; KindVariant marks the generic fallback

	// ints carries INT values, TIMESTAMP microseconds and INTERVAL
	// microseconds; exactly one payload slice is non-nil per vector.
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool

	// nulls marks NULL positions; nil means the column has no NULLs.
	nulls []bool

	// vals is the generic fallback payload (mixed kinds or variants).
	vals []Value

	length int
}

// typedVectorKind reports whether a column holding only values of kind k
// (plus NULLs) can use a typed payload slice.
func typedVectorKind(k Kind) bool {
	switch k {
	case KindInt, KindFloat, KindString, KindBool, KindTimestamp, KindInterval:
		return true
	default:
		return false
	}
}

// NewIntVector builds a typed vector over int64 payloads. kind must be
// KindInt, KindTimestamp (microseconds since epoch) or KindInterval
// (microseconds). nulls may be nil.
func NewIntVector(kind Kind, ints []int64, nulls []bool) *Vector {
	if !kind.IntFamily() {
		panic(fmt.Sprintf("types: NewIntVector kind %s", kind))
	}
	return &Vector{kind: kind, ints: ints, nulls: nulls, length: len(ints)}
}

// NewFloatVector builds a FLOAT vector. nulls may be nil.
func NewFloatVector(floats []float64, nulls []bool) *Vector {
	return &Vector{kind: KindFloat, floats: floats, nulls: nulls, length: len(floats)}
}

// NewStringVector builds a STRING vector. nulls may be nil.
func NewStringVector(strs []string, nulls []bool) *Vector {
	return &Vector{kind: KindString, strs: strs, nulls: nulls, length: len(strs)}
}

// NewBoolVector builds a BOOL vector. nulls may be nil.
func NewBoolVector(bools []bool, nulls []bool) *Vector {
	return &Vector{kind: KindBool, bools: bools, nulls: nulls, length: len(bools)}
}

// NewValueVector builds a generic (untyped) vector sharing vals.
func NewValueVector(vals []Value) *Vector {
	return &Vector{kind: KindVariant, vals: vals, length: len(vals)}
}

// NewConstVector builds a vector repeating v n times. Scalar kinds get a
// typed payload so downstream fast paths stay engaged.
func NewConstVector(v Value, n int) *Vector {
	if v.IsNull() {
		return nullVector(n)
	}
	switch v.kind {
	case KindInt, KindTimestamp, KindInterval:
		ints := make([]int64, n)
		for i := range ints {
			ints[i] = v.i()
		}
		return &Vector{kind: v.kind, ints: ints, length: n}
	case KindFloat:
		floats := make([]float64, n)
		for i := range floats {
			floats[i] = v.f()
		}
		return &Vector{kind: KindFloat, floats: floats, length: n}
	case KindString:
		strs := make([]string, n)
		for i := range strs {
			strs[i] = v.s()
		}
		return &Vector{kind: KindString, strs: strs, length: n}
	case KindBool:
		bools := make([]bool, n)
		for i := range bools {
			bools[i] = v.b()
		}
		return &Vector{kind: KindBool, bools: bools, length: n}
	default:
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = v
		}
		return NewValueVector(vals)
	}
}

// VectorFromValues builds a vector from a column of values, choosing a
// typed payload when every non-NULL value shares one scalar kind and the
// generic fallback otherwise.
func VectorFromValues(vals []Value) *Vector {
	kind := KindNull
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		if kind == KindNull {
			kind = v.kind
			if !typedVectorKind(kind) {
				return NewValueVector(vals)
			}
			continue
		}
		if v.kind != kind {
			return NewValueVector(vals)
		}
	}
	n := len(vals)
	if kind == KindNull {
		return nullVector(n)
	}
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[i] = true
	}
	out := &Vector{kind: kind, length: n}
	switch kind {
	case KindInt, KindTimestamp, KindInterval:
		out.ints = make([]int64, n)
		for i, v := range vals {
			if v.IsNull() {
				setNull(i)
				continue
			}
			out.ints[i] = v.i()
		}
	case KindFloat:
		out.floats = make([]float64, n)
		for i, v := range vals {
			if v.IsNull() {
				setNull(i)
				continue
			}
			out.floats[i] = v.f()
		}
	case KindString:
		out.strs = make([]string, n)
		for i, v := range vals {
			if v.IsNull() {
				setNull(i)
				continue
			}
			out.strs[i] = v.s()
		}
	case KindBool:
		out.bools = make([]bool, n)
		for i, v := range vals {
			if v.IsNull() {
				setNull(i)
				continue
			}
			out.bools[i] = v.b()
		}
	}
	out.nulls = nulls
	return out
}

// nullVector returns a column of n NULLs: a typed INT column whose every
// position is NULL.
func nullVector(n int) *Vector {
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = true
	}
	return &Vector{kind: KindInt, ints: make([]int64, n), nulls: nulls, length: n}
}

// cell returns column c of row, or NULL when the row is shorter.
func cell(row Row, c int) Value {
	if c < len(row) {
		return row[c]
	}
	return Null
}

// vectorFromRows builds column c of rows exactly as VectorFromValues
// builds it from the column's values, but fills the typed payload straight
// from the rows: one pass finds the column's kind and a second fills the
// payload and the null mask. Only a mixed-kind or VARIANT column, which
// takes the generic payload, copies its values out first.
func vectorFromRows(rows []Row, c int) *Vector {
	kind := KindNull
	for _, row := range rows {
		v := cell(row, c)
		if v.IsNull() {
			continue
		}
		if kind == KindNull {
			kind = v.kind
		}
		if v.kind != kind || !typedVectorKind(kind) {
			vals := make([]Value, len(rows))
			for i, row := range rows {
				vals[i] = cell(row, c)
			}
			return NewValueVector(vals)
		}
	}
	n := len(rows)
	if kind == KindNull {
		return nullVector(n)
	}
	out := &Vector{kind: kind, length: n}
	switch kind {
	case KindInt, KindTimestamp, KindInterval:
		out.ints = make([]int64, n)
	case KindFloat:
		out.floats = make([]float64, n)
	case KindString:
		out.strs = make([]string, n)
	case KindBool:
		out.bools = make([]bool, n)
	}
	for i, row := range rows {
		v := cell(row, c)
		if v.IsNull() {
			if out.nulls == nil {
				out.nulls = make([]bool, n)
			}
			out.nulls[i] = true
			continue
		}
		switch kind {
		case KindInt, KindTimestamp, KindInterval:
			out.ints[i] = v.i()
		case KindFloat:
			out.floats[i] = v.f()
		case KindString:
			out.strs[i] = v.s()
		case KindBool:
			out.bools[i] = v.b()
		}
	}
	return out
}

// Len returns the number of elements.
func (v *Vector) Len() int { return v.length }

// Kind returns the payload kind; KindVariant marks the generic fallback
// representation (which may hold values of any kind).
func (v *Vector) Kind() Kind { return v.kind }

// Typed reports whether the vector carries a typed payload of the given
// kind (fast paths require matching typed payloads on both operands).
func (v *Vector) Typed(k Kind) bool { return v.vals == nil && v.kind == k }

// IsNull reports whether element i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.vals != nil {
		return v.vals[i].IsNull()
	}
	return v.nulls != nil && v.nulls[i]
}

// Nulls returns the null mask (nil when the column has no NULLs). Valid
// only for typed vectors; callers must not mutate it.
func (v *Vector) Nulls() []bool { return v.nulls }

// Ints returns the int64 payload (INT values, TIMESTAMP or INTERVAL
// microseconds). Valid only when Typed reports true for those kinds.
func (v *Vector) Ints() []int64 { return v.ints }

// Floats returns the float64 payload.
func (v *Vector) Floats() []float64 { return v.floats }

// Strs returns the string payload.
func (v *Vector) Strs() []string { return v.strs }

// Bools returns the bool payload.
func (v *Vector) Bools() []bool { return v.bools }

// Value reconstructs element i as a Value.
func (v *Vector) Value(i int) Value {
	if v.vals != nil {
		return v.vals[i]
	}
	if v.nulls != nil && v.nulls[i] {
		return Null
	}
	switch v.kind {
	case KindInt, KindTimestamp, KindInterval:
		return intValue(v.kind, v.ints[i])
	case KindFloat:
		return NewFloat(v.floats[i])
	case KindString:
		return NewString(v.strs[i])
	case KindBool:
		return NewBool(v.bools[i])
	default:
		return Null
	}
}

// Gather returns a new vector holding the elements at sel, in order.
func (v *Vector) Gather(sel []int) *Vector {
	n := len(sel)
	if v.vals != nil {
		vals := make([]Value, n)
		for i, s := range sel {
			vals[i] = v.vals[s]
		}
		return NewValueVector(vals)
	}
	out := &Vector{kind: v.kind, length: n}
	if v.nulls != nil {
		out.nulls = make([]bool, n)
		for i, s := range sel {
			out.nulls[i] = v.nulls[s]
		}
	}
	switch {
	case v.ints != nil:
		out.ints = make([]int64, n)
		for i, s := range sel {
			out.ints[i] = v.ints[s]
		}
	case v.floats != nil:
		out.floats = make([]float64, n)
		for i, s := range sel {
			out.floats[i] = v.floats[s]
		}
	case v.strs != nil:
		out.strs = make([]string, n)
		for i, s := range sel {
			out.strs[i] = v.strs[s]
		}
	case v.bools != nil:
		out.bools = make([]bool, n)
		for i, s := range sel {
			out.bools[i] = v.bools[s]
		}
	}
	return out
}

// GatherOrNull is Gather, except that a negative position gathers NULL
// (the missing side of an outer join).
func (v *Vector) GatherOrNull(sel []int) *Vector {
	var holes []bool
	at := sel
	for i, s := range sel {
		if s >= 0 {
			continue
		}
		if holes == nil {
			holes = make([]bool, len(sel))
			at = slices.Clone(sel)
		}
		holes[i], at[i] = true, 0
	}
	switch {
	case holes == nil:
		return v.Gather(sel)
	case v.length == 0:
		return NewConstVector(Null, len(sel))
	}
	out := v.Gather(at)
	for i, hole := range holes {
		switch {
		case !hole:
		case out.vals != nil:
			out.vals[i] = Null
		default:
			if out.nulls == nil {
				out.nulls = make([]bool, len(sel))
			}
			out.nulls[i] = true
		}
	}
	return out
}

// Batch is a columnar slice of a relation: parallel row IDs, row views
// and column vectors over a fixed schema. A batch holds a dual
// representation — row views (shared []Value rows) and column vectors —
// each materialized lazily from the other on first use and cached, so a
// batch built from storage rows only pays columnarization for columns an
// expression actually touches, and a batch built by a vectorized
// projection only materializes rows when a row-at-a-time operator
// consumes it. A lazy batch (NewLazyBatch) builds each part from its
// source instead, row IDs included. Batches are immutable after
// construction and safe for concurrent use; callers must not mutate
// returned slices.
type Batch struct {
	schema Schema
	n      int
	// src, when non-nil, builds the parts of a lazy batch; ids is then
	// set under mu on first use.
	src BatchSource

	mu    sync.Mutex
	ids   []string
	rows  []Row
	cols  []*Vector
	bytes int64 // cached ApproxBytes sum; 0 = not yet computed
}

// BatchSource builds the parts of a lazy batch on first use, and the
// batch caches them: Col(c) builds column c, Rows the row views and IDs
// the row IDs, each of the batch's length. Concurrent first readers may
// each call a method; the batch keeps one result.
type BatchSource interface {
	Col(c int) *Vector
	Rows() []Row
	IDs() []string
}

// NewBatch builds a batch over existing row views. ids and rows are
// parallel and adopted without copying; rows are shared, not cloned.
func NewBatch(schema Schema, ids []string, rows []Row) *Batch {
	return &Batch{schema: schema, n: len(ids), ids: ids, rows: rows}
}

// NewBatchFromCols builds a batch from column vectors (one per schema
// column, all the same length as ids).
func NewBatchFromCols(schema Schema, ids []string, cols []*Vector) *Batch {
	return &Batch{schema: schema, n: len(ids), ids: ids, cols: cols}
}

// NewLazyBatch builds a batch of n rows whose columns, row views and row
// IDs src builds when they are first read, so a consumer that reads two
// columns pays for those two only.
func NewLazyBatch(schema Schema, n int, src BatchSource) *Batch {
	return &Batch{schema: schema, n: n, src: src, cols: make([]*Vector, len(schema.Columns))}
}

// fromSource returns the part of a lazy batch that *part caches, building
// it with build on first use. build runs outside the lock, because a
// source reads other batches; two readers that race both build it, and
// the first to store it wins.
func fromSource[T any](b *Batch, part *T, unset func(T) bool, build func() T) T {
	b.mu.Lock()
	v := *part
	b.mu.Unlock()
	if !unset(v) {
		return v
	}
	v = build()
	b.mu.Lock()
	defer b.mu.Unlock()
	if unset(*part) {
		*part = v
	}
	return *part
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Schema returns the batch's schema.
func (b *Batch) Schema() Schema { return b.schema }

// IDs returns the row IDs; callers must not mutate the slice.
func (b *Batch) IDs() []string {
	if b.src == nil {
		return b.ids
	}
	return fromSource(b, &b.ids, func(ids []string) bool { return ids == nil }, b.src.IDs)
}

// ID returns row i's row ID.
func (b *Batch) ID(i int) string { return b.IDs()[i] }

// Row returns row i as a shared row view.
func (b *Batch) Row(i int) Row { return b.Rows()[i] }

// Rows returns the batch's row views, materializing them from the column
// vectors (or the source) on first use. Callers must not mutate the slice
// or its rows.
func (b *Batch) Rows() []Row {
	if b.src != nil {
		return fromSource(b, &b.rows, func(rows []Row) bool { return rows == nil }, b.src.Rows)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rows == nil {
		n := b.n
		rows := make([]Row, n)
		width := len(b.cols)
		backing := make(Row, n*width)
		for i := 0; i < n; i++ {
			row := backing[i*width : (i+1)*width : (i+1)*width]
			for c, col := range b.cols {
				row[c] = col.Value(i)
			}
			rows[i] = row
		}
		b.rows = rows
	}
	return b.rows
}

// Col returns column c as a vector, columnarizing it from the row views
// (or building it from the source) on first use. A column of one scalar
// kind fills its typed payload straight from the rows.
func (b *Batch) Col(c int) *Vector {
	if b.src != nil {
		return fromSource(b, &b.cols[c], func(v *Vector) bool { return v == nil }, func() *Vector { return b.src.Col(c) })
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cols == nil {
		b.cols = make([]*Vector, len(b.schema.Columns))
	}
	if b.cols[c] == nil {
		b.cols[c] = vectorFromRows(b.rows, c)
	}
	return b.cols[c]
}

// ApproxBytes estimates the total in-memory footprint of the batch's
// rows, computed once and cached (scan accounting reads it per scan).
func (b *Batch) ApproxBytes() int64 {
	rows := b.Rows()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bytes == 0 {
		var total int64
		for _, r := range rows {
			total += r.ApproxBytes()
		}
		b.bytes = total
	}
	return b.bytes
}
