package plan

import (
	"math"
	"slices"
	"testing"

	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// FuzzFilterVec checks FilterVec against EvalBool row by row over the
// same selection: the same rows in the same order, and an error exactly
// when some row's EvalBool fails. A fuzzed input is a batch of rows over
// typed, mixed-kind and all-NULL columns, a selection (all rows, a subset
// in order or a subset in reverse), and a predicate: an AND/OR/NOT tree
// over kernel conjuncts (a column against a literal or parameter, either
// side, and IS [NOT] NULL) and conjuncts that can fail (1 / c > 0, a
// non-BOOL column, a mixed-kind comparison). The checked-in corpus is in
// testdata/fuzz/FuzzFilterVec; each mutant below fails it, tried alone in
// a scratch copy:
//   - mirror has no entry for <>, so `lit <> col` runs as `col >= lit`;
//   - a conjunct drops the rows it leaves NULL even when a later
//     conjunct can fail on them;
//   - a conjunct that is not a kernel is evaluated over every row of the
//     input selection, not the narrowed one;
//   - a FLOAT kernel compares with Go's operators, under which NaN is
//     neither less nor greater than a number.
func FuzzFilterVec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFilterFuzz(data)
		b := in.batch()
		ctx := &EvalContext{Params: &Params{Positional: in.params}}
		sel := slices.Clone(in.sel)

		var want []int
		var wantErr error
		rows := b.Rows()
		for i := 0; i < selLen(b, in.sel); i++ {
			p := selAt(in.sel, i)
			ok, err := EvalBool(in.pred, rows[p], ctx)
			if err != nil {
				wantErr = err
				break
			}
			if ok {
				want = append(want, p)
			}
		}
		got, err := FilterVec(in.pred, b, in.sel, ctx)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: FilterVec error %v, row by row %v", in.pred.Fingerprint(), err, wantErr)
		}
		if !slices.Equal(in.sel, sel) {
			t.Fatalf("%s: FilterVec changed its selection to %v", in.pred.Fingerprint(), in.sel)
		}
		if err != nil {
			return
		}
		if got == nil || !slices.Equal(got, want) {
			t.Fatalf("%s over %v: FilterVec = %v, row by row %v", in.pred.Fingerprint(), in.sel, got, want)
		}
	})
}

// filterDomains are the values each fuzzed column draws from: INT, FLOAT
// (with -0.0 and NaN), STRING, BOOL, TIMESTAMP and a mixed-kind column.
// A row's byte for a column picks a value modulo the domain's length.
var filterDomains = [][]types.Value{
	{types.Null, types.NewInt(-2), types.NewInt(0), types.NewInt(1), types.NewInt(5), types.NewInt(7)},
	{types.Null, types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(1.5), types.NewFloat(math.NaN()), types.NewFloat(-1), types.NewFloat(5)},
	{types.Null, types.NewString(""), types.NewString("a"), types.NewString("b"), types.NewString("ab")},
	{types.Null, types.NewBool(true), types.NewBool(false)},
	{types.Null, types.NewTimestampMicros(1), types.NewTimestampMicros(5), types.NewTimestampMicros(-3)},
	{types.Null, types.NewInt(1), types.NewFloat(1), types.NewString("a"), types.NewBool(true), types.NewTimestampMicros(1), types.NewInt(0)},
}

var filterKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool, types.KindTimestamp, types.KindVariant}

// filterFuzz is one decoded FuzzFilterVec input.
type filterFuzz struct {
	rows    []types.Row
	fromCol bool // build the batch from column vectors, not rows
	sel     []int
	pred    Expr
	params  []types.Value
}

// fuzzBytes reads a fuzz input a byte at a time, yielding 0 once it is
// exhausted.
type fuzzBytes struct {
	data []byte
}

func (r *fuzzBytes) next() int {
	if len(r.data) == 0 {
		return 0
	}
	c := r.data[0]
	r.data = r.data[1:]
	return int(c)
}

// decodeFilterFuzz decodes: a row count; a flags byte (bit 0 builds the
// batch from columns, bits 1-2 pick the selection mode, bits 3-7 blank
// columns out to all NULL); for a subset selection, a bitmask byte per 8
// rows; a byte per cell; then the predicate tree.
func decodeFilterFuzz(data []byte) *filterFuzz {
	r := &fuzzBytes{data: data}
	in := &filterFuzz{}
	n := r.next() % 17
	flags := r.next()
	in.fromCol = flags&1 != 0
	mode := flags >> 1 & 3
	var mask []int
	if mode == 1 || mode == 2 {
		for i := 0; i < n; i += 8 {
			mask = append(mask, r.next())
		}
	}
	for i := 0; i < n; i++ {
		row := make(types.Row, len(filterDomains))
		for c, dom := range filterDomains {
			if c < 5 && flags>>(3+c)&1 != 0 {
				row[c] = types.Null
				r.next()
				continue
			}
			row[c] = dom[r.next()%len(dom)]
		}
		in.rows = append(in.rows, row)
	}
	switch mode {
	case 1, 2:
		in.sel = []int{}
		for i := 0; i < n; i++ {
			if mask[i/8]>>(i%8)&1 != 0 {
				in.sel = append(in.sel, i)
			}
		}
		if mode == 2 {
			slices.Reverse(in.sel)
		}
	}
	in.pred = in.decodePred(r, 0)
	return in
}

func (in *filterFuzz) batch() *types.Batch {
	cols := make([]types.Column, len(filterKinds))
	for c, k := range filterKinds {
		cols[c] = types.Column{Name: string(rune('a' + c)), Kind: k}
	}
	schema := types.Schema{Columns: cols}
	ids := make([]string, len(in.rows))
	for i := range ids {
		ids[i] = string(rune('A' + i))
	}
	if !in.fromCol {
		return types.NewBatch(schema, ids, in.rows)
	}
	vecs := make([]*types.Vector, len(cols))
	for c := range vecs {
		vals := make([]types.Value, len(in.rows))
		for i, row := range in.rows {
			vals[i] = row[c]
		}
		vecs[c] = types.VectorFromValues(vals)
	}
	return types.NewBatchFromCols(schema, ids, vecs)
}

var fuzzCmpOps = []sql.BinaryOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}

// decodePred decodes a predicate tree node: TRUE once the input is
// exhausted.
func (in *filterFuzz) decodePred(r *fuzzBytes, depth int) Expr {
	if len(r.data) == 0 {
		return &Lit{Val: types.NewBool(true)}
	}
	op := r.next()
	if depth >= 4 {
		op %= 4 // leaves only
	}
	switch op % 9 {
	case 0, 1, 2:
		return in.decodeCompare(r)
	case 3:
		return &IsNull{E: in.col(r.next()), Negate: r.next()&1 != 0}
	case 4:
		return &BinOp{Op: sql.OpAnd, L: in.decodePred(r, depth+1), R: in.decodePred(r, depth+1)}
	case 5:
		return &BinOp{Op: sql.OpOr, L: in.decodePred(r, depth+1), R: in.decodePred(r, depth+1)}
	case 6:
		return in.decodeFallible(r)
	case 7:
		return &Not{E: in.decodePred(r, depth+1)}
	default:
		return &Lit{Val: types.NewBool(true)}
	}
}

func (in *filterFuzz) col(c int) *ColIdx {
	c %= len(filterKinds)
	return &ColIdx{Idx: c, Kind: filterKinds[c]}
}

// decodeCompare decodes `col op k` or `k op col`: k is drawn from some
// column's domain (usually the column's own), as a literal or as a
// bound parameter.
func (in *filterFuzz) decodeCompare(r *fuzzBytes) Expr {
	col := in.col(r.next())
	op := fuzzCmpOps[r.next()%len(fuzzCmpOps)]
	shape := r.next()
	dom := filterDomains[col.Idx]
	if shape&4 != 0 {
		dom = filterDomains[r.next()%len(filterDomains)]
	}
	k := dom[r.next()%len(dom)]
	var kx Expr = &Lit{Val: k}
	if shape&2 != 0 {
		in.params = append(in.params, k)
		kx = &Param{Ordinal: len(in.params)}
	}
	if shape&1 != 0 {
		return &BinOp{Op: op, L: kx, R: col}
	}
	return &BinOp{Op: op, L: col, R: kx}
}

// decodeFallible decodes a conjunct that can fail on some rows.
func (in *filterFuzz) decodeFallible(r *fuzzBytes) Expr {
	switch r.next() % 4 {
	case 0: // 1 / c > 0: division by zero where the INT column is 0
		div := &BinOp{Op: sql.OpDiv, L: &Lit{Val: types.NewInt(1)}, R: in.col(0)}
		return &BinOp{Op: sql.OpGt, L: div, R: &Lit{Val: types.NewInt(0)}}
	case 1: // a non-BOOL operand, unless the column is BOOL
		return in.col(r.next())
	case 2: // the mixed column against a constant of some kind
		return &BinOp{Op: fuzzCmpOps[r.next()%len(fuzzCmpOps)], L: in.col(5), R: &Lit{Val: filterDomains[5][r.next()%len(filterDomains[5])]}}
	default: // two columns of different kinds
		return &BinOp{Op: sql.OpLt, L: in.col(r.next()), R: in.col(r.next())}
	}
}

// TestFilterVecKernelsDoNotAllocatePerRow holds the kernels to a fixed
// number of allocations, whatever the batch's length: one selection for
// the first conjunct, and nothing per row after it.
func TestFilterVecKernelsDoNotAllocatePerRow(t *testing.T) {
	pred := &BinOp{Op: sql.OpAnd,
		L: &BinOp{Op: sql.OpGe, L: &ColIdx{Idx: 0, Kind: types.KindInt}, R: &Param{Ordinal: 1}},
		R: &BinOp{Op: sql.OpLt, L: &ColIdx{Idx: 0, Kind: types.KindInt}, R: &Param{Ordinal: 2}}}
	for _, n := range []int{100, 50_000} {
		b := idBatch(n)
		ctx := &EvalContext{Params: &Params{Positional: []types.Value{types.NewInt(int64(n / 4)), types.NewInt(int64(n / 2))}}}
		b.Col(0)
		var got []int
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if got, err = FilterVec(pred, b, nil, ctx); err != nil {
				t.Fatal(err)
			}
		})
		if len(got) != n/4 {
			t.Fatalf("n=%d: %d rows, want %d", n, len(got), n/4)
		}
		if allocs > 2 {
			t.Errorf("n=%d: FilterVec made %.0f allocations, want at most 2", n, allocs)
		}
	}
}

// idBatch is a batch of n rows (id INT, v STRING) with id = 0..n-1.
func idBatch(n int) *types.Batch {
	schema := types.Schema{Columns: []types.Column{{Name: "id", Kind: types.KindInt}, {Name: "v", Kind: types.KindString}}}
	ids := make([]string, n)
	rows := make([]types.Row, n)
	for i := range rows {
		ids[i] = string(rune(i))
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString("x")}
	}
	return types.NewBatch(schema, ids, rows)
}

// BenchmarkFilterVec times `id >= ? AND id < ?` over a 50k-row batch
// whose id column is already columnar, as a DML statement's WHERE over a
// table version; it keeps a quarter of the rows.
func BenchmarkFilterVec(b *testing.B) {
	const n = 50_000
	pred := &BinOp{Op: sql.OpAnd,
		L: &BinOp{Op: sql.OpGe, L: &ColIdx{Idx: 0, Kind: types.KindInt}, R: &Param{Ordinal: 1}},
		R: &BinOp{Op: sql.OpLt, L: &ColIdx{Idx: 0, Kind: types.KindInt}, R: &Param{Ordinal: 2}}}
	batch := idBatch(n)
	batch.Col(0)
	ctx := &EvalContext{Params: &Params{Positional: []types.Value{types.NewInt(n / 4), types.NewInt(n / 2)}}}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := FilterVec(pred, batch, nil, ctx); err != nil {
			b.Fatal(err)
		}
	}
}
