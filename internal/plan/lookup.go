package plan

import (
	"math"

	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// KeyRange is the closed range [Lo, Hi] of keys of the INT-family column
// Col (of kind Kind) that a filter admits. Lo > Hi admits no key.
type KeyRange struct {
	Col    int
	Kind   types.Kind
	Lo, Hi int64
}

// LeadingRange folds the leading conjuncts of pred that bound one
// INT-family column into the range of keys they admit. Such a conjunct is
// `col op bound` or `bound op col`, with op one of = < <= > >= and bound a
// literal or a bound parameter of the column's kind. The fold stops at the
// first conjunct that is anything else, or bounds another column; ok is
// false when the first conjunct is not such a bound.
//
// A row whose key lies outside the range makes one folded conjunct FALSE,
// the folded conjuncts before it cannot error on it, and AND evaluates
// nothing after a FALSE conjunct. So evaluating pred over only the rows in
// range, and the rows whose key is NULL or of another kind, gives the
// same rows and the same errors as evaluating it over every row.
func LeadingRange(pred Expr, params *Params) (_ KeyRange, ok bool) {
	r := KeyRange{Col: -1, Lo: math.MinInt64, Hi: math.MaxInt64}
	for _, c := range splitConjuncts(pred) {
		col, op, bound, ok := columnBound(c, params)
		if !ok || r.Col >= 0 && col.Idx != r.Col {
			break
		}
		r.Col, r.Kind = col.Idx, col.Kind
		r.narrow(op, bound.IntPayload())
	}
	return r, r.Col >= 0
}

// columnBound matches `col op bound` and `bound op col`, returning the
// comparison with the column on the left.
func columnBound(e Expr, params *Params) (*ColIdx, sql.BinaryOp, types.Value, bool) {
	b, ok := e.(*BinOp)
	if !ok {
		return nil, 0, types.Null, false
	}
	op := b.Op
	switch op {
	case sql.OpEq, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
	default:
		return nil, 0, types.Null, false
	}
	col, ok := b.L.(*ColIdx)
	other := b.R
	if !ok {
		if col, ok = b.R.(*ColIdx); !ok {
			return nil, 0, types.Null, false
		}
		other = b.L
		op = mirror[op]
	}
	var v types.Value
	switch x := other.(type) {
	case *Lit:
		v = x.Val
	case *Param:
		var err error
		if v, err = params.Lookup(x); err != nil {
			return nil, 0, types.Null, false
		}
	default:
		return nil, 0, types.Null, false
	}
	if !col.Kind.IntFamily() || v.Kind() != col.Kind {
		return nil, 0, types.Null, false
	}
	return col, op, v, true
}

// mirror maps `bound op col` to `col mirror[op] bound`.
var mirror = map[sql.BinaryOp]sql.BinaryOp{
	sql.OpEq: sql.OpEq, sql.OpNe: sql.OpNe, sql.OpLt: sql.OpGt, sql.OpLe: sql.OpGe, sql.OpGt: sql.OpLt, sql.OpGe: sql.OpLe,
}

// narrow intersects the range with the keys k satisfying `key op k`.
func (r *KeyRange) narrow(op sql.BinaryOp, k int64) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch op {
	case sql.OpEq:
		lo, hi = k, k
	case sql.OpLt:
		if k == math.MinInt64 {
			lo, hi = math.MaxInt64, math.MinInt64
		} else {
			hi = k - 1
		}
	case sql.OpLe:
		hi = k
	case sql.OpGt:
		if k == math.MaxInt64 {
			lo, hi = math.MaxInt64, math.MinInt64
		} else {
			lo = k + 1
		}
	case sql.OpGe:
		lo = k
	}
	r.Lo, r.Hi = max(r.Lo, lo), min(r.Hi, hi)
}
