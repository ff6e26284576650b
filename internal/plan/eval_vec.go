package plan

import (
	"fmt"

	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// This file implements vectorized expression evaluation over columnar
// batches. EvalVec mirrors Eval exactly: typed fast paths cover the
// hot comparison, integer-arithmetic and boolean-logic loops, and every
// other expression falls back to the scalar evaluator element-wise (on
// already-evaluated operand vectors where possible, on shared row views
// otherwise), so the two paths cannot diverge semantically. The
// differential harness in internal/difftest enforces that equivalence.

// selLen returns the number of selected rows.
func selLen(b *types.Batch, sel []int) int {
	if sel == nil {
		return b.Len()
	}
	return len(sel)
}

// selAt maps a dense output position to a batch row index.
func selAt(sel []int, i int) int {
	if sel == nil {
		return i
	}
	return sel[i]
}

// EvalVec evaluates e over the rows of b selected by sel (all rows when
// sel is nil), returning a dense vector with one element per selected
// row, in selection order.
func EvalVec(e Expr, b *types.Batch, sel []int, ctx *EvalContext) (*types.Vector, error) {
	n := selLen(b, sel)
	switch x := e.(type) {
	case *ColIdx:
		if x.Idx < 0 || x.Idx >= len(b.Schema().Columns) {
			return nil, fmt.Errorf("plan: column ordinal %d out of range (batch width %d)", x.Idx, len(b.Schema().Columns))
		}
		col := b.Col(x.Idx)
		if sel == nil {
			return col, nil
		}
		return col.Gather(sel), nil
	case *Lit:
		return types.NewConstVector(x.Val, n), nil
	case *Param:
		v, err := ctx.Params.Lookup(x)
		if err != nil {
			return nil, err
		}
		return types.NewConstVector(v, n), nil
	case *BinOp:
		if x.Op == sql.OpAnd || x.Op == sql.OpOr {
			return evalLogicVec(x, b, sel, ctx)
		}
		l, err := EvalVec(x.L, b, sel, ctx)
		if err != nil {
			return nil, err
		}
		r, err := EvalVec(x.R, b, sel, ctx)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return evalCompareVec(x.Op, l, r, n)
		default:
			return evalArithVec(x.Op, l, r, n)
		}
	case *Not:
		v, err := EvalVec(x.E, b, sel, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		var nulls []bool
		for i := 0; i < n; i++ {
			ev := v.Value(i)
			if ev.IsNull() {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
				continue
			}
			if ev.Kind() != types.KindBool {
				return nil, fmt.Errorf("plan: NOT requires BOOL, got %s", ev.Kind())
			}
			out[i] = !ev.Bool()
		}
		return types.NewBoolVector(out, nulls), nil
	case *IsNull:
		v, err := EvalVec(x.E, b, sel, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = v.IsNull(i) != x.Negate
		}
		return types.NewBoolVector(out, nil), nil
	default:
		// Row-at-a-time fallback over shared row views.
		rows := b.Rows()
		vals := make([]types.Value, n)
		for i := 0; i < n; i++ {
			v, err := Eval(e, rows[selAt(sel, i)], ctx)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return types.VectorFromValues(vals), nil
	}
}

// evalLogicVec implements three-valued AND/OR with the same
// short-circuit behavior as evalLogic: the right operand is only
// evaluated for rows the left operand does not decide, so a row whose
// right side would error contributes no error when the left side
// already decided it.
func evalLogicVec(x *BinOp, b *types.Batch, sel []int, ctx *EvalContext) (*types.Vector, error) {
	n := selLen(b, sel)
	l, err := EvalVec(x.L, b, sel, ctx)
	if err != nil {
		return nil, err
	}
	isAnd := x.Op == sql.OpAnd
	out := make([]bool, n)
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[i] = true
	}
	// Rows the left operand leaves undecided need the right operand;
	// they are counted first, so that their lists are allocated once.
	undecided := 0
	lNull := make([]bool, n)
	for i := 0; i < n; i++ {
		lv := l.Value(i)
		if !lv.IsNull() {
			if lv.Kind() != types.KindBool {
				return nil, fmt.Errorf("plan: %s requires BOOL, got %s", x.Op, lv.Kind())
			}
			if isAnd && !lv.Bool() {
				continue // decided: FALSE
			}
			if !isAnd && lv.Bool() {
				out[i] = true
				continue // decided: TRUE
			}
		} else {
			lNull[i] = true
		}
		undecided++
	}
	rightSel := make([]int, 0, undecided)
	rightPos := make([]int, 0, undecided)
	for i := 0; i < n && len(rightPos) < undecided; i++ {
		if lNull[i] || l.Value(i).Bool() == isAnd {
			rightSel = append(rightSel, selAt(sel, i))
			rightPos = append(rightPos, i)
		}
	}
	if len(rightSel) > 0 {
		r, err := EvalVec(x.R, b, rightSel, ctx)
		if err != nil {
			return nil, err
		}
		for j, i := range rightPos {
			rv := r.Value(j)
			rNull := rv.IsNull()
			if !rNull && rv.Kind() != types.KindBool {
				return nil, fmt.Errorf("plan: %s requires BOOL, got %s", x.Op, rv.Kind())
			}
			if isAnd {
				switch {
				case !rNull && !rv.Bool():
					// FALSE wins over the left's TRUE or NULL.
				case lNull[i] || rNull:
					setNull(i)
				default:
					out[i] = true
				}
			} else {
				switch {
				case !rNull && rv.Bool():
					out[i] = true
				case lNull[i] || rNull:
					setNull(i)
				default:
					// Both FALSE.
				}
			}
		}
	}
	return types.NewBoolVector(out, nulls), nil
}

// cmpToBool converts a three-way comparison result to the operator's
// boolean outcome.
func cmpToBool(op sql.BinaryOp, c int) bool {
	switch op {
	case sql.OpEq:
		return c == 0
	case sql.OpNe:
		return c != 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// evalCompareVec compares two operand vectors. Typed loops cover
// same-kind int-family (INT, TIMESTAMP, INTERVAL) and STRING operands —
// the dominant predicate shapes — and everything else defers to the
// scalar evalComparison element-wise.
func evalCompareVec(op sql.BinaryOp, l, r *types.Vector, n int) (*types.Vector, error) {
	out := make([]bool, n)
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[i] = true
	}
	lk := l.Kind()
	intFamily := lk == types.KindInt || lk == types.KindTimestamp || lk == types.KindInterval
	switch {
	case intFamily && l.Typed(lk) && r.Typed(lk):
		li, ri := l.Ints(), r.Ints()
		ln, rn := l.Nulls(), r.Nulls()
		for i := 0; i < n; i++ {
			if (ln != nil && ln[i]) || (rn != nil && rn[i]) {
				setNull(i)
				continue
			}
			var c int
			switch {
			case li[i] < ri[i]:
				c = -1
			case li[i] > ri[i]:
				c = 1
			}
			out[i] = cmpToBool(op, c)
		}
	case l.Typed(types.KindString) && r.Typed(types.KindString):
		ls, rs := l.Strs(), r.Strs()
		ln, rn := l.Nulls(), r.Nulls()
		for i := 0; i < n; i++ {
			if (ln != nil && ln[i]) || (rn != nil && rn[i]) {
				setNull(i)
				continue
			}
			var c int
			switch {
			case ls[i] < rs[i]:
				c = -1
			case ls[i] > rs[i]:
				c = 1
			}
			out[i] = cmpToBool(op, c)
		}
	default:
		for i := 0; i < n; i++ {
			v, err := evalComparison(op, l.Value(i), r.Value(i))
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				setNull(i)
				continue
			}
			out[i] = v.Bool()
		}
	}
	return types.NewBoolVector(out, nulls), nil
}

// evalArithVec applies an arithmetic operator to two operand vectors.
// The typed loop covers INT op INT for +, -, * and % (matching
// evalArith's integral arithmetic, including the division-by-zero
// error); everything else defers to the scalar evaluator element-wise.
func evalArithVec(op sql.BinaryOp, l, r *types.Vector, n int) (*types.Vector, error) {
	if l.Typed(types.KindInt) && r.Typed(types.KindInt) &&
		(op == sql.OpAdd || op == sql.OpSub || op == sql.OpMul || op == sql.OpMod) {
		li, ri := l.Ints(), r.Ints()
		ln, rn := l.Nulls(), r.Nulls()
		out := make([]int64, n)
		var nulls []bool
		for i := 0; i < n; i++ {
			if (ln != nil && ln[i]) || (rn != nil && rn[i]) {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
				continue
			}
			switch op {
			case sql.OpAdd:
				out[i] = li[i] + ri[i]
			case sql.OpSub:
				out[i] = li[i] - ri[i]
			case sql.OpMul:
				out[i] = li[i] * ri[i]
			default:
				if ri[i] == 0 {
					return nil, fmt.Errorf("plan: division by zero")
				}
				out[i] = li[i] % ri[i]
			}
		}
		return types.NewIntVector(types.KindInt, out, nulls), nil
	}
	vals := make([]types.Value, n)
	for i := 0; i < n; i++ {
		v, err := applyBinOp(op, l.Value(i), r.Value(i))
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return types.VectorFromValues(vals), nil
}

// FilterVec evaluates a predicate over the selected rows of b and
// returns the surviving selection (batch row indices, in order), with
// EvalBool's three-valued semantics: NULL counts as not-true, and a
// non-BOOL result is an error.
func FilterVec(pred Expr, b *types.Batch, sel []int, ctx *EvalContext) ([]int, error) {
	v, err := EvalVec(pred, b, sel, ctx)
	if err != nil {
		return nil, err
	}
	n := selLen(b, sel)
	out := make([]int, 0, n)
	if v.Typed(types.KindBool) {
		bools, nulls := v.Bools(), v.Nulls()
		for i := 0; i < n; i++ {
			if bools[i] && (nulls == nil || !nulls[i]) {
				out = append(out, selAt(sel, i))
			}
		}
		return out, nil
	}
	for i := 0; i < n; i++ {
		ev := v.Value(i)
		if ev.IsNull() {
			continue
		}
		if ev.Kind() != types.KindBool {
			return nil, fmt.Errorf("plan: predicate must be BOOL, got %s", ev.Kind())
		}
		if ev.Bool() {
			out = append(out, selAt(sel, i))
		}
	}
	return out, nil
}
