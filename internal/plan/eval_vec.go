package plan

import (
	"fmt"
	"slices"

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
//
// FilterVec does not evaluate a WHERE as one boolean vector. It narrows
// one selection of batch positions, conjunct by conjunct. A conjunct
// that compares a typed column with a literal or bound parameter of the
// same kind, or tests a column for NULL, is a filter kernel: one loop
// over the column's payload and null mask at the selected positions,
// writing the survivors in place. Every other conjunct runs through
// EvalVec over the current selection. A comparison with a constant side
// inside EvalVec runs the same kernel, so no constant is broadcast into
// a vector. FuzzFilterVec checks FilterVec against row-by-row EvalBool.

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
		switch x.Op {
		case sql.OpAnd, sql.OpOr:
			return evalLogicVec(x, b, sel, ctx)
		case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return evalCompareVec(x, b, sel, ctx)
		}
		l, err := EvalVec(x.L, b, sel, ctx)
		if err != nil {
			return nil, err
		}
		r, err := EvalVec(x.R, b, sel, ctx)
		if err != nil {
			return nil, err
		}
		return evalArithVec(x.Op, l, r, n)
	case *Not:
		v, err := EvalVec(x.E, b, sel, ctx)
		if err != nil {
			return nil, err
		}
		bools, nulls, err := boolPayload(v, "NOT requires BOOL")
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		for i, t := range bools {
			out[i] = !t
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

// boolPayload reads a vector an operator requires to be BOOL as a truth
// payload and a null mask (nil when nothing is NULL). A typed BOOL vector
// lends its own slices; any other vector is read value by value, and a
// non-NULL value of another kind is the error "plan: <what>, got <kind>".
func boolPayload(v *types.Vector, what string) (bools, nulls []bool, err error) {
	if v.Typed(types.KindBool) {
		return v.Bools(), v.Nulls(), nil
	}
	n := v.Len()
	bools = make([]bool, n)
	for i := 0; i < n; i++ {
		ev := v.Value(i)
		switch {
		case ev.IsNull():
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
		case ev.Kind() != types.KindBool:
			return nil, nil, fmt.Errorf("plan: %s, got %s", what, ev.Kind())
		default:
			bools[i] = ev.Bool()
		}
	}
	return bools, nulls, nil
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
	lb, ln, err := boolPayload(l, x.Op.String()+" requires BOOL")
	if err != nil {
		return nil, err
	}
	isAnd := x.Op == sql.OpAnd
	out := make([]bool, n)
	var nulls []bool
	// A row is undecided when its left side is NULL, or TRUE under AND,
	// or FALSE under OR; a decided row's result is its left side. The
	// undecided rows are counted first, so that their lists are
	// allocated once.
	undecided := 0
	for i := 0; i < n; i++ {
		if ln != nil && ln[i] || lb[i] == isAnd {
			undecided++
		} else {
			out[i] = lb[i]
		}
	}
	if undecided == 0 {
		return types.NewBoolVector(out, nil), nil
	}
	rightSel := make([]int, 0, undecided)
	rightPos := make([]int, 0, undecided)
	for i := 0; i < n && len(rightPos) < undecided; i++ {
		if ln != nil && ln[i] || lb[i] == isAnd {
			rightSel = append(rightSel, selAt(sel, i))
			rightPos = append(rightPos, i)
		}
	}
	r, err := EvalVec(x.R, b, rightSel, ctx)
	if err != nil {
		return nil, err
	}
	rb, rn, err := boolPayload(r, x.Op.String()+" requires BOOL")
	if err != nil {
		return nil, err
	}
	for j, i := range rightPos {
		rNull := rn != nil && rn[j]
		switch {
		case !rNull && rb[j] != isAnd:
			// The right side decides: FALSE wins an AND, TRUE an OR.
			out[i] = rb[j]
		case rNull || ln != nil && ln[i]:
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
		default:
			// Both sides TRUE under AND, both FALSE under OR.
			out[i] = isAnd
		}
	}
	return types.NewBoolVector(out, nulls), nil
}

// constOf returns the value of a literal or bound parameter; ok is false
// for any other expression, and for a parameter with no bound value
// (whose evaluation then reports the error).
func constOf(e Expr, ctx *EvalContext) (types.Value, bool) {
	switch x := e.(type) {
	case *Lit:
		return x.Val, true
	case *Param:
		if ctx == nil {
			return types.Null, false
		}
		v, err := ctx.Params.Lookup(x)
		return v, err == nil
	}
	return types.Null, false
}

// evalCompareVec evaluates a comparison. A side that is a literal or a
// bound parameter is compared as one scalar: through the filter kernel
// when the other side is a typed vector of its kind, and element-wise
// through evalComparison otherwise. Two vectors compare in typed loops
// when both are same-kind int-family (INT, TIMESTAMP, INTERVAL) or
// STRING, and element-wise otherwise.
func evalCompareVec(x *BinOp, b *types.Batch, sel []int, ctx *EvalContext) (*types.Vector, error) {
	n := selLen(b, sel)
	kl, lConst := constOf(x.L, ctx)
	kr, rConst := constOf(x.R, ctx)
	switch {
	case lConst && rConst:
		return compareScalars(x.Op, kl, kr, n)
	case rConst:
		l, err := EvalVec(x.L, b, sel, ctx)
		if err != nil {
			return nil, err
		}
		return compareConst(x.Op, l, kr, false)
	case lConst:
		r, err := EvalVec(x.R, b, sel, ctx)
		if err != nil {
			return nil, err
		}
		return compareConst(x.Op, r, kl, true)
	}
	l, err := EvalVec(x.L, b, sel, ctx)
	if err != nil {
		return nil, err
	}
	r, err := EvalVec(x.R, b, sel, ctx)
	if err != nil {
		return nil, err
	}
	out := make([]bool, n)
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[i] = true
	}
	ln, rn := l.Nulls(), r.Nulls()
	lk := l.Kind()
	m := opMask(x.Op)
	switch {
	case lk.IntFamily() && l.Typed(lk) && r.Typed(lk):
		li, ri := l.Ints(), r.Ints()
		for i := 0; i < n; i++ {
			if ln != nil && ln[i] || rn != nil && rn[i] {
				setNull(i)
				continue
			}
			out[i] = m>>order(li[i], ri[i])&1 != 0
		}
	case l.Typed(types.KindString) && r.Typed(types.KindString):
		ls, rs := l.Strs(), r.Strs()
		for i := 0; i < n; i++ {
			if ln != nil && ln[i] || rn != nil && rn[i] {
				setNull(i)
				continue
			}
			out[i] = m>>order(ls[i], rs[i])&1 != 0
		}
	default:
		for i := 0; i < n; i++ {
			v, err := evalComparison(x.Op, l.Value(i), r.Value(i))
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

// compareScalars compares two constants once, when there is a row, and
// repeats the outcome n times.
func compareScalars(op sql.BinaryOp, l, r types.Value, n int) (*types.Vector, error) {
	out, nulls := make([]bool, n), make([]bool, n)
	if n > 0 {
		v, err := evalComparison(op, l, r)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i], nulls[i] = !v.IsNull() && v.Bool(), v.IsNull()
		}
	}
	return types.NewBoolVector(out, nulls), nil
}

// compareConst compares each element of v with the constant k, which is
// the left operand when kLeft is set.
func compareConst(op sql.BinaryOp, v *types.Vector, k types.Value, kLeft bool) (*types.Vector, error) {
	n := v.Len()
	out := make([]bool, n)
	if kernelKind(k.Kind()) && v.Typed(k.Kind()) {
		if kLeft {
			op = mirror[op]
		}
		var nulls []bool
		if v.Nulls() != nil {
			nulls = make([]bool, n)
		}
		kern := filterKernel{op: op, k: k}
		for _, p := range kern.narrow(v, nil, n, make([]int, 0, n), nulls) {
			out[p] = nulls == nil || !nulls[p]
		}
		return types.NewBoolVector(out, nulls), nil
	}
	var nulls []bool
	for i := 0; i < n; i++ {
		l, r := v.Value(i), k
		if kLeft {
			l, r = r, l
		}
		c, err := evalComparison(op, l, r)
		if err != nil {
			return nil, err
		}
		if c.IsNull() {
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
			continue
		}
		out[i] = c.Bool()
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

// opMask encodes a comparison as the set of orders (see order) for which
// it holds: bit 0 less, bit 1 equal, bit 2 greater.
func opMask(op sql.BinaryOp) uint {
	switch op {
	case sql.OpEq:
		return 0b010
	case sql.OpNe:
		return 0b101
	case sql.OpLt:
		return 0b001
	case sql.OpLe:
		return 0b011
	case sql.OpGt:
		return 0b100
	default:
		return 0b110
	}
}

// order compares two payloads as types.Compare does, returning 0 when a
// sorts first, 1 when they are equal and 2 when a sorts last. A NaN
// equals a NaN and sorts after every number.
func order[T int64 | float64 | string](a, b T) uint {
	switch {
	case a < b:
		return 0
	case a > b:
		return 2
	case a == b:
		return 1
	case a != a && b != b:
		return 1
	case a != a:
		return 2
	default:
		return 0
	}
}

// A filterKernel is a conjunct FilterVec runs as one loop over a column:
// `col op k`, with op a comparison, k a constant of a kind with a typed
// payload and the column on the left, or `col IS [NOT] NULL`. A comparison applies only when
// the column's vector is typed of k's kind; it then cannot fail, and
// neither can a NULL test.
type filterKernel struct {
	col    int
	isNull bool // IS NULL; IS NOT NULL when negate is set
	negate bool
	op     sql.BinaryOp
	k      types.Value
}

// kernelOf matches a conjunct of a filter over rows of the given width
// against the kernel shapes.
func kernelOf(e Expr, width int, ctx *EvalContext) (filterKernel, bool) {
	switch x := e.(type) {
	case *IsNull:
		if c, ok := x.E.(*ColIdx); ok && c.Idx >= 0 && c.Idx < width {
			return filterKernel{col: c.Idx, isNull: true, negate: x.Negate}, true
		}
	case *BinOp:
		op := x.Op
		switch op {
		case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		default:
			return filterKernel{}, false
		}
		col, ok := x.L.(*ColIdx)
		other := x.R
		if !ok {
			if col, ok = x.R.(*ColIdx); !ok {
				return filterKernel{}, false
			}
			other, op = x.L, mirror[op]
		}
		if k, ok := constOf(other, ctx); ok && kernelKind(k.Kind()) && col.Idx >= 0 && col.Idx < width {
			return filterKernel{col: col.Idx, op: op, k: k}, true
		}
	}
	return filterKernel{}, false
}

// kernelKind reports whether a constant of kind k can be compared by a
// kernel: the kinds a vector holds in a typed payload.
func kernelKind(k types.Kind) bool {
	switch k {
	case types.KindInt, types.KindTimestamp, types.KindInterval, types.KindFloat, types.KindString, types.KindBool:
		return true
	}
	return false
}

// applies reports whether the kernel can run over v.
func (f *filterKernel) applies(v *types.Vector) bool {
	return f.isNull || v.Typed(f.k.Kind())
}

// narrow appends to dst the positions of v, out of sel (0..n-1 when sel
// is nil), at which the kernel holds, in order. dst may share sel's
// array: a survivor is written no later than it is read. A position at
// which the comparison is NULL is marked in pending and kept, or dropped
// when pending is nil. Allocation free.
func (f *filterKernel) narrow(v *types.Vector, sel []int, n int, dst []int, pending []bool) []int {
	if sel != nil {
		n = len(sel)
	}
	if f.isNull {
		for i := 0; i < n; i++ {
			p := selAt(sel, i)
			if v.IsNull(p) != f.negate {
				dst = append(dst, p)
			}
		}
		return dst
	}
	m := opMask(f.op)
	nulls := v.Nulls()
	switch f.k.Kind() {
	case types.KindFloat:
		return narrowOrdered(v.Floats(), nulls, f.k.Float(), m, sel, n, dst, pending)
	case types.KindString:
		return narrowOrdered(v.Strs(), nulls, f.k.Str(), m, sel, n, dst, pending)
	case types.KindBool:
		return narrowBools(v.Bools(), nulls, f.k.Bool(), m, sel, n, dst, pending)
	default:
		return narrowOrdered(v.Ints(), nulls, f.k.IntPayload(), m, sel, n, dst, pending)
	}
}

// narrowOrdered is filterKernel.narrow over an INT-family, FLOAT or
// STRING payload, for the orders in mask m (see order, which also gives
// a FLOAT NaN its place).
func narrowOrdered[T int64 | float64 | string](vals []T, nulls []bool, k T, m uint, sel []int, n int, dst []int, pending []bool) []int {
	for i := 0; i < n; i++ {
		p := selAt(sel, i)
		switch {
		case nulls != nil && nulls[p]:
			if pending != nil {
				pending[p] = true
				dst = append(dst, p)
			}
		case m>>order(vals[p], k)&1 != 0:
			dst = append(dst, p)
		}
	}
	return dst
}

// narrowBools is filterKernel.narrow over a BOOL payload, where FALSE
// sorts before TRUE.
func narrowBools(vals []bool, nulls []bool, k bool, m uint, sel []int, n int, dst []int, pending []bool) []int {
	for i := 0; i < n; i++ {
		p := selAt(sel, i)
		if nulls != nil && nulls[p] {
			if pending != nil {
				pending[p] = true
				dst = append(dst, p)
			}
			continue
		}
		o := uint(1)
		if a := vals[p]; a != k {
			o = 0
			if a {
				o = 2
			}
		}
		if m>>o&1 != 0 {
			dst = append(dst, p)
		}
	}
	return dst
}

// A conjunct is one conjunct of a filter, matched against the kernel
// shapes.
type conjunct struct {
	e      Expr
	kern   filterKernel
	isKern bool
}

// narrowing is FilterVec's state beside its selection.
type narrowing struct {
	b    *types.Batch
	conj []conjunct
	// pending marks, by batch position, the rows a conjunct left NULL;
	// nil until one does while a later conjunct can fail.
	pending []bool
	// lastFallible is the last conjunct that can fail, or -1; it is
	// found when a conjunct first leaves a row NULL (-2 until then).
	lastFallible int
}

// pend returns the mask in which conjunct i marks the rows it leaves
// NULL, or nil when no later conjunct can fail and such rows are
// dropped.
func (f *narrowing) pend(i int) []bool {
	if f.lastFallible == -2 {
		f.lastFallible = -1
		for j := len(f.conj) - 1; j > i; j-- {
			if c := &f.conj[j]; !c.isKern || !c.kern.applies(f.b.Col(c.kern.col)) {
				f.lastFallible = j
				break
			}
		}
	}
	if i >= f.lastFallible {
		return nil
	}
	if f.pending == nil {
		f.pending = make([]bool, f.b.Len())
	}
	return f.pending
}

// FilterVec evaluates a predicate over the selected rows of b and
// returns the surviving selection (batch row indices, in order, never
// nil), with EvalBool's three-valued semantics: NULL counts as not-true,
// and a non-BOOL result is an error.
//
// It narrows one selection conjunct by conjunct, in forEachConjunct
// order: a row a conjunct makes FALSE is dropped, exactly as AND stops
// at it row by row. A row a conjunct leaves NULL is not a result, but
// stays selected, marked pending, while a later conjunct can still fail
// on it, so that the result rows and whether an error occurs are those
// of EvalBool row by row. The caller's sel is not modified.
func FilterVec(pred Expr, b *types.Batch, sel []int, ctx *EvalContext) ([]int, error) {
	n := b.Len()
	what := "predicate must be BOOL"
	if x, ok := pred.(*BinOp); ok && x.Op == sql.OpAnd {
		what = "AND requires BOOL"
	}
	var buf [4]conjunct
	f := narrowing{b: b, conj: buf[:0], lastFallible: -2}
	width := len(b.Schema().Columns)
	forEachConjunct(pred, func(c Expr) {
		k, ok := kernelOf(c, width, ctx)
		f.conj = append(f.conj, conjunct{e: c, kern: k, isKern: ok})
	})
	if sel != nil {
		sel = slices.Clone(sel)
	}
	for i, c := range f.conj {
		if sel != nil && len(sel) == 0 {
			break
		}
		// The survivors overwrite sel in place; the first conjunct over
		// every row fills a new selection.
		dst := sel[:0]
		if sel == nil {
			dst = make([]int, 0, n)
		}
		if c.isKern {
			if v := b.Col(c.kern.col); c.kern.applies(v) {
				var pend []bool
				if v.Nulls() != nil && !c.kern.isNull {
					pend = f.pend(i)
				}
				sel = c.kern.narrow(v, sel, n, dst, pend)
				continue
			}
		}
		v, err := EvalVec(c.e, b, sel, ctx)
		if err != nil {
			return nil, err
		}
		bools, nulls, err := boolPayload(v, what)
		if err != nil {
			return nil, err
		}
		var pend []bool
		if nulls != nil {
			pend = f.pend(i)
		}
		for j, t := range bools {
			p := selAt(sel, j)
			switch {
			case nulls != nil && nulls[j]:
				if pend != nil {
					pend[p] = true
					dst = append(dst, p)
				}
			case t:
				dst = append(dst, p)
			}
		}
		sel = dst
	}
	switch {
	case sel == nil:
		// No conjunct: every row passes.
		sel = make([]int, n)
		for i := range sel {
			sel[i] = i
		}
	case f.pending != nil:
		out := sel[:0]
		for _, p := range sel {
			if !f.pending[p] {
				out = append(out, p)
			}
		}
		sel = out
	}
	return sel, nil
}
