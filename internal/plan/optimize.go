package plan

import (
	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// Optimize applies the rewrite passes: constant folding, filter merging,
// and predicate pushdown into join inputs. The passes are conservative —
// they never change result semantics — and run to a fixed point
// (bounded).
func Optimize(n Node) Node {
	for i := 0; i < 8; i++ {
		before := Explain(n)
		n = rewrite(n)
		if Explain(n) == before {
			break
		}
	}
	return n
}

func rewrite(n Node) Node {
	// Rewrite children first.
	switch x := n.(type) {
	case *Scan, *Values:
		return n
	case *Project:
		x.Input = rewrite(x.Input)
		for i, e := range x.Exprs {
			x.Exprs[i] = FoldConstants(e)
		}
		return x
	case *Filter:
		x.Input = rewrite(x.Input)
		x.Pred = FoldConstants(x.Pred)
		return pushDownFilter(x)
	case *Join:
		x.L = rewrite(x.L)
		x.R = rewrite(x.R)
		if x.Residual != nil {
			x.Residual = FoldConstants(x.Residual)
			// A residual of literal TRUE disappears.
			if isTrueLit(x.Residual) {
				x.Residual = nil
			}
		}
		return x
	case *Aggregate:
		x.Input = rewrite(x.Input)
		for i, e := range x.GroupBy {
			x.GroupBy[i] = FoldConstants(e)
		}
		return x
	case *Window:
		x.Input = rewrite(x.Input)
		return x
	case *UnionAll:
		for i, in := range x.Inputs {
			x.Inputs[i] = rewrite(in)
		}
		return x
	case *Distinct:
		x.Input = rewrite(x.Input)
		return x
	case *Flatten:
		x.Input = rewrite(x.Input)
		return x
	case *Sort:
		x.Input = rewrite(x.Input)
		return x
	case *Limit:
		x.Input = rewrite(x.Input)
		return x
	default:
		return n
	}
}

func isTrueLit(e Expr) bool {
	l, ok := e.(*Lit)
	return ok && l.Val.Kind() == types.KindBool && l.Val.Bool()
}

// pushDownFilter drops a filter of literal TRUE, merges a filter into the
// filter below it, and pushes each conjunct over a join into the join
// side it references; a filter over any other node stays where it is.
// Outer-join semantics restrict pushdown: predicates push only into the
// preserved side's input when doing so cannot change null-extension
// behaviour, so we push into the left input of a LEFT join and the right
// input of a RIGHT join only for conjuncts referencing that side, and
// never through FULL joins.
func pushDownFilter(f *Filter) Node {
	// Filter(TRUE) vanishes; Filter(FALSE) stays (executor returns empty).
	if isTrueLit(f.Pred) {
		return f.Input
	}
	switch child := f.Input.(type) {
	case *Filter:
		// Merge adjacent filters.
		return pushDownFilter(&Filter{
			Input: child.Input,
			Pred:  &BinOp{Op: sql.OpAnd, L: child.Pred, R: f.Pred},
		})
	case *Join:
		return pushIntoJoin(f, child)
	}
	return f
}

func pushIntoJoin(f *Filter, j *Join) Node {
	leftWidth := j.L.Schema().Len()
	conjuncts := splitConjuncts(f.Pred)
	var keepAbove []Expr
	var toLeft []Expr
	var toRight []Expr
	for _, c := range conjuncts {
		side := sideOf(c, leftWidth)
		switch {
		case side == sideLeft && (j.Type == sql.JoinInner || j.Type == sql.JoinLeft):
			toLeft = append(toLeft, c)
		case side == sideRight && (j.Type == sql.JoinInner || j.Type == sql.JoinRight):
			toRight = append(toRight, ShiftColumns(c, -leftWidth))
		default:
			keepAbove = append(keepAbove, c)
		}
	}
	if len(toLeft) == 0 && len(toRight) == 0 {
		return f
	}
	if len(toLeft) > 0 {
		j.L = rewrite(&Filter{Input: j.L, Pred: combineConjuncts(toLeft)})
	}
	if len(toRight) > 0 {
		j.R = rewrite(&Filter{Input: j.R, Pred: combineConjuncts(toRight)})
	}
	if len(keepAbove) == 0 {
		return j
	}
	return &Filter{Input: j, Pred: combineConjuncts(keepAbove)}
}

// FoldConstants evaluates constant sub-expressions at plan time. Foldable
// means: no column references and no volatile functions
// (CURRENT_TIMESTAMP).
func FoldConstants(e Expr) Expr {
	if e == nil {
		return nil
	}
	// Rebuild with folded children first.
	e = RemapColumns(e, func(i int) int { return i }) // structural copy
	folded := foldRec(e)
	return folded
}

func foldRec(e Expr) Expr {
	switch x := e.(type) {
	case *BinOp:
		x.L, x.R = foldRec(x.L), foldRec(x.R)
		// Boolean simplifications that help pushdown even when one side
		// is non-constant.
		if x.Op == sql.OpAnd {
			if isTrueLit(x.L) {
				return x.R
			}
			if isTrueLit(x.R) {
				return x.L
			}
		}
	case *Not:
		x.E = foldRec(x.E)
	case *Neg:
		x.E = foldRec(x.E)
	case *Func:
		for i, a := range x.Args {
			x.Args[i] = foldRec(a)
		}
	case *Cast:
		x.E = foldRec(x.E)
	case *Path:
		x.E = foldRec(x.E)
	case *Index:
		x.E, x.I = foldRec(x.E), foldRec(x.I)
	case *Case:
		x.Operand = foldIfNotNil(x.Operand)
		for i := range x.Whens {
			x.Whens[i].When = foldRec(x.Whens[i].When)
			x.Whens[i].Then = foldRec(x.Whens[i].Then)
		}
		x.Else = foldIfNotNil(x.Else)
	case *IsNull:
		x.E = foldRec(x.E)
	case *InList:
		x.E = foldRec(x.E)
		for i, l := range x.List {
			x.List[i] = foldRec(l)
		}
	}
	if !isConstant(e) {
		return e
	}
	v, err := Eval(e, nil, &EvalContext{})
	if err != nil {
		return e // leave runtime errors to execution (e.g. 1/0)
	}
	return &Lit{Val: v}
}

func foldIfNotNil(e Expr) Expr {
	if e == nil {
		return nil
	}
	return foldRec(e)
}

func isLit(e Expr) bool {
	_, ok := e.(*Lit)
	return ok
}

// isConstant reports whether e contains no column references and no
// volatile functions.
func isConstant(e Expr) bool {
	constant := true
	WalkExpr(e, func(sub Expr) {
		switch x := sub.(type) {
		case *ColIdx:
			constant = false
		case *Param:
			constant = false // value arrives at execution time
		case *Func:
			if volatileFunc(x) {
				constant = false
			}
		}
	})
	return constant
}

// VolatileExpr reports whether e calls a volatile function, one whose
// value depends on when it is evaluated (CURRENT_TIMESTAMP). A nil
// expression is not volatile.
func VolatileExpr(e Expr) bool {
	volatile := false
	WalkExpr(e, func(sub Expr) {
		if f, ok := sub.(*Func); ok && volatileFunc(f) {
			volatile = true
		}
	})
	return volatile
}

func volatileFunc(f *Func) bool { return f.Name == "CURRENT_TIMESTAMP" }
