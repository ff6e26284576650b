// Package plan implements the bound logical plan: scalar expressions with
// resolved column ordinals, relational operator nodes, the binder that
// turns parsed SQL into plans against the catalog, and a small optimizer.
package plan

import (
	"fmt"
	"strings"

	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// Expr is a bound scalar expression. Column references are ordinals into
// the input row of the node evaluating the expression.
type Expr interface {
	exprNode()
	// Fingerprint returns a stable, injective-enough rendering used for
	// expression matching (GROUP BY / select-list correlation) and plan
	// diffing.
	Fingerprint() string
}

// ColIdx references an input column by ordinal.
type ColIdx struct {
	Idx  int
	Name string
	Kind types.Kind
}

// Lit is a constant.
type Lit struct {
	Val types.Value
}

// Param is a bind parameter supplied at execution time: positional
// (`?`, 1-based Ordinal) or named (`:name`, upper-cased Name).
type Param struct {
	Ordinal int
	Name    string
}

// BinOp is a binary operation, reusing the parser's operator enum.
type BinOp struct {
	Op   sql.BinaryOp
	L, R Expr
}

// Not is logical negation.
type Not struct {
	E Expr
}

// Neg is arithmetic negation.
type Neg struct {
	E Expr
}

// Func is a scalar function call.
type Func struct {
	Name string // upper-cased
	Args []Expr
}

// Cast is expr::kind.
type Cast struct {
	E      Expr
	Target types.Kind
}

// Path is variant member access expr:field.
type Path struct {
	E     Expr
	Field string
}

// Index is variant array access expr[idx].
type Index struct {
	E Expr
	I Expr
}

// CaseWhen is one arm of a Case.
type CaseWhen struct {
	When Expr
	Then Expr
}

// Case is a CASE expression; Operand may be nil (searched CASE).
type Case struct {
	Operand Expr
	Whens   []CaseWhen
	Else    Expr
}

// IsNull is expr IS [NOT] NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// InList is expr [NOT] IN (...).
type InList struct {
	E      Expr
	List   []Expr
	Negate bool
}

func (*ColIdx) exprNode() {}
func (*Lit) exprNode()    {}
func (*Param) exprNode()  {}
func (*BinOp) exprNode()  {}
func (*Not) exprNode()    {}
func (*Neg) exprNode()    {}
func (*Func) exprNode()   {}
func (*Cast) exprNode()   {}
func (*Path) exprNode()   {}
func (*Index) exprNode()  {}
func (*Case) exprNode()   {}
func (*IsNull) exprNode() {}
func (*InList) exprNode() {}

// Fingerprint implementations -------------------------------------------------

// Fingerprint renders the column reference.
func (e *ColIdx) Fingerprint() string { return fmt.Sprintf("#%d", e.Idx) }

// Fingerprint renders the literal with its kind.
func (e *Lit) Fingerprint() string {
	return fmt.Sprintf("lit<%s:%s>", e.Val.Kind(), e.Val.String())
}

// Fingerprint renders the placeholder by name or ordinal.
func (e *Param) Fingerprint() string {
	if e.Name != "" {
		return "param<:" + e.Name + ">"
	}
	return fmt.Sprintf("param<?%d>", e.Ordinal)
}

// Fingerprint renders the operator tree in infix form.
func (e *BinOp) Fingerprint() string {
	return fmt.Sprintf("(%s %s %s)", e.L.Fingerprint(), e.Op, e.R.Fingerprint())
}

// Fingerprint renders the negation.
func (e *Not) Fingerprint() string { return "not(" + e.E.Fingerprint() + ")" }

// Fingerprint renders the arithmetic negation.
func (e *Neg) Fingerprint() string { return "neg(" + e.E.Fingerprint() + ")" }

// Fingerprint renders the call with its argument fingerprints.
func (e *Func) Fingerprint() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.Fingerprint()
	}
	return e.Name + "(" + strings.Join(parts, ",") + ")"
}

// Fingerprint renders the cast with its target kind.
func (e *Cast) Fingerprint() string {
	return "cast(" + e.E.Fingerprint() + "::" + e.Target.String() + ")"
}

// Fingerprint renders the variant field access.
func (e *Path) Fingerprint() string {
	return "path(" + e.E.Fingerprint() + ":" + e.Field + ")"
}

// Fingerprint renders the variant index access.
func (e *Index) Fingerprint() string {
	return "idx(" + e.E.Fingerprint() + "[" + e.I.Fingerprint() + "])"
}

// Fingerprint renders the CASE arms in order.
func (e *Case) Fingerprint() string {
	var b strings.Builder
	b.WriteString("case(")
	if e.Operand != nil {
		b.WriteString(e.Operand.Fingerprint())
	}
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " when %s then %s", w.When.Fingerprint(), w.Then.Fingerprint())
	}
	if e.Else != nil {
		b.WriteString(" else " + e.Else.Fingerprint())
	}
	b.WriteString(")")
	return b.String()
}

// Fingerprint renders the null test with its polarity.
func (e *IsNull) Fingerprint() string {
	if e.Negate {
		return "isnotnull(" + e.E.Fingerprint() + ")"
	}
	return "isnull(" + e.E.Fingerprint() + ")"
}

// Fingerprint renders the IN list with its polarity.
func (e *InList) Fingerprint() string {
	parts := make([]string, len(e.List))
	for i, a := range e.List {
		parts[i] = a.Fingerprint()
	}
	neg := ""
	if e.Negate {
		neg = "not "
	}
	return neg + "in(" + e.E.Fingerprint() + ";" + strings.Join(parts, ",") + ")"
}

// WalkExpr visits e and every sub-expression depth-first.
func WalkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *BinOp:
		WalkExpr(x.L, f)
		WalkExpr(x.R, f)
	case *Not:
		WalkExpr(x.E, f)
	case *Neg:
		WalkExpr(x.E, f)
	case *Func:
		for _, a := range x.Args {
			WalkExpr(a, f)
		}
	case *Cast:
		WalkExpr(x.E, f)
	case *Path:
		WalkExpr(x.E, f)
	case *Index:
		WalkExpr(x.E, f)
		WalkExpr(x.I, f)
	case *Case:
		WalkExpr(x.Operand, f)
		for _, w := range x.Whens {
			WalkExpr(w.When, f)
			WalkExpr(w.Then, f)
		}
		WalkExpr(x.Else, f)
	case *IsNull:
		WalkExpr(x.E, f)
	case *InList:
		WalkExpr(x.E, f)
		for _, l := range x.List {
			WalkExpr(l, f)
		}
	}
}

// ColumnsUsed returns the set of input ordinals referenced by e.
func ColumnsUsed(e Expr) map[int]bool {
	out := make(map[int]bool)
	WalkExpr(e, func(sub Expr) {
		if c, ok := sub.(*ColIdx); ok {
			out[c.Idx] = true
		}
	})
	return out
}

// MaxColumn returns the highest ordinal referenced, or -1.
func MaxColumn(e Expr) int {
	max := -1
	WalkExpr(e, func(sub Expr) {
		if c, ok := sub.(*ColIdx); ok && c.Idx > max {
			max = c.Idx
		}
	})
	return max
}

// ShiftColumns returns a copy of e with every column ordinal shifted by
// delta. Used when moving predicates across join inputs.
func ShiftColumns(e Expr, delta int) Expr {
	return RemapColumns(e, func(idx int) int { return idx + delta })
}

// RemapColumns returns a copy of e with column ordinals rewritten by f.
func RemapColumns(e Expr, f func(int) int) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColIdx:
		return &ColIdx{Idx: f(x.Idx), Name: x.Name, Kind: x.Kind}
	case *Lit:
		return x
	case *Param:
		return x
	case *BinOp:
		return &BinOp{Op: x.Op, L: RemapColumns(x.L, f), R: RemapColumns(x.R, f)}
	case *Not:
		return &Not{E: RemapColumns(x.E, f)}
	case *Neg:
		return &Neg{E: RemapColumns(x.E, f)}
	case *Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RemapColumns(a, f)
		}
		return &Func{Name: x.Name, Args: args}
	case *Cast:
		return &Cast{E: RemapColumns(x.E, f), Target: x.Target}
	case *Path:
		return &Path{E: RemapColumns(x.E, f), Field: x.Field}
	case *Index:
		return &Index{E: RemapColumns(x.E, f), I: RemapColumns(x.I, f)}
	case *Case:
		out := &Case{Operand: RemapColumns(x.Operand, f)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, CaseWhen{
				When: RemapColumns(w.When, f),
				Then: RemapColumns(w.Then, f),
			})
		}
		out.Else = RemapColumns(x.Else, f)
		return out
	case *IsNull:
		return &IsNull{E: RemapColumns(x.E, f), Negate: x.Negate}
	case *InList:
		list := make([]Expr, len(x.List))
		for i, l := range x.List {
			list[i] = RemapColumns(l, f)
		}
		return &InList{E: RemapColumns(x.E, f), List: list, Negate: x.Negate}
	default:
		panic(fmt.Sprintf("plan: RemapColumns: unknown expr %T", e))
	}
}

// scalarFuncKinds maps scalar functions to their result kinds; KindNull
// means "depends on arguments" and is resolved in InferKind.
var scalarFuncKinds = map[string]types.Kind{
	"DATE_TRUNC":        types.KindTimestamp,
	"TO_TIMESTAMP":      types.KindTimestamp,
	"CURRENT_TIMESTAMP": types.KindTimestamp,
	"UPPER":             types.KindString,
	"LOWER":             types.KindString,
	"CONCAT":            types.KindString,
	"SUBSTR":            types.KindString,
	"LENGTH":            types.KindInt,
	"FLOOR":             types.KindInt,
	"CEIL":              types.KindInt,
	"ROUND":             types.KindFloat,
	"ABS":               types.KindNull, // same as arg
	"MOD":               types.KindInt,
	"COALESCE":          types.KindNull, // first arg
	"IFF":               types.KindNull, // then-branch
	"GREATEST":          types.KindNull,
	"LEAST":             types.KindNull,
	"NULLIF":            types.KindNull,
	"HOUR":              types.KindInt,
	"MINUTE":            types.KindInt,
	"DATEDIFF":          types.KindInt,
	"DATEADD":           types.KindTimestamp,
	"SQRT":              types.KindFloat,
	"POWER":             types.KindFloat,
	"LN":                types.KindFloat,
	"EXP":               types.KindFloat,
	"SIGN":              types.KindInt,
}

// KnownScalarFunc reports whether name is a scalar function of the dialect.
func KnownScalarFunc(name string) bool {
	_, ok := scalarFuncKinds[strings.ToUpper(name)]
	return ok
}

// InferKind computes the best-effort static kind of a bound expression.
// Unknown combinations return KindVariant (the dynamic catch-all).
func InferKind(e Expr) types.Kind {
	switch x := e.(type) {
	case *ColIdx:
		return x.Kind
	case *Lit:
		return x.Val.Kind()
	case *Param:
		return types.KindVariant // value kind is unknown until execution
	case *BinOp:
		switch x.Op {
		case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe,
			sql.OpAnd, sql.OpOr:
			return types.KindBool
		case sql.OpConcat:
			return types.KindString
		default:
			lk, rk := InferKind(x.L), InferKind(x.R)
			switch {
			case lk == types.KindTimestamp && rk == types.KindTimestamp:
				return types.KindInterval
			case lk == types.KindTimestamp || rk == types.KindTimestamp:
				return types.KindTimestamp
			case lk == types.KindInterval && rk == types.KindInterval:
				return types.KindInterval
			case lk == types.KindInterval || rk == types.KindInterval:
				return types.KindInterval
			case x.Op == sql.OpDiv:
				return types.KindFloat
			case lk == types.KindFloat || rk == types.KindFloat:
				return types.KindFloat
			case lk == types.KindInt && rk == types.KindInt:
				return types.KindInt
			default:
				return types.KindVariant
			}
		}
	case *Not:
		return types.KindBool
	case *Neg:
		return InferKind(x.E)
	case *Func:
		k, ok := scalarFuncKinds[x.Name]
		if !ok {
			return types.KindVariant
		}
		if k != types.KindNull {
			return k
		}
		switch x.Name {
		case "ABS":
			if len(x.Args) == 1 {
				return InferKind(x.Args[0])
			}
		case "COALESCE", "GREATEST", "LEAST", "NULLIF":
			if len(x.Args) > 0 {
				return InferKind(x.Args[0])
			}
		case "IFF":
			if len(x.Args) == 3 {
				return InferKind(x.Args[1])
			}
		}
		return types.KindVariant
	case *Cast:
		return x.Target
	case *Path, *Index:
		return types.KindVariant
	case *Case:
		for _, w := range x.Whens {
			if k := InferKind(w.Then); k != types.KindNull {
				return k
			}
		}
		if x.Else != nil {
			return InferKind(x.Else)
		}
		return types.KindVariant
	case *IsNull:
		return types.KindBool
	case *InList:
		return types.KindBool
	default:
		return types.KindVariant
	}
}

// AggKind enumerates aggregate functions.
type AggKind uint8

// The aggregate kinds.
const (
	AggCount AggKind = iota // COUNT(*) when Arg == nil, else COUNT(x)
	AggCountIf
	AggSum
	AggMin
	AggMax
	AggAvg
	AggAnyValue
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggCountIf:
		return "COUNT_IF"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	case AggAnyValue:
		return "ANY_VALUE"
	default:
		return "?"
	}
}

// AggExpr is one aggregate computation over a group.
type AggExpr struct {
	Kind     AggKind
	Arg      Expr // nil for COUNT(*)
	Distinct bool
}

// Fingerprint returns a matching key for the aggregate.
func (a AggExpr) Fingerprint() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.Fingerprint()
	}
	d := ""
	if a.Distinct {
		d = "distinct "
	}
	return a.Kind.String() + "(" + d + arg + ")"
}

// ResultKind returns the aggregate's output kind.
func (a AggExpr) ResultKind() types.Kind {
	switch a.Kind {
	case AggCount, AggCountIf:
		return types.KindInt
	case AggAvg:
		return types.KindFloat
	case AggSum:
		if a.Arg != nil && InferKind(a.Arg) == types.KindFloat {
			return types.KindFloat
		}
		return types.KindInt
	default:
		if a.Arg != nil {
			return InferKind(a.Arg)
		}
		return types.KindVariant
	}
}

// WinKind enumerates window functions.
type WinKind uint8

// The window function kinds.
const (
	WinRowNumber WinKind = iota
	WinRank
	WinDenseRank
	WinLag
	WinLead
	WinFirstValue
	WinLastValue
	WinSum
	WinCount
	WinMin
	WinMax
	WinAvg
)

// String names the window function.
func (k WinKind) String() string {
	switch k {
	case WinRowNumber:
		return "ROW_NUMBER"
	case WinRank:
		return "RANK"
	case WinDenseRank:
		return "DENSE_RANK"
	case WinLag:
		return "LAG"
	case WinLead:
		return "LEAD"
	case WinFirstValue:
		return "FIRST_VALUE"
	case WinLastValue:
		return "LAST_VALUE"
	case WinSum:
		return "SUM"
	case WinCount:
		return "COUNT"
	case WinMin:
		return "MIN"
	case WinMax:
		return "MAX"
	case WinAvg:
		return "AVG"
	default:
		return "?"
	}
}

// WindowFunc is one window computation.
type WindowFunc struct {
	Kind   WinKind
	Arg    Expr  // nil for ROW_NUMBER/RANK/DENSE_RANK and COUNT(*)
	Offset int64 // LAG/LEAD offset (default 1)
}

// Fingerprint returns a matching key for the window function.
func (w WindowFunc) Fingerprint() string {
	arg := "*"
	if w.Arg != nil {
		arg = w.Arg.Fingerprint()
	}
	return fmt.Sprintf("%s(%s,%d)", w.Kind, arg, w.Offset)
}

// ResultKind returns the window function's output kind.
func (w WindowFunc) ResultKind() types.Kind {
	switch w.Kind {
	case WinRowNumber, WinRank, WinDenseRank, WinCount:
		return types.KindInt
	case WinAvg:
		return types.KindFloat
	default:
		if w.Arg != nil {
			return InferKind(w.Arg)
		}
		return types.KindVariant
	}
}

// OrderSpec is a bound ORDER BY element.
type OrderSpec struct {
	Expr  Expr
	Desc  bool
	Nulls sql.NullsOrder // NULLS FIRST|LAST; only a query's Sort sets it
}

// Fingerprint returns a matching key for the order item.
func (o OrderSpec) Fingerprint() string {
	d := "asc"
	if o.Desc {
		d = "desc"
	}
	switch o.Nulls {
	case sql.NullsFirst:
		d += " nulls first"
	case sql.NullsLast:
		d += " nulls last"
	}
	return o.Expr.Fingerprint() + " " + d
}
