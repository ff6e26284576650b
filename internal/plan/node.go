package plan

import (
	"fmt"
	"slices"
	"strings"

	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// Node is a logical plan operator. Schemas are computed at construction.
type Node interface {
	Schema() types.Schema
	Children() []Node
	// Describe renders the operator (without children) for EXPLAIN-style
	// output and plan-shape assertions in tests.
	Describe() string
}

// Scan reads a stored table (base table or the stored contents of a DT).
type Scan struct {
	// Name is the catalog name the query referenced (post-alias).
	Name string
	// EntryID is the catalog entry, used for dependency tracking.
	EntryID int64
	// Table is the storage handle; the executor resolves the version.
	Table *storage.Table

	schema types.Schema
}

// NewScan builds a scan node.
func NewScan(name string, entryID int64, table *storage.Table) *Scan {
	return &Scan{Name: name, EntryID: entryID, Table: table, schema: table.Schema()}
}

// Schema implements Node.
func (s *Scan) Schema() types.Schema { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Describe implements Node.
func (s *Scan) Describe() string { return "Scan(" + s.Name + ")" }

// Project computes expressions over each input row.
type Project struct {
	Input Node
	Exprs []Expr

	schema types.Schema
}

// NewProject builds a projection; names supplies the output column names.
func NewProject(input Node, exprs []Expr, names []string) *Project {
	cols := make([]types.Column, len(exprs))
	for i, e := range exprs {
		cols[i] = types.Column{Name: names[i], Kind: InferKind(e)}
	}
	return &Project{Input: input, Exprs: exprs, schema: types.Schema{Columns: cols}}
}

// Schema implements Node.
func (p *Project) Schema() types.Schema { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Describe implements Node.
func (p *Project) Describe() string {
	return fmt.Sprintf("Project(%d exprs)", len(p.Exprs))
}

// Filter keeps rows whose predicate evaluates to TRUE.
type Filter struct {
	Input Node
	Pred  Expr
}

// Schema implements Node.
func (f *Filter) Schema() types.Schema { return f.Input.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Describe implements Node.
func (f *Filter) Describe() string { return "Filter(" + f.Pred.Fingerprint() + ")" }

// Join combines two inputs. Equi-key pairs are extracted for hash joins;
// Residual is evaluated over the concatenated row (left columns first).
type Join struct {
	Type      sql.JoinType
	L, R      Node
	LeftKeys  []Expr // bound against L's schema
	RightKeys []Expr // bound against R's schema
	Residual  Expr   // bound against concat schema; may be nil

	schema types.Schema
}

// NewJoin builds a join node.
func NewJoin(jt sql.JoinType, l, r Node, leftKeys, rightKeys []Expr, residual Expr) *Join {
	return &Join{
		Type: jt, L: l, R: r,
		LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual,
		schema: l.Schema().Concat(r.Schema()),
	}
}

// Schema implements Node.
func (j *Join) Schema() types.Schema { return j.schema }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// Describe implements Node.
func (j *Join) Describe() string {
	return fmt.Sprintf("Join[%s](%d keys)", j.Type, len(j.LeftKeys))
}

// Aggregate groups by the GroupBy expressions and computes Aggs per group.
// Output schema: group-by columns followed by aggregate columns.
type Aggregate struct {
	Input   Node
	GroupBy []Expr
	Aggs    []AggExpr

	schema types.Schema
}

// NewAggregate builds an aggregation node; names supplies output column
// names for group-by columns then aggregates.
func NewAggregate(input Node, groupBy []Expr, aggs []AggExpr, names []string) *Aggregate {
	cols := make([]types.Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		cols = append(cols, types.Column{Name: names[i], Kind: InferKind(g)})
	}
	for i, a := range aggs {
		cols = append(cols, types.Column{Name: names[len(groupBy)+i], Kind: a.ResultKind()})
	}
	return &Aggregate{Input: input, GroupBy: groupBy, Aggs: aggs, schema: types.Schema{Columns: cols}}
}

// Schema implements Node.
func (a *Aggregate) Schema() types.Schema { return a.schema }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// Describe implements Node.
func (a *Aggregate) Describe() string {
	return fmt.Sprintf("Aggregate(%d keys, %d aggs)", len(a.GroupBy), len(a.Aggs))
}

// Window appends one column per window function to each input row.
// All functions share the node's PARTITION BY / ORDER BY.
type Window struct {
	Input       Node
	PartitionBy []Expr
	OrderBy     []OrderSpec
	Funcs       []WindowFunc

	schema types.Schema
}

// NewWindow builds a window node; names supplies the appended columns'
// names.
func NewWindow(input Node, partitionBy []Expr, orderBy []OrderSpec, funcs []WindowFunc, names []string) *Window {
	cols := append([]types.Column(nil), input.Schema().Columns...)
	for i, f := range funcs {
		cols = append(cols, types.Column{Name: names[i], Kind: f.ResultKind()})
	}
	return &Window{
		Input: input, PartitionBy: partitionBy, OrderBy: orderBy, Funcs: funcs,
		schema: types.Schema{Columns: cols},
	}
}

// Schema implements Node.
func (w *Window) Schema() types.Schema { return w.schema }

// Children implements Node.
func (w *Window) Children() []Node { return []Node{w.Input} }

// Describe implements Node.
func (w *Window) Describe() string {
	return fmt.Sprintf("Window(%d funcs, %d partition keys)", len(w.Funcs), len(w.PartitionBy))
}

// UnionAll concatenates inputs with identical arity.
type UnionAll struct {
	Inputs []Node
}

// Schema implements Node.
func (u *UnionAll) Schema() types.Schema { return u.Inputs[0].Schema() }

// Children implements Node.
func (u *UnionAll) Children() []Node { return u.Inputs }

// Describe implements Node.
func (u *UnionAll) Describe() string { return fmt.Sprintf("UnionAll(%d)", len(u.Inputs)) }

// Distinct eliminates duplicate rows.
type Distinct struct {
	Input Node
}

// Schema implements Node.
func (d *Distinct) Schema() types.Schema { return d.Input.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Input} }

// Describe implements Node.
func (d *Distinct) Describe() string { return "Distinct" }

// Flatten unnests a variant array per input row (LATERAL FLATTEN),
// appending VALUE and INDEX columns.
type Flatten struct {
	Input Node
	Expr  Expr // the variant array, bound against Input's schema

	schema types.Schema
}

// NewFlatten builds a flatten node; alias names the appended columns
// (alias_VALUE style naming is handled by the binder via scope qualifiers).
func NewFlatten(input Node, e Expr) *Flatten {
	cols := append([]types.Column(nil), input.Schema().Columns...)
	cols = append(cols,
		types.Column{Name: "VALUE", Kind: types.KindVariant},
		types.Column{Name: "INDEX", Kind: types.KindInt},
	)
	return &Flatten{Input: input, Expr: e, schema: types.Schema{Columns: cols}}
}

// Schema implements Node.
func (f *Flatten) Schema() types.Schema { return f.schema }

// Children implements Node.
func (f *Flatten) Children() []Node { return []Node{f.Input} }

// Describe implements Node.
func (f *Flatten) Describe() string { return "Flatten" }

// Sort orders rows.
type Sort struct {
	Input Node
	Items []OrderSpec
}

// Schema implements Node.
func (s *Sort) Schema() types.Schema { return s.Input.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Describe implements Node.
func (s *Sort) Describe() string { return fmt.Sprintf("Sort(%d items)", len(s.Items)) }

// Limit caps the row count.
type Limit struct {
	Input Node
	N     int64
}

// Schema implements Node.
func (l *Limit) Schema() types.Schema { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Describe implements Node.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Values is an inline row source (used for SELECT without FROM and tests).
type Values struct {
	Rows   []types.Row
	schema types.Schema
}

// NewValues builds a values node.
func NewValues(schema types.Schema, rows []types.Row) *Values {
	return &Values{Rows: rows, schema: schema}
}

// Schema implements Node.
func (v *Values) Schema() types.Schema { return v.schema }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// Describe implements Node.
func (v *Values) Describe() string { return fmt.Sprintf("Values(%d rows)", len(v.Rows)) }

// Walk visits the plan tree depth-first, parents before children.
func Walk(n Node, f func(Node)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children() {
		Walk(c, f)
	}
}

// Scans returns every Scan node in the plan.
func Scans(n Node) []*Scan {
	var out []*Scan
	Walk(n, func(node Node) {
		if s, ok := node.(*Scan); ok {
			out = append(out, s)
		}
	})
	return out
}

// Volatile reports whether any operator of the plan evaluates a volatile
// expression (see VolatileExpr).
func Volatile(n Node) bool {
	volatile := false
	Walk(n, func(node Node) {
		volatile = volatile || slices.ContainsFunc(nodeExprs(node), VolatileExpr)
	})
	return volatile
}

// nodeExprs returns the expressions the operator evaluates itself, not
// its inputs'.
func nodeExprs(n Node) []Expr {
	var out []Expr
	switch x := n.(type) {
	case *Project:
		out = x.Exprs
	case *Filter:
		out = []Expr{x.Pred}
	case *Join:
		out = append(append(append(out, x.LeftKeys...), x.RightKeys...), x.Residual)
	case *Aggregate:
		out = append(out, x.GroupBy...)
		for _, a := range x.Aggs {
			out = append(out, a.Arg)
		}
	case *Window:
		out = append(out, x.PartitionBy...)
		for _, o := range x.OrderBy {
			out = append(out, o.Expr)
		}
		for _, f := range x.Funcs {
			out = append(out, f.Arg)
		}
	case *Flatten:
		out = []Expr{x.Expr}
	case *Sort:
		for _, o := range x.Items {
			out = append(out, o.Expr)
		}
	}
	return out
}

// Fingerprint renders the plan with every expression, aggregate, window
// function and sort order and the storage identity of every scan, so two
// plans share a fingerprint only when they compute the same rows from the
// same tables.
func Fingerprint(n Node) string {
	var b strings.Builder
	Walk(n, func(node Node) {
		b.WriteString(node.Describe())
		switch x := node.(type) {
		case *Scan:
			fmt.Fprintf(&b, "#%d", x.Table.ID())
		case *Aggregate:
			for _, a := range x.Aggs {
				b.WriteString(" " + a.Fingerprint())
			}
		case *Window:
			for _, o := range x.OrderBy {
				b.WriteString(" " + o.Fingerprint())
			}
			for _, f := range x.Funcs {
				b.WriteString(" " + f.Fingerprint())
			}
		case *Sort:
			for _, o := range x.Items {
				b.WriteString(" " + o.Fingerprint())
			}
		case *Values:
			for _, r := range x.Rows {
				b.WriteString(" " + r.Key())
			}
		}
		for _, e := range nodeExprs(node) {
			if e != nil {
				b.WriteString(" " + e.Fingerprint())
			}
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// Explain renders the plan as an indented tree.
func Explain(n Node) string {
	var b strings.Builder
	var rec func(Node, int)
	rec = func(node Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(node.Describe())
		b.WriteByte('\n')
		for _, c := range node.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// ExplainAnnotated renders the plan as an indented tree with a
// per-operator suffix produced by annotate (an empty suffix annotates
// nothing). EXPLAIN ANALYZE uses it to append actual rows, loops and
// wall time to each operator line.
func ExplainAnnotated(n Node, annotate func(Node) string) string {
	var b strings.Builder
	var rec func(Node, int)
	rec = func(node Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(node.Describe())
		b.WriteString(annotate(node))
		b.WriteByte('\n')
		for _, c := range node.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// OperatorCounts tallies operator types in a plan; the workload analyzer
// uses it for the Figure 6 operator-frequency experiment.
func OperatorCounts(n Node) map[string]int {
	out := map[string]int{}
	Walk(n, func(node Node) {
		switch x := node.(type) {
		case *Scan:
			out["Scan"]++
		case *Project:
			out["Project"]++
		case *Filter:
			out["Filter"]++
		case *Join:
			switch x.Type {
			case sql.JoinInner:
				out["InnerJoin"]++
			default:
				out["OuterJoin"]++
			}
		case *Aggregate:
			out["Aggregate"]++
		case *Window:
			out["Window"]++
		case *UnionAll:
			out["UnionAll"]++
		case *Distinct:
			out["Distinct"]++
		case *Flatten:
			out["Flatten"]++
		}
	})
	return out
}
