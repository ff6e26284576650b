package plan

import (
	"fmt"
	"strings"

	"dyntables/internal/catalog"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// Source is a resolved FROM-clause object, supplied by the Resolver.
type Source struct {
	EntryID    int64
	Generation int64
	Name       string
	Kind       catalog.ObjectKind
	// Table is the storage handle for tables and dynamic tables.
	Table *storage.Table
	// ViewSQL is the defining text for views, expanded inline by the
	// binder (§5.4: "nested views are expanded").
	ViewSQL string
	// Virtual marks an engine-metadata table (INFORMATION_SCHEMA.*)
	// materialized at bind time: it has no catalog entry, participates in
	// no dependency tracking, and may not appear in stored defining
	// queries.
	Virtual bool
}

// Resolver resolves names against the catalog.
type Resolver interface {
	ResolveTable(name string) (*Source, error)
}

// Bound is a fully bound query plan plus the metadata the DT machinery
// needs: the dependency set with generations (for query-evolution checks,
// §5.4) and the scans (for version pinning, §5.3).
type Bound struct {
	Plan Node
	// Deps maps catalog entry IDs to the generation observed at bind time.
	Deps map[int64]int64
}

// maxViewDepth bounds view expansion to catch cycles through views.
const maxViewDepth = 32

// Binder binds parsed SQL to logical plans.
type Binder struct {
	resolver Resolver
	deps     map[int64]int64
	depth    int
	// sources memoizes resolved names for the statement being bound:
	// repeated references share one Source, so a self-join over a
	// virtual metadata table reads a single materialized snapshot.
	sources map[string]*Source
}

// NewBinder returns a binder using the resolver.
func NewBinder(r Resolver) *Binder {
	return &Binder{resolver: r, deps: make(map[int64]int64), sources: make(map[string]*Source)}
}

// BindSelect binds a SELECT statement.
func (b *Binder) BindSelect(stmt *sql.SelectStmt) (*Bound, error) {
	node, _, err := b.bindSelect(stmt)
	if err != nil {
		return nil, err
	}
	return &Bound{Plan: node, Deps: b.deps}, nil
}

// BindConstExpr binds an expression with no columns in scope (INSERT
// VALUES lists).
func (b *Binder) BindConstExpr(e sql.Expr) (Expr, error) {
	return b.bindScalar(e, &scope{})
}

// BoundAssignment is a bound UPDATE SET clause.
type BoundAssignment struct {
	ColumnIdx int
	Expr      Expr
}

// BindDMLExprs binds an UPDATE/DELETE WHERE clause and SET assignments
// against a single table's schema, with both the bare column names and the
// table-qualified names in scope.
func (b *Binder) BindDMLExprs(tableName string, schema types.Schema, where sql.Expr, set []sql.Assignment) (Expr, []BoundAssignment, error) {
	sc := &scope{}
	for _, c := range schema.Columns {
		sc.add(tableName, c.Name, c.Kind)
	}
	var boundWhere Expr
	if where != nil {
		var err error
		boundWhere, err = b.bindScalar(where, sc)
		if err != nil {
			return nil, nil, err
		}
	}
	var assignments []BoundAssignment
	for _, a := range set {
		idx := schema.Index(a.Column)
		if idx < 0 {
			return nil, nil, fmt.Errorf("plan: no column %q in %s", a.Column, tableName)
		}
		bound, err := b.bindScalar(a.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		assignments = append(assignments, BoundAssignment{ColumnIdx: idx, Expr: bound})
	}
	return boundWhere, assignments, nil
}

// scopeCol is one visible column during binding.
type scopeCol struct {
	qual string // upper-cased qualifier (alias or table name); may be ""
	name string // upper-cased column name
	kind types.Kind
}

type scope struct {
	cols []scopeCol
}

func (s *scope) add(qual, name string, kind types.Kind) {
	s.cols = append(s.cols, scopeCol{
		qual: strings.ToUpper(qual), name: strings.ToUpper(name), kind: kind,
	})
}

func (s *scope) concat(o *scope) *scope {
	out := &scope{cols: make([]scopeCol, 0, len(s.cols)+len(o.cols))}
	out.cols = append(out.cols, s.cols...)
	out.cols = append(out.cols, o.cols...)
	return out
}

// resolve finds the ordinal of a column reference.
func (s *scope) resolve(qual, name string) (int, types.Kind, error) {
	uq, un := strings.ToUpper(qual), strings.ToUpper(name)
	found := -1
	var kind types.Kind
	for i, c := range s.cols {
		if c.name != un {
			continue
		}
		if uq != "" && c.qual != uq {
			continue
		}
		if found >= 0 {
			return 0, 0, fmt.Errorf("plan: ambiguous column %q", name)
		}
		found, kind = i, c.kind
	}
	if found < 0 {
		if qual != "" {
			return 0, 0, fmt.Errorf("plan: unknown column %s.%s", qual, name)
		}
		return 0, 0, fmt.Errorf("plan: unknown column %q", name)
	}
	return found, kind, nil
}

// ---------------------------------------------------------------------------
// FROM clause
// ---------------------------------------------------------------------------

func (b *Binder) bindTableExpr(te sql.TableExpr) (Node, *scope, error) {
	switch t := te.(type) {
	case *sql.TableRef:
		return b.bindTableRef(t)
	case *sql.JoinExpr:
		return b.bindJoin(t)
	case *sql.SubqueryRef:
		node, sc, err := b.bindSelect(t.Select)
		if err != nil {
			return nil, nil, err
		}
		// Requalify output columns under the subquery alias.
		out := &scope{}
		for _, c := range sc.cols {
			out.add(t.Alias, c.name, c.kind)
		}
		return node, out, nil
	case *sql.FlattenRef:
		input, sc, err := b.bindTableExpr(t.Input)
		if err != nil {
			return nil, nil, err
		}
		e, err := b.bindScalar(t.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		node := NewFlatten(input, e)
		out := &scope{cols: append([]scopeCol(nil), sc.cols...)}
		out.add(t.Alias, "VALUE", types.KindVariant)
		out.add(t.Alias, "INDEX", types.KindInt)
		return node, out, nil
	default:
		return nil, nil, fmt.Errorf("plan: unsupported table expression %T", te)
	}
}

func (b *Binder) bindTableRef(t *sql.TableRef) (Node, *scope, error) {
	key := strings.ToUpper(t.Name)
	src := b.sources[key]
	if src == nil {
		var err error
		src, err = b.resolver.ResolveTable(t.Name)
		if err != nil {
			return nil, nil, err
		}
		b.sources[key] = src
	}
	if !src.Virtual {
		b.deps[src.EntryID] = src.Generation
	}
	qual := t.Alias
	if qual == "" {
		qual = t.Name
		// A schema-qualified reference without an alias is addressable by
		// its bare table name (SELECT t.col FROM INFORMATION_SCHEMA.T).
		if i := strings.LastIndexByte(qual, '.'); i >= 0 {
			qual = qual[i+1:]
		}
	}
	if src.ViewSQL != "" {
		// Expand the view inline.
		if b.depth >= maxViewDepth {
			return nil, nil, fmt.Errorf("plan: view nesting too deep expanding %q", t.Name)
		}
		stmt, err := sql.Parse(src.ViewSQL)
		if err != nil {
			return nil, nil, fmt.Errorf("plan: view %q has invalid definition: %w", t.Name, err)
		}
		sel, ok := stmt.(*sql.SelectStmt)
		if !ok {
			return nil, nil, fmt.Errorf("plan: view %q definition is not a SELECT", t.Name)
		}
		b.depth++
		node, sc, err := b.bindSelect(sel)
		b.depth--
		if err != nil {
			return nil, nil, fmt.Errorf("plan: expanding view %q: %w", t.Name, err)
		}
		out := &scope{}
		for _, c := range sc.cols {
			out.add(qual, c.name, c.kind)
		}
		return node, out, nil
	}
	if src.Table == nil {
		return nil, nil, fmt.Errorf("plan: object %q is not queryable", t.Name)
	}
	scan := NewScan(src.Name, src.EntryID, src.Table)
	sc := &scope{}
	for _, c := range src.Table.Schema().Columns {
		sc.add(qual, c.Name, c.Kind)
	}
	return scan, sc, nil
}

func (b *Binder) bindJoin(t *sql.JoinExpr) (Node, *scope, error) {
	lNode, lScope, err := b.bindTableExpr(t.L)
	if err != nil {
		return nil, nil, err
	}
	rNode, rScope, err := b.bindTableExpr(t.R)
	if err != nil {
		return nil, nil, err
	}
	combined := lScope.concat(rScope)
	on, err := b.bindScalar(t.On, combined)
	if err != nil {
		return nil, nil, err
	}
	leftWidth := len(lScope.cols)
	lk, rk, residual := SplitJoinKeys(on, leftWidth)
	return NewJoin(t.Type, lNode, rNode, lk, rk, residual), combined, nil
}

// SplitJoinKeys decomposes an ON predicate (bound against the concatenated
// schema) into equi-join key pairs plus a residual predicate. Key
// expressions are rebased: left keys against the left schema, right keys
// against the right schema.
func SplitJoinKeys(on Expr, leftWidth int) (leftKeys, rightKeys []Expr, residual Expr) {
	conjuncts := splitConjuncts(on)
	var rest []Expr
	for _, c := range conjuncts {
		eq, ok := c.(*BinOp)
		if !ok || eq.Op != sql.OpEq {
			rest = append(rest, c)
			continue
		}
		lSide := sideOf(eq.L, leftWidth)
		rSide := sideOf(eq.R, leftWidth)
		switch {
		case lSide == sideLeft && rSide == sideRight:
			leftKeys = append(leftKeys, eq.L)
			rightKeys = append(rightKeys, ShiftColumns(eq.R, -leftWidth))
		case lSide == sideRight && rSide == sideLeft:
			leftKeys = append(leftKeys, eq.R)
			rightKeys = append(rightKeys, ShiftColumns(eq.L, -leftWidth))
		default:
			rest = append(rest, c)
		}
	}
	residual = combineConjuncts(rest)
	return leftKeys, rightKeys, residual
}

type exprSide uint8

const (
	sideNone exprSide = iota
	sideLeft
	sideRight
	sideBoth
)

func sideOf(e Expr, leftWidth int) exprSide {
	side := sideNone
	WalkExpr(e, func(sub Expr) {
		c, ok := sub.(*ColIdx)
		if !ok {
			return
		}
		var s exprSide
		if c.Idx < leftWidth {
			s = sideLeft
		} else {
			s = sideRight
		}
		switch {
		case side == sideNone:
			side = s
		case side != s:
			side = sideBoth
		}
	})
	return side
}

func splitConjuncts(e Expr) []Expr {
	var out []Expr
	forEachConjunct(e, func(c Expr) { out = append(out, c) })
	return out
}

// forEachConjunct calls f on each conjunct of e, left to right: the
// leaves of its AND tree, except TRUE literals, which vanish.
func forEachConjunct(e Expr, f func(Expr)) {
	if b, ok := e.(*BinOp); ok && b.Op == sql.OpAnd {
		forEachConjunct(b.L, f)
		forEachConjunct(b.R, f)
		return
	}
	if l, ok := e.(*Lit); ok && l.Val.Kind() == types.KindBool && l.Val.Bool() {
		return
	}
	f(e)
}

func combineConjuncts(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &BinOp{Op: sql.OpAnd, L: out, R: e}
	}
	return out
}

// ---------------------------------------------------------------------------
// SELECT binding
// ---------------------------------------------------------------------------

// bindSelect binds a full SELECT including UNION ALL branches, ORDER BY and
// LIMIT. The returned scope is the output schema (unqualified).
func (b *Binder) bindSelect(stmt *sql.SelectStmt) (Node, *scope, error) {
	if b.wantsHiddenSort(stmt) {
		// ORDER BY provably references columns (or expressions) outside
		// the select list: bind once through the hidden-sort-column path
		// instead of binding, failing and rebinding.
		node, sc, err := b.bindSortWithHidden(stmt)
		if err != nil {
			return nil, nil, err
		}
		if stmt.Limit != nil {
			node = &Limit{Input: node, N: *stmt.Limit}
		}
		return node, sc, nil
	}
	node, sc, err := b.bindSelectBody(stmt)
	if err != nil {
		return nil, nil, err
	}
	if len(stmt.Unions) > 0 {
		inputs := []Node{node}
		for i, branch := range stmt.Unions {
			bn, bs, err := b.bindSelectBody(branch)
			if err != nil {
				return nil, nil, fmt.Errorf("plan: UNION ALL branch %d: %w", i+1, err)
			}
			if len(bs.cols) != len(sc.cols) {
				return nil, nil, fmt.Errorf(
					"plan: UNION ALL branch %d has %d columns, want %d",
					i+1, len(bs.cols), len(sc.cols))
			}
			inputs = append(inputs, bn)
		}
		node = &UnionAll{Inputs: inputs}
	}
	if len(stmt.OrderBy) > 0 {
		items, err := b.bindOrderBy(stmt.OrderBy, stmt.Items, sc)
		if err == nil {
			node = &Sort{Input: node, Items: items}
		} else {
			// Rare fallback (star select lists defeat the syntactic
			// check in wantsHiddenSort): rebuild with hidden sort
			// columns appended, sort, and project them away again.
			sorted, _, serr := b.bindSortWithHidden(stmt)
			if serr != nil {
				return nil, nil, err // the direct error reads better
			}
			node = sorted
		}
	}
	if stmt.Limit != nil {
		node = &Limit{Input: node, N: *stmt.Limit}
	}
	return node, sc, nil
}

// wantsHiddenSort reports, without binding, that the statement's ORDER
// BY certainly needs hidden sort columns: some item is an expression, or
// a column name that no select-list item produces. Star items defeat the
// syntactic check, so those statements take the ordinary bind-then-
// fallback path instead.
func (b *Binder) wantsHiddenSort(stmt *sql.SelectStmt) bool {
	if len(stmt.OrderBy) == 0 || len(stmt.Unions) > 0 || stmt.Distinct || stmt.GroupByAll {
		return false
	}
	names := make(map[string]bool, len(stmt.Items))
	for i, it := range stmt.Items {
		if _, isStar := it.Expr.(*sql.Star); isStar {
			return false
		}
		names[strings.ToUpper(outputName(it, i))] = true
	}
	for _, oi := range stmt.OrderBy {
		switch e := oi.Expr.(type) {
		case *sql.Literal:
			// Ordinals always address the select list.
		case *sql.ColumnRef:
			if e.Table != "" && selectItemOf(stmt.Items, e) < 0 {
				return true
			}
			if e.Table == "" && !names[strings.ToUpper(e.Name)] {
				return true
			}
		default:
			return true
		}
	}
	return false
}

// selectItemOf returns the ordinal of the first select-list item that is
// the qualified column ref itself (`a.g`, aliased or not), or -1 when
// there is none or a star makes the ordinals unknown. ORDER BY resolves a
// qualified name through it: two joined tables may each give the output
// a column g, so the output's names alone cannot tell a.g from b.g.
func selectItemOf(items []sql.SelectItem, ref *sql.ColumnRef) int {
	idx := -1
	for i, it := range items {
		switch e := it.Expr.(type) {
		case *sql.Star:
			return -1
		case *sql.ColumnRef:
			if idx < 0 && strings.EqualFold(e.Table, ref.Table) && strings.EqualFold(e.Name, ref.Name) {
				idx = i
			}
		}
	}
	return idx
}

// bindSortWithHidden supports ORDER BY items that do not appear in the
// select list (SELECT a FROM t ORDER BY b): the select body is bound
// once with the missing expressions appended as hidden output columns,
// the sort runs over the extended rows, and a final projection restores
// the declared output. Unsupported under UNION ALL, DISTINCT and GROUP
// BY ALL, where a hidden column would change the statement's semantics.
func (b *Binder) bindSortWithHidden(stmt *sql.SelectStmt) (Node, *scope, error) {
	if len(stmt.Unions) > 0 || stmt.Distinct || stmt.GroupByAll {
		return nil, nil, fmt.Errorf("plan: ORDER BY column not in select list")
	}
	extended := *stmt
	extended.Items = append([]sql.SelectItem(nil), stmt.Items...)
	extended.OrderBy = nil
	extended.Limit = nil

	// Classify each ORDER BY item syntactically: ordinals and column
	// names produced by the select list resolve against the declared
	// output after the bind; everything else gets a hidden column.
	outNames := make(map[string]bool, len(stmt.Items))
	allNamed := true
	for i, it := range stmt.Items {
		if _, isStar := it.Expr.(*sql.Star); isStar {
			allNamed = false
			continue
		}
		outNames[strings.ToUpper(outputName(it, i))] = true
	}
	type pendingSpec struct {
		sql.OrderItem
		hidden int // ordinal among hidden columns, or -1 for output items
	}
	var pend []pendingSpec
	hidden := 0
	for _, oi := range stmt.OrderBy {
		direct := false
		switch e := oi.Expr.(type) {
		case *sql.Literal:
			direct = true
		case *sql.ColumnRef:
			// With a star in the list the syntactic name set is
			// incomplete; order such columns by a hidden copy instead.
			// So is a qualified name no select item gives, which then
			// resolves against the FROM scope.
			if e.Table != "" {
				direct = selectItemOf(stmt.Items, e) >= 0
			} else {
				direct = allNamed && outNames[strings.ToUpper(e.Name)]
			}
		}
		if direct {
			pend = append(pend, pendingSpec{OrderItem: oi, hidden: -1})
			continue
		}
		pend = append(pend, pendingSpec{OrderItem: oi, hidden: hidden})
		extended.Items = append(extended.Items, sql.SelectItem{Expr: oi.Expr})
		hidden++
	}

	node, sc, err := b.bindSelectBody(&extended)
	if err != nil {
		return nil, nil, err
	}
	outWidth := len(sc.cols) - hidden
	outScope := &scope{cols: sc.cols[:outWidth]}
	specs := make([]OrderSpec, len(pend))
	for i, p := range pend {
		idx := 0
		if p.hidden >= 0 {
			idx = outWidth + p.hidden
		} else {
			switch e := p.Expr.(type) {
			case *sql.Literal:
				if e.Kind != sql.LitInt || e.Int < 1 || int(e.Int) > outWidth {
					return nil, nil, fmt.Errorf("plan: ORDER BY position out of range")
				}
				idx = int(e.Int) - 1
			case *sql.ColumnRef:
				if e.Table != "" {
					idx = selectItemOf(stmt.Items, e)
					break
				}
				var rerr error
				idx, _, rerr = outScope.resolve("", e.Name)
				if rerr != nil {
					return nil, nil, fmt.Errorf("plan: ORDER BY: %w", rerr)
				}
			}
		}
		c := sc.cols[idx]
		specs[i] = OrderSpec{Expr: &ColIdx{Idx: idx, Name: c.name, Kind: c.kind}, Desc: p.Desc, Nulls: p.Nulls}
	}
	node = &Sort{Input: node, Items: specs}
	if hidden == 0 {
		return node, outScope, nil
	}
	// Restore the declared output columns.
	exprs := make([]Expr, outWidth)
	names := make([]string, outWidth)
	for i, c := range outScope.cols {
		exprs[i] = &ColIdx{Idx: i, Name: c.name, Kind: c.kind}
		names[i] = c.name
	}
	return NewProject(node, exprs, names), outScope, nil
}

// bindOrderBy resolves ORDER BY items against the select output: by output
// column name, by ordinal, by alias, or, for a qualified name, by the
// select item that is that column.
func (b *Binder) bindOrderBy(orderBy []sql.OrderItem, items []sql.SelectItem, out *scope) ([]OrderSpec, error) {
	var specs []OrderSpec
	for _, oi := range orderBy {
		switch e := oi.Expr.(type) {
		case *sql.Literal:
			if e.Kind != sql.LitInt || e.Int < 1 || int(e.Int) > len(out.cols) {
				return nil, fmt.Errorf("plan: ORDER BY position out of range")
			}
			idx := int(e.Int) - 1
			specs = append(specs, OrderSpec{
				Expr:  &ColIdx{Idx: idx, Name: out.cols[idx].name, Kind: out.cols[idx].kind},
				Desc:  oi.Desc,
				Nulls: oi.Nulls,
			})
		case *sql.ColumnRef:
			idx, kind := -1, types.KindNull
			if e.Table != "" {
				if idx = selectItemOf(items, e); idx >= 0 {
					kind = out.cols[idx].kind
				}
			}
			if idx < 0 {
				var err error
				if idx, kind, err = out.resolve("", e.Name); err != nil {
					return nil, fmt.Errorf("plan: ORDER BY: %w", err)
				}
			}
			specs = append(specs, OrderSpec{
				Expr:  &ColIdx{Idx: idx, Name: e.Name, Kind: kind},
				Desc:  oi.Desc,
				Nulls: oi.Nulls,
			})
		default:
			return nil, fmt.Errorf("plan: ORDER BY supports output columns and positions only")
		}
	}
	return specs, nil
}

// bindSelectBody binds a single SELECT block (no unions/order/limit).
func (b *Binder) bindSelectBody(stmt *sql.SelectStmt) (Node, *scope, error) {
	var node Node
	var sc *scope
	if stmt.From == nil {
		node = NewValues(types.Schema{}, []types.Row{{}})
		sc = &scope{}
	} else {
		var err error
		node, sc, err = b.bindTableExpr(stmt.From)
		if err != nil {
			return nil, nil, err
		}
	}

	if stmt.Where != nil {
		pred, err := b.bindScalar(stmt.Where, sc)
		if err != nil {
			return nil, nil, err
		}
		node = &Filter{Input: node, Pred: pred}
	}

	items, err := b.expandStars(stmt.Items, sc)
	if err != nil {
		return nil, nil, err
	}

	hasAgg := len(stmt.GroupBy) > 0 || stmt.GroupByAll ||
		anyContainsAggregate(items) || sql.ContainsAggregate(stmt.Having)

	rw := &rewriter{binder: b, preAggScope: sc}

	if hasAgg {
		node, err = rw.buildAggregate(node, stmt, items, sc)
		if err != nil {
			return nil, nil, err
		}
		if stmt.Having != nil {
			pred, err := rw.rewrite(stmt.Having)
			if err != nil {
				return nil, nil, fmt.Errorf("plan: HAVING: %w", err)
			}
			node = &Filter{Input: node, Pred: pred}
		}
	}

	node, err = rw.buildWindows(node, items)
	if err != nil {
		return nil, nil, err
	}

	// Final projection.
	exprs := make([]Expr, len(items))
	names := make([]string, len(items))
	for i, item := range items {
		e, err := rw.rewrite(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		exprs[i] = e
		names[i] = outputName(item, i)
	}
	proj := NewProject(node, exprs, names)
	node = proj

	if stmt.Distinct {
		node = &Distinct{Input: node}
	}

	out := &scope{}
	for _, c := range proj.Schema().Columns {
		out.add("", c.Name, c.Kind)
	}
	return node, out, nil
}

func anyContainsAggregate(items []sql.SelectItem) bool {
	for _, it := range items {
		if sql.ContainsAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// expandStars replaces * and t.* with explicit column references.
func (b *Binder) expandStars(items []sql.SelectItem, sc *scope) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, item := range items {
		star, ok := item.Expr.(*sql.Star)
		if !ok {
			out = append(out, item)
			continue
		}
		matched := false
		uq := strings.ToUpper(star.Table)
		for _, c := range sc.cols {
			if uq != "" && c.qual != uq {
				continue
			}
			matched = true
			out = append(out, sql.SelectItem{
				Expr:  &sql.ColumnRef{Table: c.qual, Name: c.name},
				Alias: c.name,
			})
		}
		if !matched {
			if star.Table != "" {
				return nil, fmt.Errorf("plan: unknown table %q in %s.*", star.Table, star.Table)
			}
			return nil, fmt.Errorf("plan: SELECT * with empty scope")
		}
	}
	return out, nil
}

// outputName picks the output column name for a select item.
func outputName(item sql.SelectItem, ordinal int) string {
	if item.Alias != "" {
		return item.Alias
	}
	return displayName(item.Expr, ordinal)
}

func displayName(e sql.Expr, ordinal int) string {
	switch x := e.(type) {
	case *sql.ColumnRef:
		return x.Name
	case *sql.PathExpr:
		return x.Field
	case *sql.CastExpr:
		return displayName(x.Expr, ordinal)
	case *sql.FuncCall:
		return strings.ToUpper(x.Name)
	default:
		return fmt.Sprintf("EXPR_%d", ordinal)
	}
}

// ---------------------------------------------------------------------------
// aggregate / window rewriting
// ---------------------------------------------------------------------------

// rewriter binds select-list expressions in the presence of aggregation and
// window functions, replacing matched sub-expressions with references into
// the aggregate/window output.
type rewriter struct {
	binder      *Binder
	preAggScope *scope

	hasAgg   bool
	groupFPs map[string]int // fingerprint of bound group expr -> output ordinal
	aggFPs   map[string]int // fingerprint of bound agg -> output ordinal
	aggWidth int            // width of aggregate output (group + aggs)

	winFPs   map[string]int // fingerprint of bound window func+spec -> ordinal
	curWidth int            // current input width during final rewrite
}

// buildAggregate constructs the Aggregate node and populates the rewrite
// maps.
func (rw *rewriter) buildAggregate(input Node, stmt *sql.SelectStmt, items []sql.SelectItem, sc *scope) (Node, error) {
	rw.hasAgg = true
	rw.groupFPs = map[string]int{}
	rw.aggFPs = map[string]int{}

	// Resolve GROUP BY expressions (aliases, ordinals, GROUP BY ALL).
	var groupSQL []sql.Expr
	switch {
	case stmt.GroupByAll:
		for _, it := range items {
			if !sql.ContainsAggregate(it.Expr) && !sql.ContainsWindow(it.Expr) {
				groupSQL = append(groupSQL, it.Expr)
			}
		}
	default:
		for _, g := range stmt.GroupBy {
			groupSQL = append(groupSQL, resolveGroupRef(g, items))
		}
	}

	var groupBound []Expr
	var names []string
	for i, g := range groupSQL {
		e, err := rw.binder.bindScalar(g, sc)
		if err != nil {
			return nil, fmt.Errorf("plan: GROUP BY: %w", err)
		}
		fp := e.Fingerprint()
		if _, dup := rw.groupFPs[fp]; dup {
			continue
		}
		rw.groupFPs[fp] = len(groupBound)
		groupBound = append(groupBound, e)
		names = append(names, groupColName(g, i, items))
	}

	// Collect aggregate calls from items and HAVING.
	var aggs []AggExpr
	collect := func(e sql.Expr) error {
		var err error
		sql.WalkExprs(e, func(sub sql.Expr) {
			if err != nil || !sql.IsAggregateCall(sub) {
				return
			}
			fc := sub.(*sql.FuncCall)
			agg, bindErr := rw.binder.bindAggregate(fc, sc)
			if bindErr != nil {
				err = bindErr
				return
			}
			fp := agg.Fingerprint()
			if _, dup := rw.aggFPs[fp]; !dup {
				rw.aggFPs[fp] = len(groupBound) + len(aggs)
				aggs = append(aggs, agg)
			}
		})
		return err
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, err
		}
	}
	for _, a := range aggs {
		names = append(names, a.Kind.String())
	}
	rw.aggWidth = len(groupBound) + len(aggs)
	rw.curWidth = rw.aggWidth
	return NewAggregate(input, groupBound, aggs, names), nil
}

// resolveGroupRef resolves a GROUP BY element that names a select alias or
// ordinal to the underlying select-item expression.
func resolveGroupRef(g sql.Expr, items []sql.SelectItem) sql.Expr {
	switch x := g.(type) {
	case *sql.Literal:
		if x.Kind == sql.LitInt && x.Int >= 1 && int(x.Int) <= len(items) {
			return items[x.Int-1].Expr
		}
	case *sql.ColumnRef:
		if x.Table == "" {
			for _, it := range items {
				if strings.EqualFold(it.Alias, x.Name) {
					return it.Expr
				}
			}
		}
	}
	return g
}

func groupColName(g sql.Expr, ordinal int, items []sql.SelectItem) string {
	for _, it := range items {
		if it.Expr == g && it.Alias != "" {
			return it.Alias
		}
	}
	return displayName(g, ordinal)
}

// buildWindows collects window calls from items and stacks Window nodes
// over the input, one per distinct (PARTITION BY, ORDER BY) spec.
func (rw *rewriter) buildWindows(input Node, items []sql.SelectItem) (Node, error) {
	type winGroup struct {
		partition []Expr
		order     []OrderSpec
		funcs     []WindowFunc
		fps       []string
	}
	var groups []*winGroup
	groupIdx := map[string]int{}
	rw.winFPs = map[string]int{}
	if rw.curWidth == 0 {
		rw.curWidth = len(rw.preAggScope.cols)
	}

	var walkErr error
	var orderedCalls []*sql.FuncCall
	for _, it := range items {
		sql.WalkExprs(it.Expr, func(sub sql.Expr) {
			if fc, ok := sub.(*sql.FuncCall); ok && fc.Over != nil {
				orderedCalls = append(orderedCalls, fc)
			}
		})
	}
	if len(orderedCalls) == 0 {
		return input, nil
	}

	for _, fc := range orderedCalls {
		wf, partition, order, key, err := rw.bindWindowCall(fc)
		if err != nil {
			walkErr = err
			break
		}
		if _, dup := rw.winFPs[key]; dup {
			continue
		}
		specKey := specFingerprint(partition, order)
		gi, ok := groupIdx[specKey]
		if !ok {
			gi = len(groups)
			groupIdx[specKey] = gi
			groups = append(groups, &winGroup{partition: partition, order: order})
		}
		g := groups[gi]
		g.funcs = append(g.funcs, wf)
		g.fps = append(g.fps, key)
	}
	if walkErr != nil {
		return nil, walkErr
	}

	node := input
	width := rw.curWidth
	for _, g := range groups {
		names := make([]string, len(g.funcs))
		for i, f := range g.funcs {
			names[i] = f.Kind.String()
			rw.winFPs[g.fps[i]] = width + i
		}
		node = NewWindow(node, g.partition, g.order, g.funcs, names)
		width += len(g.funcs)
	}
	rw.curWidth = width
	return node, nil
}

func specFingerprint(partition []Expr, order []OrderSpec) string {
	var b strings.Builder
	for _, p := range partition {
		b.WriteString(p.Fingerprint())
		b.WriteByte('|')
	}
	b.WriteByte(';')
	for _, o := range order {
		b.WriteString(o.Fingerprint())
		b.WriteByte('|')
	}
	return b.String()
}

// bindWindowCall binds a window function call's argument and spec against
// the current (post-aggregate) input.
func (rw *rewriter) bindWindowCall(fc *sql.FuncCall) (WindowFunc, []Expr, []OrderSpec, string, error) {
	name := strings.ToUpper(fc.Name)
	var kind WinKind
	switch name {
	case "ROW_NUMBER":
		kind = WinRowNumber
	case "RANK":
		kind = WinRank
	case "DENSE_RANK":
		kind = WinDenseRank
	case "LAG":
		kind = WinLag
	case "LEAD":
		kind = WinLead
	case "FIRST_VALUE":
		kind = WinFirstValue
	case "LAST_VALUE":
		kind = WinLastValue
	case "SUM":
		kind = WinSum
	case "COUNT":
		kind = WinCount
	case "MIN":
		kind = WinMin
	case "MAX":
		kind = WinMax
	case "AVG":
		kind = WinAvg
	default:
		return WindowFunc{}, nil, nil, "", fmt.Errorf("plan: unsupported window function %q", fc.Name)
	}

	wf := WindowFunc{Kind: kind, Offset: 1}
	if len(fc.Args) > 0 {
		if _, isStar := fc.Args[0].(*sql.Star); !isStar {
			arg, err := rw.rewriteNoWindow(fc.Args[0])
			if err != nil {
				return WindowFunc{}, nil, nil, "", err
			}
			wf.Arg = arg
		}
	}
	if (kind == WinLag || kind == WinLead) && len(fc.Args) > 1 {
		lit, ok := fc.Args[1].(*sql.Literal)
		if !ok || lit.Kind != sql.LitInt {
			return WindowFunc{}, nil, nil, "", fmt.Errorf("plan: %s offset must be an integer literal", name)
		}
		wf.Offset = lit.Int
	}

	var partition []Expr
	for _, p := range fc.Over.PartitionBy {
		e, err := rw.rewriteNoWindow(p)
		if err != nil {
			return WindowFunc{}, nil, nil, "", err
		}
		partition = append(partition, e)
	}
	var order []OrderSpec
	for _, o := range fc.Over.OrderBy {
		if o.Nulls != sql.NullsDefault {
			return WindowFunc{}, nil, nil, "", fmt.Errorf("plan: NULLS FIRST|LAST is supported in a query's ORDER BY, not a window's")
		}
		e, err := rw.rewriteNoWindow(o.Expr)
		if err != nil {
			return WindowFunc{}, nil, nil, "", err
		}
		order = append(order, OrderSpec{Expr: e, Desc: o.Desc})
	}
	key := wf.Fingerprint() + "@" + specFingerprint(partition, order)
	return wf, partition, order, key, nil
}

// rewrite binds a select-item expression, mapping window calls, aggregate
// calls and group expressions to their computed columns.
func (rw *rewriter) rewrite(e sql.Expr) (Expr, error) {
	if fc, ok := e.(*sql.FuncCall); ok && fc.Over != nil {
		_, _, _, key, err := rw.bindWindowCall(fc)
		if err != nil {
			return nil, err
		}
		idx, ok := rw.winFPs[key]
		if !ok {
			return nil, fmt.Errorf("plan: internal: window call not collected: %s", key)
		}
		return &ColIdx{Idx: idx, Name: strings.ToUpper(fc.Name), Kind: types.KindVariant}, nil
	}
	return rw.rewriteNoWindow(e)
}

// rewriteNoWindow is rewrite below window level: aggregates and group
// expressions map to aggregate output columns; everything else recurses.
func (rw *rewriter) rewriteNoWindow(e sql.Expr) (Expr, error) {
	if rw.hasAgg {
		if sql.IsAggregateCall(e) {
			agg, err := rw.binder.bindAggregate(e.(*sql.FuncCall), rw.preAggScope)
			if err != nil {
				return nil, err
			}
			idx, ok := rw.aggFPs[agg.Fingerprint()]
			if !ok {
				return nil, fmt.Errorf("plan: internal: aggregate not collected: %s", agg.Fingerprint())
			}
			return &ColIdx{Idx: idx, Name: agg.Kind.String(), Kind: agg.ResultKind()}, nil
		}
		// Whole-expression match against a GROUP BY expression.
		if bound, err := rw.binder.bindScalar(e, rw.preAggScope); err == nil {
			if idx, ok := rw.groupFPs[bound.Fingerprint()]; ok {
				return &ColIdx{Idx: idx, Name: colNameOf(e), Kind: InferKind(bound)}, nil
			}
			// A bare column that is not grouped is an error under
			// aggregation; composites may still match piecewise below.
			if _, isCol := e.(*sql.ColumnRef); isCol {
				return nil, fmt.Errorf("plan: column %q must appear in GROUP BY", colNameOf(e))
			}
			if _, isLit := e.(*sql.Literal); isLit {
				return bound, nil
			}
		} else if _, isCol := e.(*sql.ColumnRef); isCol {
			return nil, err
		}
		// Recurse into composite expressions.
		return rw.rebuild(e)
	}
	return rw.binder.bindScalar(e, rw.preAggScope)
}

func colNameOf(e sql.Expr) string {
	if c, ok := e.(*sql.ColumnRef); ok {
		return c.Name
	}
	return "EXPR"
}

// rebuild recurses into a composite expression under aggregation.
func (rw *rewriter) rebuild(e sql.Expr) (Expr, error) {
	switch x := e.(type) {
	case *sql.Literal, *sql.Placeholder:
		return rw.binder.bindScalar(x, rw.preAggScope)
	case *sql.BinaryExpr:
		l, err := rw.rewriteNoWindow(x.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewriteNoWindow(x.R)
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: x.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		inner, err := rw.rewriteNoWindow(x.Expr)
		if err != nil {
			return nil, err
		}
		if x.Neg {
			return &Neg{E: inner}, nil
		}
		return &Not{E: inner}, nil
	case *sql.FuncCall:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			bound, err := rw.rewriteNoWindow(a)
			if err != nil {
				return nil, err
			}
			args[i] = bound
		}
		return makeScalarFunc(x.Name, args)
	case *sql.CastExpr:
		inner, err := rw.rewriteNoWindow(x.Expr)
		if err != nil {
			return nil, err
		}
		kind, err := types.KindFromName(x.TypeName)
		if err != nil {
			return nil, err
		}
		return &Cast{E: inner, Target: kind}, nil
	case *sql.PathExpr:
		inner, err := rw.rewriteNoWindow(x.Expr)
		if err != nil {
			return nil, err
		}
		return &Path{E: inner, Field: x.Field}, nil
	case *sql.IndexExpr:
		inner, err := rw.rewriteNoWindow(x.Expr)
		if err != nil {
			return nil, err
		}
		idx, err := rw.rewriteNoWindow(x.Index)
		if err != nil {
			return nil, err
		}
		return &Index{E: inner, I: idx}, nil
	case *sql.CaseExpr:
		out := &Case{}
		if x.Operand != nil {
			op, err := rw.rewriteNoWindow(x.Operand)
			if err != nil {
				return nil, err
			}
			out.Operand = op
		}
		for _, w := range x.Whens {
			when, err := rw.rewriteNoWindow(w.When)
			if err != nil {
				return nil, err
			}
			then, err := rw.rewriteNoWindow(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, CaseWhen{When: when, Then: then})
		}
		if x.Else != nil {
			els, err := rw.rewriteNoWindow(x.Else)
			if err != nil {
				return nil, err
			}
			out.Else = els
		}
		return out, nil
	case *sql.IsNullExpr:
		inner, err := rw.rewriteNoWindow(x.Expr)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Negate: x.Negate}, nil
	case *sql.InListExpr:
		inner, err := rw.rewriteNoWindow(x.Expr)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, l := range x.List {
			bound, err := rw.rewriteNoWindow(l)
			if err != nil {
				return nil, err
			}
			list[i] = bound
		}
		return &InList{E: inner, List: list, Negate: x.Negate}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T under aggregation", e)
	}
}

// ---------------------------------------------------------------------------
// scalar binding
// ---------------------------------------------------------------------------

// bindScalar binds an expression that must not contain aggregates or
// window functions.
func (b *Binder) bindScalar(e sql.Expr, sc *scope) (Expr, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return &Lit{Val: literalValue(x)}, nil
	case *sql.Placeholder:
		return &Param{Ordinal: x.Ordinal, Name: x.Name}, nil
	case *sql.ColumnRef:
		idx, kind, err := sc.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return &ColIdx{Idx: idx, Name: x.Name, Kind: kind}, nil
	case *sql.Star:
		return nil, fmt.Errorf("plan: '*' is only valid in SELECT lists and COUNT(*)")
	case *sql.BinaryExpr:
		l, err := b.bindScalar(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bindScalar(x.R, sc)
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: x.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		inner, err := b.bindScalar(x.Expr, sc)
		if err != nil {
			return nil, err
		}
		if x.Neg {
			return &Neg{E: inner}, nil
		}
		return &Not{E: inner}, nil
	case *sql.FuncCall:
		if x.Over != nil {
			return nil, fmt.Errorf("plan: window function %q not allowed here", x.Name)
		}
		if sql.AggregateFuncs[strings.ToUpper(x.Name)] {
			return nil, fmt.Errorf("plan: aggregate %q not allowed here", x.Name)
		}
		args, err := b.bindFuncArgs(x, sc)
		if err != nil {
			return nil, err
		}
		return makeScalarFunc(x.Name, args)
	case *sql.CastExpr:
		inner, err := b.bindScalar(x.Expr, sc)
		if err != nil {
			return nil, err
		}
		kind, err := types.KindFromName(x.TypeName)
		if err != nil {
			return nil, err
		}
		return &Cast{E: inner, Target: kind}, nil
	case *sql.PathExpr:
		inner, err := b.bindScalar(x.Expr, sc)
		if err != nil {
			return nil, err
		}
		return &Path{E: inner, Field: x.Field}, nil
	case *sql.IndexExpr:
		inner, err := b.bindScalar(x.Expr, sc)
		if err != nil {
			return nil, err
		}
		idx, err := b.bindScalar(x.Index, sc)
		if err != nil {
			return nil, err
		}
		return &Index{E: inner, I: idx}, nil
	case *sql.CaseExpr:
		out := &Case{}
		if x.Operand != nil {
			op, err := b.bindScalar(x.Operand, sc)
			if err != nil {
				return nil, err
			}
			out.Operand = op
		}
		for _, w := range x.Whens {
			when, err := b.bindScalar(w.When, sc)
			if err != nil {
				return nil, err
			}
			then, err := b.bindScalar(w.Then, sc)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, CaseWhen{When: when, Then: then})
		}
		if x.Else != nil {
			els, err := b.bindScalar(x.Else, sc)
			if err != nil {
				return nil, err
			}
			out.Else = els
		}
		return out, nil
	case *sql.IsNullExpr:
		inner, err := b.bindScalar(x.Expr, sc)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Negate: x.Negate}, nil
	case *sql.InListExpr:
		inner, err := b.bindScalar(x.Expr, sc)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, l := range x.List {
			bound, err := b.bindScalar(l, sc)
			if err != nil {
				return nil, err
			}
			list[i] = bound
		}
		return &InList{E: inner, List: list, Negate: x.Negate}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// bindFuncArgs binds scalar function arguments, special-casing the unit
// argument of DATE_TRUNC / DATEDIFF / DATEADD, which the dialect accepts as
// a bare identifier (DATE_TRUNC(hour, ts)).
func (b *Binder) bindFuncArgs(fc *sql.FuncCall, sc *scope) ([]Expr, error) {
	name := strings.ToUpper(fc.Name)
	unitArg := -1
	switch name {
	case "DATE_TRUNC", "DATEDIFF", "DATEADD":
		unitArg = 0
	}
	args := make([]Expr, len(fc.Args))
	for i, a := range fc.Args {
		if i == unitArg {
			if cr, ok := a.(*sql.ColumnRef); ok && cr.Table == "" && isTimeUnit(cr.Name) {
				args[i] = &Lit{Val: types.NewString(strings.ToLower(cr.Name))}
				continue
			}
		}
		bound, err := b.bindScalar(a, sc)
		if err != nil {
			return nil, err
		}
		args[i] = bound
	}
	return args, nil
}

func isTimeUnit(s string) bool {
	switch strings.ToLower(s) {
	case "microsecond", "millisecond", "second", "minute", "hour", "day", "week", "month", "year":
		return true
	default:
		return false
	}
}

func makeScalarFunc(name string, args []Expr) (Expr, error) {
	upper := strings.ToUpper(name)
	if !KnownScalarFunc(upper) {
		return nil, fmt.Errorf("plan: unknown function %q", name)
	}
	return &Func{Name: upper, Args: args}, nil
}

// bindAggregate binds one aggregate function call.
func (b *Binder) bindAggregate(fc *sql.FuncCall, sc *scope) (AggExpr, error) {
	name := strings.ToUpper(fc.Name)
	var kind AggKind
	switch name {
	case "COUNT":
		kind = AggCount
	case "COUNT_IF":
		kind = AggCountIf
	case "SUM":
		kind = AggSum
	case "MIN":
		kind = AggMin
	case "MAX":
		kind = AggMax
	case "AVG":
		kind = AggAvg
	case "ANY_VALUE":
		kind = AggAnyValue
	default:
		return AggExpr{}, fmt.Errorf("plan: unknown aggregate %q", fc.Name)
	}
	agg := AggExpr{Kind: kind, Distinct: fc.Distinct}
	if len(fc.Args) == 0 {
		if kind != AggCount {
			return AggExpr{}, fmt.Errorf("plan: %s requires an argument", name)
		}
		return agg, nil
	}
	if _, isStar := fc.Args[0].(*sql.Star); isStar {
		if kind != AggCount {
			return AggExpr{}, fmt.Errorf("plan: %s(*) is not valid", name)
		}
		return agg, nil
	}
	arg, err := b.bindScalar(fc.Args[0], sc)
	if err != nil {
		return AggExpr{}, err
	}
	agg.Arg = arg
	return agg, nil
}

func literalValue(l *sql.Literal) types.Value {
	switch l.Kind {
	case sql.LitInt:
		return types.NewInt(l.Int)
	case sql.LitFloat:
		return types.NewFloat(l.Float)
	case sql.LitString:
		return types.NewString(l.Str)
	case sql.LitBool:
		return types.NewBool(l.Boolean)
	default:
		return types.Null
	}
}
