// Package sql implements the SQL frontend: lexer, recursive-descent parser
// and abstract syntax tree for the dialect used by Dynamic Tables. The
// dialect covers the paper's Listing 1 verbatim: SELECT with inner and
// outer joins, WHERE, GROUP BY [ALL], HAVING, window functions with
// PARTITION BY, UNION ALL, DISTINCT, LATERAL FLATTEN, variant path access
// (payload:field) and casts (expr::type), plus the DDL and DML surface
// needed to run pipelines: CREATE [OR REPLACE] [DYNAMIC] TABLE / VIEW /
// WAREHOUSE, INSERT, UPDATE, DELETE, DROP/UNDROP, ALTER ... RENAME/SWAP/
// SUSPEND/RESUME/REFRESH, and CLONE.
package sql

import (
	"strings"
	"time"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed scalar expression.
type Expr interface{ expr() }

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Literal is a constant value: number, string, boolean or NULL.
type Literal struct {
	// Exactly one of the following is meaningful, per Kind.
	Kind    LiteralKind
	Int     int64
	Float   float64
	Str     string
	Boolean bool
}

// LiteralKind discriminates Literal payloads.
type LiteralKind uint8

// The literal kinds.
const (
	LitNull LiteralKind = iota
	LitInt
	LitFloat
	LitString
	LitBool
)

// ColumnRef is a possibly-qualified column reference (t.col or col).
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

// Star is `*` or `t.*` in a select list or COUNT(*).
type Star struct {
	Table string // optional qualifier
}

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// The binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// String renders the operator.
func (op BinaryOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpConcat:
		return "||"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	default:
		return "?"
	}
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

// UnaryExpr is -x or NOT x.
type UnaryExpr struct {
	Neg  bool // true: arithmetic negation; false: logical NOT
	Expr Expr
}

// FuncCall is a scalar, aggregate or window function call.
type FuncCall struct {
	Name     string
	Args     []Expr
	Distinct bool
	Over     *WindowSpec // non-nil for window functions
}

// WindowSpec is the OVER (...) clause.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []OrderItem
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr  Expr
	Desc  bool
	Nulls NullsOrder
}

// NullsOrder is an ORDER BY item's NULLS FIRST or NULLS LAST. By default
// NULL sorts lowest: first ascending and last descending.
type NullsOrder uint8

// The NULL orders.
const (
	NullsDefault NullsOrder = iota
	NullsFirst
	NullsLast
)

// CastExpr is expr::type.
type CastExpr struct {
	Expr     Expr
	TypeName string
}

// PathExpr is variant path access: expr:field.
type PathExpr struct {
	Expr  Expr
	Field string
}

// IndexExpr is variant array access: expr[i].
type IndexExpr struct {
	Expr  Expr
	Index Expr
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr // nil if absent
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	When Expr
	Then Expr
}

// Placeholder is a bind parameter: `?` (positional, 1-based Ordinal in
// order of appearance) or `:name` (named, Ordinal 0). Values are supplied
// at execution time through the session layer.
type Placeholder struct {
	Ordinal int    // 1-based position for `?`; 0 for named placeholders
	Name    string // upper-cased name for `:name`; "" for positional
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	Expr   Expr
	Negate bool
}

// InListExpr is expr [NOT] IN (e1, e2, ...).
type InListExpr struct {
	Expr   Expr
	List   []Expr
	Negate bool
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*Star) expr()        {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*FuncCall) expr()    {}
func (*CastExpr) expr()    {}
func (*PathExpr) expr()    {}
func (*IndexExpr) expr()   {}
func (*CaseExpr) expr()    {}
func (*Placeholder) expr() {}
func (*IsNullExpr) expr()  {}
func (*InListExpr) expr()  {}

// ---------------------------------------------------------------------------
// Table expressions
// ---------------------------------------------------------------------------

// TableExpr is anything that can appear in FROM.
type TableExpr interface{ tableExpr() }

// TableRef names a table, view or dynamic table, with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// JoinType enumerates join types.
type JoinType uint8

// The join types.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinRight
	JoinFull
)

// String renders the join type.
func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "INNER"
	case JoinLeft:
		return "LEFT"
	case JoinRight:
		return "RIGHT"
	case JoinFull:
		return "FULL"
	default:
		return "?"
	}
}

// JoinExpr is L <type> JOIN R ON cond.
type JoinExpr struct {
	Type JoinType
	L, R TableExpr
	On   Expr
}

// SubqueryRef is a parenthesized SELECT used as a table, with an alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

// FlattenRef is `, LATERAL FLATTEN(expr) [AS] alias`: it unnests a variant
// array, producing columns (VALUE VARIANT, INDEX INT) correlated with the
// preceding table expression.
type FlattenRef struct {
	Input TableExpr // the left side of the lateral join
	Expr  Expr      // the variant array to flatten, may reference Input
	Alias string
}

func (*TableRef) tableExpr()    {}
func (*JoinExpr) tableExpr()    {}
func (*SubqueryRef) tableExpr() {}
func (*FlattenRef) tableExpr()  {}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// SelectItem is one select-list element with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// SelectStmt is a SELECT, possibly with UNION ALL branches chained in
// Unions (left-deep, all sharing this statement's ORDER BY / LIMIT).
type SelectStmt struct {
	Distinct   bool
	Items      []SelectItem
	From       TableExpr // nil for SELECT without FROM
	Where      Expr
	GroupBy    []Expr
	GroupByAll bool
	Having     Expr
	OrderBy    []OrderItem
	Limit      *int64
	Unions     []*SelectStmt // UNION ALL branches, in order
}

func (*SelectStmt) stmt() {}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

// ColumnDef is one column of CREATE TABLE.
type ColumnDef struct {
	Name     string
	TypeName string
}

// CreateTableStmt is CREATE [OR REPLACE] TABLE.
type CreateTableStmt struct {
	OrReplace bool
	Name      string
	Columns   []ColumnDef
	CloneOf   string      // CREATE TABLE x CLONE y
	AsSelect  *SelectStmt // CREATE TABLE x AS SELECT ...
}

// CreateViewStmt is CREATE [OR REPLACE] VIEW.
type CreateViewStmt struct {
	OrReplace bool
	Name      string
	Query     *SelectStmt
	// Text is the original SQL of the query, re-parsed on expansion.
	Text string
}

// CreateAlertStmt is CREATE [OR REPLACE] ALERT: a declared watchdog rule
// whose condition SELECT is evaluated on scheduler ticks and whose action
// runs on the OK→FIRING transition.
type CreateAlertStmt struct {
	OrReplace bool
	Name      string
	// Schedule is the evaluation cadence; 0 evaluates on every tick.
	Schedule time.Duration
	// Condition is the SELECT inside IF (EXISTS (...)).
	Condition *SelectStmt
	// ConditionText is the condition's original SQL, re-parsed per
	// evaluation through the owner's session.
	ConditionText string
	// ActionKind is RECORD, WEBHOOK or SQL.
	ActionKind string
	// ActionURL is the POST target when ActionKind is WEBHOOK.
	ActionURL string
	// ActionSQL is the statement text when ActionKind is SQL.
	ActionSQL string
}

// TargetLagKind discriminates target lag settings (§3.2).
type TargetLagKind uint8

// The target lag kinds.
const (
	LagDuration TargetLagKind = iota
	LagDownstream
)

// TargetLag is the TARGET_LAG property: a duration or DOWNSTREAM.
type TargetLag struct {
	Kind     TargetLagKind
	Duration time.Duration
}

// RefreshMode is the REFRESH_MODE property (§3.3.2). AUTO lets the engine
// choose INCREMENTAL when the defining query is incrementalizable.
type RefreshMode uint8

// The refresh modes.
const (
	RefreshAuto RefreshMode = iota
	RefreshFull
	RefreshIncremental
)

// String renders the mode.
func (m RefreshMode) String() string {
	switch m {
	case RefreshAuto:
		return "AUTO"
	case RefreshFull:
		return "FULL"
	case RefreshIncremental:
		return "INCREMENTAL"
	default:
		return "?"
	}
}

// CreateDynamicTableStmt is CREATE [OR REPLACE] DYNAMIC TABLE (§3).
type CreateDynamicTableStmt struct {
	OrReplace  bool
	Name       string
	Lag        TargetLag
	Warehouse  string
	Mode       RefreshMode
	Query      *SelectStmt
	Text       string // original text of the defining query
	CloneOf    string // CREATE DYNAMIC TABLE x CLONE y
	Initialize string // ON_CREATE (default) or ON_SCHEDULE
}

// CreateWarehouseStmt is CREATE [OR REPLACE] WAREHOUSE.
type CreateWarehouseStmt struct {
	OrReplace   bool
	Name        string
	Size        string        // XSMALL..X4LARGE
	AutoSuspend time.Duration // 0 = never
}

// DropStmt is DROP <kind> name.
type DropStmt struct {
	Kind string // TABLE, VIEW, DYNAMIC TABLE, WAREHOUSE
	Name string
}

// UndropStmt is UNDROP <kind> name.
type UndropStmt struct {
	Kind string
	Name string
}

// AlterStmt covers ALTER <kind> name RENAME TO x | SWAP WITH x | SUSPEND |
// RESUME | REFRESH [AT ts] | SET TARGET_LAG = ... | SET REFRESH_MODE = ...
type AlterStmt struct {
	Kind   string
	Name   string
	Action string // RENAME, SWAP, SUSPEND, RESUME, REFRESH, SET_LAG, SET_MODE
	Target string // rename/swap target
	Lag    *TargetLag
	// Mode carries SET REFRESH_MODE: pin a DT to FULL or INCREMENTAL, or
	// return it to AUTO (the per-DT override of the adaptive chooser).
	Mode *RefreshMode
}

// AlterSystemStmt is ALTER SYSTEM SET <param> = <value>: an engine-wide
// runtime tuning knob (refresh worker-pool width, observability history
// capacity, the adaptive refresh-mode chooser, the compaction horizon).
type AlterSystemStmt struct {
	Param string // upper-cased parameter name
	Value int64
}

// ShowStmt is SHOW DYNAMIC TABLES | SHOW WAREHOUSES | SHOW HEALTH:
// engine metadata rendered as a result set.
type ShowStmt struct {
	Kind string // "DYNAMIC TABLES", "WAREHOUSES" or "HEALTH"
}

// ExplainStmt is EXPLAIN <select | create dynamic table | dynamic table
// name>: it renders the bound plan tree (and, for dynamic tables, the
// refresh-mode decision and upstream frontier) without executing or
// creating anything. EXPLAIN DYNAMIC TABLE <name> describes an existing
// DT: its declared and effective modes, the adaptive chooser's last
// decision and reason, and the defining query's plan. EXPLAIN ANALYZE
// <select> additionally runs the statement and annotates every operator
// with its actual rows, loops and wall time.
type ExplainStmt struct {
	Target Statement // *SelectStmt or *CreateDynamicTableStmt; nil for DTName
	DTName string    // EXPLAIN DYNAMIC TABLE <name>
	// Analyze marks EXPLAIN ANALYZE: execute the target (SELECT only)
	// and report per-operator execution statistics.
	Analyze bool
}

func (*CreateTableStmt) stmt()        {}
func (*CreateViewStmt) stmt()         {}
func (*CreateDynamicTableStmt) stmt() {}
func (*CreateWarehouseStmt) stmt()    {}
func (*CreateAlertStmt) stmt()        {}
func (*DropStmt) stmt()               {}
func (*UndropStmt) stmt()             {}
func (*AlterStmt) stmt()              {}
func (*AlterSystemStmt) stmt()        {}
func (*ShowStmt) stmt()               {}
func (*ExplainStmt) stmt()            {}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// InsertStmt is INSERT INTO t [(cols)] VALUES (...) | SELECT ...
type InsertStmt struct {
	Table     string
	Columns   []string
	Rows      [][]Expr
	Query     *SelectStmt
	Overwrite bool
}

// UpdateStmt is UPDATE t SET col = expr, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET clause.
type Assignment struct {
	Column string
	Expr   Expr
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*InsertStmt) stmt() {}
func (*UpdateStmt) stmt() {}
func (*DeleteStmt) stmt() {}

// walkExprs applies f to every sub-expression of e, depth-first, including
// e itself. Used by the binder and the workload analyzer.
func WalkExprs(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExprs(x.L, f)
		WalkExprs(x.R, f)
	case *UnaryExpr:
		WalkExprs(x.Expr, f)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExprs(a, f)
		}
		if x.Over != nil {
			for _, p := range x.Over.PartitionBy {
				WalkExprs(p, f)
			}
			for _, o := range x.Over.OrderBy {
				WalkExprs(o.Expr, f)
			}
		}
	case *CastExpr:
		WalkExprs(x.Expr, f)
	case *PathExpr:
		WalkExprs(x.Expr, f)
	case *IndexExpr:
		WalkExprs(x.Expr, f)
		WalkExprs(x.Index, f)
	case *CaseExpr:
		WalkExprs(x.Operand, f)
		for _, w := range x.Whens {
			WalkExprs(w.When, f)
			WalkExprs(w.Then, f)
		}
		WalkExprs(x.Else, f)
	case *IsNullExpr:
		WalkExprs(x.Expr, f)
	case *InListExpr:
		WalkExprs(x.Expr, f)
		for _, l := range x.List {
			WalkExprs(l, f)
		}
	}
}

// AggregateFuncs lists the aggregate function names of the dialect.
var AggregateFuncs = map[string]bool{
	"COUNT": true, "COUNT_IF": true, "SUM": true, "MIN": true,
	"MAX": true, "AVG": true, "ANY_VALUE": true,
}

// WindowOnlyFuncs lists functions valid only with OVER.
var WindowOnlyFuncs = map[string]bool{
	"ROW_NUMBER": true, "RANK": true, "DENSE_RANK": true,
	"LAG": true, "LEAD": true, "FIRST_VALUE": true, "LAST_VALUE": true,
}

// IsAggregateCall reports whether e is an aggregate function call without
// an OVER clause.
func IsAggregateCall(e Expr) bool {
	fc, ok := e.(*FuncCall)
	return ok && fc.Over == nil && AggregateFuncs[strings.ToUpper(fc.Name)]
}

// ContainsAggregate reports whether e contains an aggregate call.
func ContainsAggregate(e Expr) bool {
	found := false
	WalkExprs(e, func(sub Expr) {
		if IsAggregateCall(sub) {
			found = true
		}
	})
	return found
}

// WalkStatementExprs applies f to every scalar expression reachable from
// the statement, including expressions nested in subqueries, join
// conditions and UNION ALL branches. The session layer uses it to collect
// bind placeholders before execution.
func WalkStatementExprs(stmt Statement, f func(Expr)) {
	switch s := stmt.(type) {
	case *SelectStmt:
		walkSelectExprs(s, f)
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				WalkExprs(e, f)
			}
		}
		if s.Query != nil {
			walkSelectExprs(s.Query, f)
		}
	case *UpdateStmt:
		for _, a := range s.Set {
			WalkExprs(a.Expr, f)
		}
		WalkExprs(s.Where, f)
	case *DeleteStmt:
		WalkExprs(s.Where, f)
	case *CreateTableStmt:
		if s.AsSelect != nil {
			walkSelectExprs(s.AsSelect, f)
		}
	case *CreateViewStmt:
		if s.Query != nil {
			walkSelectExprs(s.Query, f)
		}
	case *CreateDynamicTableStmt:
		if s.Query != nil {
			walkSelectExprs(s.Query, f)
		}
	case *CreateAlertStmt:
		if s.Condition != nil {
			walkSelectExprs(s.Condition, f)
		}
	}
}

func walkSelectExprs(s *SelectStmt, f func(Expr)) {
	for _, it := range s.Items {
		WalkExprs(it.Expr, f)
	}
	walkTableExprExprs(s.From, f)
	WalkExprs(s.Where, f)
	for _, g := range s.GroupBy {
		WalkExprs(g, f)
	}
	WalkExprs(s.Having, f)
	for _, o := range s.OrderBy {
		WalkExprs(o.Expr, f)
	}
	for _, u := range s.Unions {
		walkSelectExprs(u, f)
	}
}

func walkTableExprExprs(te TableExpr, f func(Expr)) {
	switch t := te.(type) {
	case nil:
	case *TableRef:
	case *JoinExpr:
		walkTableExprExprs(t.L, f)
		walkTableExprExprs(t.R, f)
		WalkExprs(t.On, f)
	case *SubqueryRef:
		walkSelectExprs(t.Select, f)
	case *FlattenRef:
		walkTableExprExprs(t.Input, f)
		WalkExprs(t.Expr, f)
	}
}

// CollectPlaceholders scans a statement for bind parameters, returning the
// number of positional `?` placeholders and the distinct `:name` names in
// first-appearance order.
func CollectPlaceholders(stmt Statement) (positional int, names []string) {
	seen := map[string]bool{}
	WalkStatementExprs(stmt, func(e Expr) {
		ph, ok := e.(*Placeholder)
		if !ok {
			return
		}
		if ph.Name == "" {
			if ph.Ordinal > positional {
				positional = ph.Ordinal
			}
			return
		}
		if !seen[ph.Name] {
			seen[ph.Name] = true
			names = append(names, ph.Name)
		}
	})
	return positional, names
}

// ContainsWindow reports whether e contains a window function call.
func ContainsWindow(e Expr) bool {
	found := false
	WalkExprs(e, func(sub Expr) {
		if fc, ok := sub.(*FuncCall); ok && fc.Over != nil {
			found = true
		}
	})
	return found
}
