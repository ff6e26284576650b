package sql

import (
	"strings"
	"testing"
	"time"
)

// listing1TrainArrivals is the first DT definition from the paper's
// Listing 1 (with the WARHEOUSE typo fixed).
const listing1TrainArrivals = `
CREATE DYNAMIC TABLE train_arrivals
TARGET_LAG = DOWNSTREAM
WAREHOUSE = trains_wh
AS SELECT
  t.id train_id,
  e.payload:time::timestamp arrival_time,
  e.payload:schedule_id::int schedule_id
FROM train_events e
JOIN trains t ON e.payload:train_id::int = t.id
WHERE e.type = 'ARRIVAL'`

// listing1DelayedTrains is the second DT definition from Listing 1.
const listing1DelayedTrains = `
CREATE DYNAMIC TABLE delayed_trains
TARGET_LAG = '1 minute'
WAREHOUSE = trains_wh
AS SELECT train_id,
  date_trunc(hour, s.expected_arrival_time) hour,
  count_if(arrival_time - s.expected_arrival_time > '10 minutes') num_delays
FROM train_arrivals a
JOIN schedule s ON a.schedule_id = s.id
GROUP BY ALL`

func TestParsePlaceholders(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t WHERE a > ? AND b = ? AND c = :name`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pos, names := CollectPlaceholders(stmt)
	if pos != 2 {
		t.Fatalf("want 2 positional placeholders, got %d", pos)
	}
	if len(names) != 1 || names[0] != "NAME" {
		t.Fatalf("want names [NAME], got %v", names)
	}

	// Ordinals follow appearance order, including inside nested selects
	// and VALUES lists.
	stmt, err = Parse(`INSERT INTO t (a, b) VALUES (?, ?), (?, ?)`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ins := stmt.(*InsertStmt)
	got := []int{}
	for _, row := range ins.Rows {
		for _, e := range row {
			got = append(got, e.(*Placeholder).Ordinal)
		}
	}
	for i, o := range got {
		if o != i+1 {
			t.Fatalf("ordinals: %v", got)
		}
	}

	// A `:` after an expression is still variant path access, not a
	// placeholder.
	stmt, err = Parse(`SELECT payload:field FROM t WHERE x = :p`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pos, names = CollectPlaceholders(stmt)
	if pos != 0 || len(names) != 1 || names[0] != "P" {
		t.Fatalf("path/placeholder disambiguation: pos=%d names=%v", pos, names)
	}
	sel := stmt.(*SelectStmt)
	if _, ok := sel.Items[0].Expr.(*PathExpr); !ok {
		t.Fatalf("payload:field parsed as %T, want *PathExpr", sel.Items[0].Expr)
	}
}

func TestParsePlaceholdersInSubqueries(t *testing.T) {
	stmt, err := Parse(`SELECT x FROM (SELECT a x FROM t WHERE a > ?) s
		JOIN u ON s.x = u.a AND u.b = :b
		WHERE x IN (?, ?)`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pos, names := CollectPlaceholders(stmt)
	if pos != 3 || len(names) != 1 {
		t.Fatalf("want 3 positional + 1 named, got %d + %v", pos, names)
	}
}

func TestParseListing1First(t *testing.T) {
	stmt, err := Parse(listing1TrainArrivals)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dt, ok := stmt.(*CreateDynamicTableStmt)
	if !ok {
		t.Fatalf("wrong statement type %T", stmt)
	}
	if dt.Name != "train_arrivals" {
		t.Errorf("name: %q", dt.Name)
	}
	if dt.Lag.Kind != LagDownstream {
		t.Errorf("lag: %+v", dt.Lag)
	}
	if dt.Warehouse != "trains_wh" {
		t.Errorf("warehouse: %q", dt.Warehouse)
	}
	if len(dt.Query.Items) != 3 {
		t.Fatalf("items: %d", len(dt.Query.Items))
	}
	// Second item: e.payload:time::timestamp AS arrival_time
	item := dt.Query.Items[1]
	if item.Alias != "arrival_time" {
		t.Errorf("alias: %q", item.Alias)
	}
	cast, ok := item.Expr.(*CastExpr)
	if !ok {
		t.Fatalf("expected cast, got %T", item.Expr)
	}
	if !strings.EqualFold(cast.TypeName, "timestamp") {
		t.Errorf("cast type: %q", cast.TypeName)
	}
	path, ok := cast.Expr.(*PathExpr)
	if !ok || path.Field != "time" {
		t.Fatalf("expected path access, got %#v", cast.Expr)
	}
	col, ok := path.Expr.(*ColumnRef)
	if !ok || col.Table != "e" || col.Name != "payload" {
		t.Errorf("path base: %#v", path.Expr)
	}
	// Join with payload-path equi-condition.
	join, ok := dt.Query.From.(*JoinExpr)
	if !ok || join.Type != JoinInner {
		t.Fatalf("from: %#v", dt.Query.From)
	}
	if dt.Query.Where == nil {
		t.Error("where missing")
	}
	if dt.Text == "" || !strings.Contains(dt.Text, "train_events") {
		t.Errorf("defining text not captured: %q", dt.Text)
	}
}

func TestParseListing1Second(t *testing.T) {
	stmt, err := Parse(listing1DelayedTrains)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dt := stmt.(*CreateDynamicTableStmt)
	if dt.Lag.Kind != LagDuration || dt.Lag.Duration != time.Minute {
		t.Errorf("lag: %+v", dt.Lag)
	}
	if !dt.Query.GroupByAll {
		t.Error("GROUP BY ALL not parsed")
	}
	// count_if(...) with interval comparison
	ci, ok := dt.Query.Items[2].Expr.(*FuncCall)
	if !ok || !strings.EqualFold(ci.Name, "count_if") {
		t.Fatalf("count_if: %#v", dt.Query.Items[2].Expr)
	}
	cmp, ok := ci.Args[0].(*BinaryExpr)
	if !ok || cmp.Op != OpGt {
		t.Fatalf("comparison: %#v", ci.Args[0])
	}
	if _, ok := cmp.L.(*BinaryExpr); !ok {
		t.Errorf("left side should be subtraction: %#v", cmp.L)
	}
	if lit, ok := cmp.R.(*Literal); !ok || lit.Str != "10 minutes" {
		t.Errorf("right side: %#v", cmp.R)
	}
}

func TestParseSelectBasics(t *testing.T) {
	stmt, err := Parse(`SELECT a, b AS c, t.d FROM t WHERE a > 1 AND b = 'x' ORDER BY a DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if len(sel.Items) != 3 {
		t.Fatalf("items: %d", len(sel.Items))
	}
	if sel.Items[1].Alias != "c" {
		t.Errorf("alias: %q", sel.Items[1].Alias)
	}
	if sel.OrderBy == nil || !sel.OrderBy[0].Desc {
		t.Error("order by desc missing")
	}
	if sel.Limit == nil || *sel.Limit != 10 {
		t.Error("limit missing")
	}
}

func TestParseJoinVariants(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want JoinType
	}{
		{`SELECT * FROM a JOIN b ON a.x = b.x`, JoinInner},
		{`SELECT * FROM a INNER JOIN b ON a.x = b.x`, JoinInner},
		{`SELECT * FROM a LEFT JOIN b ON a.x = b.x`, JoinLeft},
		{`SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x`, JoinLeft},
		{`SELECT * FROM a RIGHT JOIN b ON a.x = b.x`, JoinRight},
		{`SELECT * FROM a FULL OUTER JOIN b ON a.x = b.x`, JoinFull},
	} {
		stmt, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		join := stmt.(*SelectStmt).From.(*JoinExpr)
		if join.Type != tc.want {
			t.Errorf("%s: join type %v, want %v", tc.src, join.Type, tc.want)
		}
	}
}

func TestParseCrossJoinAndComma(t *testing.T) {
	stmt, err := Parse(`SELECT * FROM a CROSS JOIN b`)
	if err != nil {
		t.Fatal(err)
	}
	join := stmt.(*SelectStmt).From.(*JoinExpr)
	lit, ok := join.On.(*Literal)
	if !ok || lit.Kind != LitBool || !lit.Boolean {
		t.Errorf("cross join ON: %#v", join.On)
	}
	stmt, err = Parse(`SELECT * FROM a, b`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.(*SelectStmt).From.(*JoinExpr); !ok {
		t.Error("comma join not parsed")
	}
}

func TestParseLateralFlatten(t *testing.T) {
	stmt, err := Parse(`SELECT f.value FROM events e, LATERAL FLATTEN(input => e.payload:items) f`)
	if err != nil {
		t.Fatal(err)
	}
	fl, ok := stmt.(*SelectStmt).From.(*FlattenRef)
	if !ok {
		t.Fatalf("from: %#v", stmt.(*SelectStmt).From)
	}
	if fl.Alias != "f" {
		t.Errorf("alias: %q", fl.Alias)
	}
	if _, ok := fl.Input.(*TableRef); !ok {
		t.Errorf("input: %#v", fl.Input)
	}
}

func TestParseUnionAll(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t UNION ALL SELECT a FROM u UNION ALL SELECT a FROM v`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if len(sel.Unions) != 2 {
		t.Errorf("unions: %d", len(sel.Unions))
	}
	// Plain UNION is rejected.
	if _, err := Parse(`SELECT a FROM t UNION SELECT a FROM u`); err == nil {
		t.Error("plain UNION should be rejected")
	}
}

func TestParseWindowFunction(t *testing.T) {
	stmt, err := Parse(`SELECT id, row_number() OVER (PARTITION BY grp ORDER BY ts DESC) rn FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	fc := stmt.(*SelectStmt).Items[1].Expr.(*FuncCall)
	if fc.Over == nil {
		t.Fatal("OVER clause missing")
	}
	if len(fc.Over.PartitionBy) != 1 || len(fc.Over.OrderBy) != 1 {
		t.Errorf("spec: %+v", fc.Over)
	}
	if !fc.Over.OrderBy[0].Desc {
		t.Error("DESC not parsed")
	}
}

func TestParseCase(t *testing.T) {
	stmt, err := Parse(`SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	ce := stmt.(*SelectStmt).Items[0].Expr.(*CaseExpr)
	if ce.Operand != nil || len(ce.Whens) != 1 || ce.Else == nil {
		t.Errorf("case: %#v", ce)
	}
	stmt, err = Parse(`SELECT CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	ce = stmt.(*SelectStmt).Items[0].Expr.(*CaseExpr)
	if ce.Operand == nil || len(ce.Whens) != 2 || ce.Else != nil {
		t.Errorf("operand case: %#v", ce)
	}
}

func TestParseDML(t *testing.T) {
	stmt, err := Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Errorf("insert: %+v", ins)
	}

	stmt, err = Parse(`UPDATE t SET a = a + 1, b = 'z' WHERE a < 5`)
	if err != nil {
		t.Fatal(err)
	}
	upd := stmt.(*UpdateStmt)
	if len(upd.Set) != 2 || upd.Where == nil {
		t.Errorf("update: %+v", upd)
	}

	stmt, err = Parse(`DELETE FROM t WHERE a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*DeleteStmt)
	if del.Table != "t" || del.Where == nil {
		t.Errorf("delete: %+v", del)
	}

	stmt, err = Parse(`INSERT INTO t SELECT * FROM u`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*InsertStmt).Query == nil {
		t.Error("insert-select missing query")
	}

	stmt, err = Parse(`INSERT OVERWRITE INTO t VALUES (1)`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.(*InsertStmt).Overwrite {
		t.Error("overwrite flag missing")
	}
}

func TestParseDDL(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE t (a INT, b TEXT, c TIMESTAMP, d VARIANT)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if len(ct.Columns) != 4 {
		t.Errorf("columns: %+v", ct.Columns)
	}
	if _, err := Parse(`CREATE TABLE t (a BLOB)`); err == nil {
		t.Error("unknown type should fail")
	}

	stmt, err = Parse(`CREATE OR REPLACE VIEW v AS SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	cv := stmt.(*CreateViewStmt)
	if !cv.OrReplace || cv.Text == "" {
		t.Errorf("view: %+v", cv)
	}

	stmt, err = Parse(`CREATE WAREHOUSE wh WAREHOUSE_SIZE = 'MEDIUM' AUTO_SUSPEND = 60`)
	if err != nil {
		t.Fatal(err)
	}
	cw := stmt.(*CreateWarehouseStmt)
	if cw.Size != "MEDIUM" || cw.AutoSuspend != 60*time.Second {
		t.Errorf("warehouse: %+v", cw)
	}

	stmt, err = Parse(`CREATE TABLE t2 CLONE t`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*CreateTableStmt).CloneOf != "t" {
		t.Error("clone source missing")
	}

	stmt, err = Parse(`DROP DYNAMIC TABLE dt`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DropStmt).Kind != "DYNAMIC TABLE" {
		t.Errorf("drop kind: %q", stmt.(*DropStmt).Kind)
	}

	stmt, err = Parse(`UNDROP TABLE t`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*UndropStmt).Name != "t" {
		t.Error("undrop name")
	}
}

func TestParseAlter(t *testing.T) {
	cases := []struct {
		src    string
		action string
	}{
		{`ALTER TABLE t RENAME TO u`, "RENAME"},
		{`ALTER TABLE t SWAP WITH u`, "SWAP"},
		{`ALTER DYNAMIC TABLE dt SUSPEND`, "SUSPEND"},
		{`ALTER DYNAMIC TABLE dt RESUME`, "RESUME"},
		{`ALTER DYNAMIC TABLE dt REFRESH`, "REFRESH"},
		{`ALTER DYNAMIC TABLE dt SET TARGET_LAG = '5 minutes'`, "SET_LAG"},
	}
	for _, tc := range cases {
		stmt, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		alter := stmt.(*AlterStmt)
		if alter.Action != tc.action {
			t.Errorf("%s: action %q", tc.src, alter.Action)
		}
	}
	stmt, _ := Parse(`ALTER DYNAMIC TABLE dt SET TARGET_LAG = '5 minutes'`)
	if lag := stmt.(*AlterStmt).Lag; lag == nil || lag.Duration != 5*time.Minute {
		t.Error("lag not parsed")
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE a (x INT);
		INSERT INTO a VALUES (1);
		SELECT * FROM a;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Errorf("statements: %d", len(stmts))
	}
}

func TestParseComments(t *testing.T) {
	stmt, err := Parse(`
		-- line comment
		SELECT /* block
		comment */ a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.(*SelectStmt).Items) != 1 {
		t.Error("comment handling broke the select")
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr(`1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	add := e.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("top op: %v", add.Op)
	}
	if mul, ok := add.R.(*BinaryExpr); !ok || mul.Op != OpMul {
		t.Error("* must bind tighter than +")
	}

	e, _ = ParseExpr(`a = 1 OR b = 2 AND c = 3`)
	or := e.(*BinaryExpr)
	if or.Op != OpOr {
		t.Error("OR must be loosest")
	}

	e, _ = ParseExpr(`NOT a = 1`)
	not := e.(*UnaryExpr)
	if not.Neg {
		t.Error("expected logical NOT")
	}
	if cmp, ok := not.Expr.(*BinaryExpr); !ok || cmp.Op != OpEq {
		t.Error("NOT must apply to the comparison")
	}
}

func TestParsePostfixChain(t *testing.T) {
	e, err := ParseExpr(`payload:a:b::int`)
	if err != nil {
		t.Fatal(err)
	}
	cast := e.(*CastExpr)
	inner := cast.Expr.(*PathExpr)
	if inner.Field != "b" {
		t.Errorf("outer path: %q", inner.Field)
	}
	if p2, ok := inner.Expr.(*PathExpr); !ok || p2.Field != "a" {
		t.Error("inner path")
	}

	e, err = ParseExpr(`payload:items[0]:name::text`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*CastExpr); !ok {
		t.Errorf("chain: %#v", e)
	}
}

func TestParseIsNullAndInList(t *testing.T) {
	e, err := ParseExpr(`a IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if isn := e.(*IsNullExpr); !isn.Negate {
		t.Error("IS NOT NULL negate flag")
	}
	e, err = ParseExpr(`a NOT IN (1, 2, 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if in := e.(*InListExpr); !in.Negate || len(in.List) != 3 {
		t.Errorf("in-list: %#v", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`CREATE DYNAMIC TABLE dt AS SELECT 1`, // missing TARGET_LAG
		`CREATE TABLE`,
		`INSERT INTO t`,
		`FROBNICATE x`,
		`SELECT a FROM t GROUP`,
		`SELECT 'unterminated`,
		`SELECT a b c d FROM`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseQuotedIdentifiers(t *testing.T) {
	stmt, err := Parse(`SELECT "Weird Name" FROM "My Table"`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	col := sel.Items[0].Expr.(*ColumnRef)
	if col.Name != "Weird Name" {
		t.Errorf("quoted ident: %q", col.Name)
	}
	if sel.From.(*TableRef).Name != "My Table" {
		t.Error("quoted table name")
	}
}

func TestParseStringEscapes(t *testing.T) {
	e, err := ParseExpr(`'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	if lit := e.(*Literal); lit.Str != "it's" {
		t.Errorf("escape: %q", lit.Str)
	}
}

func TestParseDistinctAggregate(t *testing.T) {
	stmt, err := Parse(`SELECT count(DISTINCT user_id) FROM events`)
	if err != nil {
		t.Fatal(err)
	}
	fc := stmt.(*SelectStmt).Items[0].Expr.(*FuncCall)
	if !fc.Distinct {
		t.Error("DISTINCT flag missing")
	}
}

func TestParseGroupByExprAndHaving(t *testing.T) {
	stmt, err := Parse(`SELECT grp, count(*) FROM t GROUP BY grp HAVING count(*) > 5`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Errorf("group/having: %+v", sel)
	}
}

func TestContainsHelpers(t *testing.T) {
	e, _ := ParseExpr(`count(*) + 1`)
	if !ContainsAggregate(e) {
		t.Error("ContainsAggregate failed")
	}
	e, _ = ParseExpr(`row_number() OVER (PARTITION BY a)`)
	if !ContainsWindow(e) {
		t.Error("ContainsWindow failed")
	}
	if ContainsAggregate(e) {
		t.Error("window call is not an aggregate call")
	}
	e, _ = ParseExpr(`sum(x) OVER (PARTITION BY a)`)
	if ContainsAggregate(e) {
		t.Error("sum with OVER is a window call, not aggregate")
	}
}

func TestParseSubquery(t *testing.T) {
	stmt, err := Parse(`SELECT x FROM (SELECT a AS x FROM t) sub WHERE x > 1`)
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := stmt.(*SelectStmt).From.(*SubqueryRef)
	if !ok || sub.Alias != "sub" {
		t.Errorf("subquery: %#v", stmt.(*SelectStmt).From)
	}
}

func TestParseInitializeOption(t *testing.T) {
	stmt, err := Parse(`CREATE DYNAMIC TABLE dt TARGET_LAG = '2 hours' WAREHOUSE = wh INITIALIZE = ON_SCHEDULE AS SELECT 1 AS x`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*CreateDynamicTableStmt).Initialize != "ON_SCHEDULE" {
		t.Error("INITIALIZE option")
	}
}

func TestParseAlterSystem(t *testing.T) {
	stmt, err := Parse(`ALTER SYSTEM SET REFRESH_WORKERS = 8`)
	if err != nil {
		t.Fatal(err)
	}
	sys, ok := stmt.(*AlterSystemStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if sys.Param != "REFRESH_WORKERS" || sys.Value != 8 {
		t.Errorf("parsed %+v", sys)
	}
	if _, err := Parse(`ALTER SYSTEM SET history_capacity = 2`); err != nil {
		t.Errorf("lower-case param should parse: %v", err)
	}
	if _, err := Parse(`ALTER SYSTEM SET REFRESH_WORKERS = 'four'`); err == nil {
		t.Error("non-integer value should fail")
	}
	if _, err := Parse(`ALTER SYSTEM REFRESH_WORKERS = 4`); err == nil {
		t.Error("missing SET should fail")
	}
}

func TestParseShow(t *testing.T) {
	stmt, err := Parse(`SHOW DYNAMIC TABLES`)
	if err != nil {
		t.Fatal(err)
	}
	if show, ok := stmt.(*ShowStmt); !ok || show.Kind != "DYNAMIC TABLES" {
		t.Fatalf("got %#v", stmt)
	}
	stmt, err = Parse(`show warehouses;`)
	if err != nil {
		t.Fatal(err)
	}
	if show, ok := stmt.(*ShowStmt); !ok || show.Kind != "WAREHOUSES" {
		t.Fatalf("got %#v", stmt)
	}
	if _, err := Parse(`SHOW TABLES`); err == nil {
		t.Error("SHOW TABLES is not supported and should fail")
	}
	if _, err := Parse(`SHOW DYNAMIC`); err == nil {
		t.Error("SHOW DYNAMIC without TABLES should fail")
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse(`EXPLAIN SELECT a FROM t WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*ExplainStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if _, ok := ex.Target.(*SelectStmt); !ok {
		t.Fatalf("target = %T", ex.Target)
	}

	stmt, err = Parse(`EXPLAIN CREATE DYNAMIC TABLE d TARGET_LAG = '5 minutes' WAREHOUSE = wh
		AS SELECT a, count(*) FROM t GROUP BY a`)
	if err != nil {
		t.Fatal(err)
	}
	ex = stmt.(*ExplainStmt)
	if _, ok := ex.Target.(*CreateDynamicTableStmt); !ok {
		t.Fatalf("target = %T", ex.Target)
	}

	if _, err := Parse(`EXPLAIN INSERT INTO t VALUES (1)`); err == nil {
		t.Error("EXPLAIN over DML should fail")
	}
	if _, err := Parse(`EXPLAIN DROP TABLE t`); err == nil {
		t.Error("EXPLAIN over DROP should fail")
	}
}

func TestParseExplainDynamicTable(t *testing.T) {
	stmt, err := Parse(`EXPLAIN DYNAMIC TABLE totals`)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*ExplainStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if ex.Target != nil || ex.DTName != "totals" {
		t.Fatalf("parsed %+v", ex)
	}
	if _, err := Parse(`EXPLAIN DYNAMIC totals`); err == nil {
		t.Error("EXPLAIN DYNAMIC without TABLE should fail")
	}
}

func TestParseAlterSetRefreshMode(t *testing.T) {
	for _, tc := range []struct {
		text string
		want RefreshMode
	}{
		{`ALTER DYNAMIC TABLE d SET REFRESH_MODE = FULL`, RefreshFull},
		{`ALTER DYNAMIC TABLE d SET REFRESH_MODE = incremental`, RefreshIncremental},
		{`ALTER DYNAMIC TABLE d SET REFRESH_MODE = AUTO`, RefreshAuto},
	} {
		stmt, err := Parse(tc.text)
		if err != nil {
			t.Fatalf("%s: %v", tc.text, err)
		}
		alter, ok := stmt.(*AlterStmt)
		if !ok {
			t.Fatalf("%s: got %T", tc.text, stmt)
		}
		if alter.Action != "SET_MODE" || alter.Mode == nil || *alter.Mode != tc.want {
			t.Errorf("%s: parsed %+v", tc.text, alter)
		}
	}
	if _, err := Parse(`ALTER DYNAMIC TABLE d SET REFRESH_MODE = SOMETIMES`); err == nil {
		t.Error("unknown mode should fail")
	}
	if _, err := Parse(`ALTER DYNAMIC TABLE d SET WAREHOUSE = wh`); err == nil {
		t.Error("SET of an unsupported property should fail")
	}
}

func TestParseQualifiedTableName(t *testing.T) {
	stmt, err := Parse(`SELECT dt_name FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY h WHERE h.action = 'FULL'`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	ref, ok := sel.From.(*TableRef)
	if !ok {
		t.Fatalf("from = %T", sel.From)
	}
	if ref.Name != "INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY" || ref.Alias != "h" {
		t.Fatalf("ref = %+v", ref)
	}
	// Joins between qualified names still parse.
	if _, err := Parse(`SELECT * FROM a.b x JOIN c.d y ON x.k = y.k`); err != nil {
		t.Fatal(err)
	}
}
