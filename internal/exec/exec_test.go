package exec_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"dyntables/internal/catalog"
	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/hlc"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// harness wires a fake catalog of storage tables to the binder and
// executor.
type harness struct {
	t       testing.TB
	tables  map[string]*storage.Table
	views   map[string]string
	nextTS  int64
	entryID int64
	ids     map[string]int64
}

func newHarness(t testing.TB) *harness {
	return &harness{
		t:      t,
		tables: map[string]*storage.Table{},
		views:  map[string]string{},
		nextTS: 1,
		ids:    map[string]int64{},
	}
}

func (h *harness) ts() hlc.Timestamp {
	h.nextTS++
	return hlc.Timestamp{WallMicros: h.nextTS}
}

// table creates a table with columns "name kind" and inserts the rows.
func (h *harness) table(name string, cols string, rows ...types.Row) *storage.Table {
	var schema types.Schema
	for _, c := range strings.Split(cols, ",") {
		parts := strings.Fields(strings.TrimSpace(c))
		kind, err := types.KindFromName(parts[1])
		if err != nil {
			h.t.Fatalf("bad kind %q: %v", parts[1], err)
		}
		schema.Columns = append(schema.Columns, types.Column{Name: parts[0], Kind: kind})
	}
	tb := storage.NewTable(schema, h.ts())
	if len(rows) > 0 {
		var cs delta.ChangeSet
		for _, r := range rows {
			cs.AddInsert(tb.NextRowID(), r)
		}
		if _, err := tb.Apply(cs, h.ts()); err != nil {
			h.t.Fatalf("seed %s: %v", name, err)
		}
	}
	h.tables[strings.ToUpper(name)] = tb
	h.entryID++
	h.ids[strings.ToUpper(name)] = h.entryID
	return tb
}

func (h *harness) view(name, query string) {
	h.views[strings.ToUpper(name)] = query
	h.entryID++
	h.ids[strings.ToUpper(name)] = h.entryID
}

// ResolveTable implements plan.Resolver.
func (h *harness) ResolveTable(name string) (*plan.Source, error) {
	key := strings.ToUpper(name)
	if viewSQL, ok := h.views[key]; ok {
		return &plan.Source{
			EntryID: h.ids[key], Name: name, Kind: catalog.KindView, ViewSQL: viewSQL,
		}, nil
	}
	tb, ok := h.tables[key]
	if !ok {
		return nil, fmt.Errorf("no such table %q", name)
	}
	return &plan.Source{
		EntryID: h.ids[key], Name: name, Kind: catalog.KindTable, Table: tb,
	}, nil
}

// run parses, binds, optimizes and executes a SELECT.
func (h *harness) run(query string) []exec.TRow {
	h.t.Helper()
	rows, err := h.tryRun(query)
	if err != nil {
		h.t.Fatalf("run %q: %v", query, err)
	}
	return rows
}

func (h *harness) tryRun(query string) ([]exec.TRow, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a select: %T", stmt)
	}
	bound, err := plan.NewBinder(h).BindSelect(sel)
	if err != nil {
		return nil, err
	}
	p := plan.Optimize(bound.Plan)
	ctx := &exec.Context{
		RowsOf: func(s *plan.Scan) (map[string]types.Row, error) {
			return s.Table.Rows(int64(s.Table.VersionCount()))
		},
		Now: time.Date(2025, 4, 1, 12, 0, 0, 0, time.UTC),
	}
	return exec.Run(p, ctx)
}

// sortedRender renders rows sorted for comparison.
func sortedRender(rows []exec.TRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Row.String()
	}
	sort.Strings(out)
	return out
}

func expectRows(t *testing.T, rows []exec.TRow, want ...string) {
	t.Helper()
	got := sortedRender(rows)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func ints(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

func TestProjectFilter(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int", ints(1, 10), ints(2, 20), ints(3, 30))
	rows := h.run(`SELECT a, b * 2 AS dbl FROM t WHERE a >= 2`)
	expectRows(t, rows, "[2, 40]", "[3, 60]")
}

func TestRowIDsPreservedThroughFilterProject(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int", ints(1), ints(2))
	rows := h.run(`SELECT a + 1 FROM t WHERE a > 0`)
	for _, r := range rows {
		if !strings.HasPrefix(r.ID, "t") {
			t.Errorf("row ID should be the base-table ID, got %q", r.ID)
		}
	}
}

func TestInnerJoin(t *testing.T) {
	h := newHarness(t)
	h.table("orders", "id int, cust int", ints(1, 10), ints(2, 20), ints(3, 99))
	h.table("customers", "id int, tier int", ints(10, 1), ints(20, 2))
	rows := h.run(`SELECT o.id, c.tier FROM orders o JOIN customers c ON o.cust = c.id`)
	expectRows(t, rows, "[1, 1]", "[2, 2]")
}

func TestLeftJoinNullExtension(t *testing.T) {
	h := newHarness(t)
	h.table("orders", "id int, cust int", ints(1, 10), ints(3, 99))
	h.table("customers", "id int, tier int", ints(10, 1))
	rows := h.run(`SELECT o.id, c.tier FROM orders o LEFT JOIN customers c ON o.cust = c.id`)
	expectRows(t, rows, "[1, 1]", "[3, NULL]")
}

func TestRightAndFullJoin(t *testing.T) {
	h := newHarness(t)
	h.table("l", "k int, v int", ints(1, 100), ints(2, 200))
	h.table("r", "k int, w int", ints(2, 20), ints(3, 30))
	rows := h.run(`SELECT l.v, r.w FROM l RIGHT JOIN r ON l.k = r.k`)
	expectRows(t, rows, "[200, 20]", "[NULL, 30]")
	rows = h.run(`SELECT l.v, r.w FROM l FULL OUTER JOIN r ON l.k = r.k`)
	expectRows(t, rows, "[100, NULL]", "[200, 20]", "[NULL, 30]")
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	h := newHarness(t)
	h.table("l", "k int", types.Row{types.Null}, ints(1))
	h.table("r", "k int", types.Row{types.Null}, ints(1))
	rows := h.run(`SELECT l.k, r.k FROM l JOIN r ON l.k = r.k`)
	expectRows(t, rows, "[1, 1]")
	// Under LEFT JOIN the null-keyed left row survives null-extended.
	rows = h.run(`SELECT l.k, r.k FROM l LEFT JOIN r ON l.k = r.k`)
	expectRows(t, rows, "[1, 1]", "[NULL, NULL]")
}

func TestGroupByAggregates(t *testing.T) {
	h := newHarness(t)
	h.table("sales", "region int, amount int",
		ints(1, 10), ints(1, 20), ints(2, 5), ints(2, 7), ints(2, 9))
	rows := h.run(`SELECT region, count(*), sum(amount), min(amount), max(amount) FROM sales GROUP BY region`)
	expectRows(t, rows, "[1, 2, 30, 10, 20]", "[2, 3, 21, 5, 9]")
}

func TestGroupByAll(t *testing.T) {
	h := newHarness(t)
	h.table("sales", "region int, amount int", ints(1, 10), ints(1, 20), ints(2, 5))
	rows := h.run(`SELECT region, sum(amount) FROM sales GROUP BY ALL`)
	expectRows(t, rows, "[1, 30]", "[2, 5]")
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	h := newHarness(t)
	h.table("empty", "a int")
	rows := h.run(`SELECT count(*), sum(a) FROM empty`)
	expectRows(t, rows, "[0, NULL]")
}

func TestCountIfAndAvg(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int", ints(1), ints(2), ints(3), ints(4))
	rows := h.run(`SELECT count_if(v > 2), avg(v) FROM t`)
	expectRows(t, rows, "[2, 2.5]")
}

func TestCountDistinct(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int", ints(1), ints(1), ints(2), ints(2), ints(3))
	rows := h.run(`SELECT count(DISTINCT v) FROM t`)
	expectRows(t, rows, "[3]")
}

func TestAggregateSkipsNulls(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int", ints(1), types.Row{types.Null}, ints(3))
	rows := h.run(`SELECT count(*), count(v), sum(v) FROM t`)
	expectRows(t, rows, "[3, 2, 4]")
}

func TestHaving(t *testing.T) {
	h := newHarness(t)
	h.table("sales", "region int, amount int",
		ints(1, 10), ints(1, 20), ints(2, 5))
	rows := h.run(`SELECT region, count(*) FROM sales GROUP BY region HAVING count(*) > 1`)
	expectRows(t, rows, "[1, 2]")
}

func TestGroupByExpressionMatching(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int", ints(5), ints(15), ints(25))
	// The select item repeats the group expression (v / 10 truncated via floor).
	rows := h.run(`SELECT floor(v / 10), count(*) FROM t GROUP BY floor(v / 10)`)
	expectRows(t, rows, "[0, 1]", "[1, 1]", "[2, 1]")
}

func TestUngroupedColumnRejected(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int", ints(1, 2))
	if _, err := h.tryRun(`SELECT a, b, count(*) FROM t GROUP BY a`); err == nil {
		t.Error("ungrouped column must be rejected")
	}
}

func TestWindowRowNumberAndRank(t *testing.T) {
	h := newHarness(t)
	h.table("t", "grp int, v int",
		ints(1, 30), ints(1, 10), ints(1, 20), ints(2, 5), ints(2, 5))
	rows := h.run(`SELECT grp, v, row_number() OVER (PARTITION BY grp ORDER BY v) FROM t`)
	expectRows(t, rows,
		"[1, 10, 1]", "[1, 20, 2]", "[1, 30, 3]", "[2, 5, 1]", "[2, 5, 2]")

	rows = h.run(`SELECT grp, v, rank() OVER (PARTITION BY grp ORDER BY v) FROM t`)
	expectRows(t, rows,
		"[1, 10, 1]", "[1, 20, 2]", "[1, 30, 3]", "[2, 5, 1]", "[2, 5, 1]")
}

func TestWindowCumulativeSum(t *testing.T) {
	h := newHarness(t)
	h.table("t", "grp int, v int", ints(1, 1), ints(1, 2), ints(1, 3))
	rows := h.run(`SELECT v, sum(v) OVER (PARTITION BY grp ORDER BY v) FROM t`)
	expectRows(t, rows, "[1, 1]", "[2, 3]", "[3, 6]")
	// Without ORDER BY: whole-partition aggregate.
	rows = h.run(`SELECT v, sum(v) OVER (PARTITION BY grp) FROM t`)
	expectRows(t, rows, "[1, 6]", "[2, 6]", "[3, 6]")
}

func TestWindowLagLead(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int", ints(1), ints(2), ints(3))
	rows := h.run(`SELECT v, lag(v) OVER (ORDER BY v), lead(v) OVER (ORDER BY v) FROM t`)
	expectRows(t, rows, "[1, NULL, 2]", "[2, 1, 3]", "[3, 2, NULL]")
}

func TestWindowOverAggregate(t *testing.T) {
	h := newHarness(t)
	h.table("sales", "region int, amount int",
		ints(1, 10), ints(1, 20), ints(2, 5))
	// rank regions by their total.
	rows := h.run(`SELECT region, sum(amount) total, rank() OVER (ORDER BY sum(amount) DESC) FROM sales GROUP BY region`)
	expectRows(t, rows, "[1, 30, 1]", "[2, 5, 2]")
}

func TestUnionAll(t *testing.T) {
	h := newHarness(t)
	h.table("a", "v int", ints(1), ints(2))
	h.table("b", "v int", ints(2), ints(3))
	rows := h.run(`SELECT v FROM a UNION ALL SELECT v FROM b`)
	expectRows(t, rows, "[1]", "[2]", "[2]", "[3]")
	// IDs are branch-tagged and unique.
	ids := map[string]bool{}
	for _, r := range rows {
		if ids[r.ID] {
			t.Errorf("duplicate union row ID %q", r.ID)
		}
		ids[r.ID] = true
	}
}

func TestDistinct(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int", ints(1), ints(1), ints(2))
	rows := h.run(`SELECT DISTINCT v FROM t`)
	expectRows(t, rows, "[1]", "[2]")
}

func TestOrderByAndLimit(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int", ints(3), ints(1), ints(2))
	rows := h.run(`SELECT v FROM t ORDER BY v DESC LIMIT 2`)
	if len(rows) != 2 || rows[0].Row[0].Int() != 3 || rows[1].Row[0].Int() != 2 {
		t.Errorf("order/limit: %v", sortedRender(rows))
	}
}

func TestVariantPathAndFlatten(t *testing.T) {
	h := newHarness(t)
	payload := func(doc string) types.Value {
		v, err := types.ParseVariant(doc)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	h.table("events", "id int, payload variant",
		types.Row{types.NewInt(1), payload(`{"items": ["a", "b"], "n": 5}`)},
		types.Row{types.NewInt(2), payload(`{"items": [], "n": 7}`)},
	)
	rows := h.run(`SELECT id, payload:n::int FROM events`)
	expectRows(t, rows, "[1, 5]", "[2, 7]")

	rows = h.run(`SELECT e.id, f.value::text, f.index FROM events e, LATERAL FLATTEN(input => e.payload:items) f`)
	expectRows(t, rows, "[1, a, 0]", "[1, b, 1]")
}

func TestListing1EndToEnd(t *testing.T) {
	h := newHarness(t)
	payload := func(doc string) types.Value {
		v, err := types.ParseVariant(doc)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	h.table("trains", "id int, name text",
		types.Row{types.NewInt(7), types.NewString("Express")})
	h.table("train_events", "type text, payload variant",
		types.Row{types.NewString("ARRIVAL"), payload(`{"train_id": 7, "time": "2025-04-01 10:17:00", "schedule_id": 3}`)},
		types.Row{types.NewString("DEPARTURE"), payload(`{"train_id": 7, "time": "2025-04-01 10:30:00", "schedule_id": 3}`)},
	)
	h.table("schedule", "id int, expected_arrival_time timestamp",
		types.Row{types.NewInt(3), types.NewTimestamp(time.Date(2025, 4, 1, 10, 0, 0, 0, time.UTC))})

	// The train_arrivals defining query from Listing 1.
	arrivals := h.run(`SELECT
		t.id train_id,
		e.payload:time::timestamp arrival_time,
		e.payload:schedule_id::int schedule_id
	FROM train_events e
	JOIN trains t ON e.payload:train_id::int = t.id
	WHERE e.type = 'ARRIVAL'`)
	if len(arrivals) != 1 {
		t.Fatalf("arrivals: %v", sortedRender(arrivals))
	}

	// The delayed_trains defining query, over a view standing in for the
	// upstream DT.
	h.view("train_arrivals", `SELECT
		t.id train_id,
		e.payload:time::timestamp arrival_time,
		e.payload:schedule_id::int schedule_id
	FROM train_events e
	JOIN trains t ON e.payload:train_id::int = t.id
	WHERE e.type = 'ARRIVAL'`)

	delayed := h.run(`SELECT train_id,
		date_trunc(hour, s.expected_arrival_time) hour,
		count_if(arrival_time - s.expected_arrival_time > '10 minutes') num_delays
	FROM train_arrivals a
	JOIN schedule s ON a.schedule_id = s.id
	GROUP BY ALL`)
	if len(delayed) != 1 {
		t.Fatalf("delayed: %v", sortedRender(delayed))
	}
	row := delayed[0].Row
	if row[0].Int() != 7 {
		t.Errorf("train_id: %v", row[0])
	}
	if row[2].Int() != 1 {
		t.Errorf("num_delays: %v (arrival 10:17 vs expected 10:00 is >10m late)", row[2])
	}
}

func TestViewExpansion(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int", ints(1), ints(2), ints(3))
	h.view("big", `SELECT a FROM t WHERE a > 1`)
	rows := h.run(`SELECT a FROM big WHERE a < 3`)
	expectRows(t, rows, "[2]")
}

func TestNestedViews(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int", ints(1), ints(2), ints(3), ints(4))
	h.view("v1", `SELECT a FROM t WHERE a > 1`)
	h.view("v2", `SELECT a FROM v1 WHERE a < 4`)
	rows := h.run(`SELECT a FROM v2`)
	expectRows(t, rows, "[2]", "[3]")
}

func TestViewCycleDetected(t *testing.T) {
	h := newHarness(t)
	h.view("v1", `SELECT a FROM v2`)
	h.view("v2", `SELECT a FROM v1`)
	if _, err := h.tryRun(`SELECT * FROM v1`); err == nil {
		t.Error("view cycle must be detected")
	}
}

func TestSubquery(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int", ints(1, 10), ints(2, 20))
	rows := h.run(`SELECT x FROM (SELECT a + b AS x FROM t) sub WHERE x > 15`)
	expectRows(t, rows, "[22]")
}

func TestCaseExpression(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int", ints(1), ints(5), ints(10))
	rows := h.run(`SELECT CASE WHEN v >= 10 THEN 'high' WHEN v >= 5 THEN 'mid' ELSE 'low' END FROM t`)
	expectRows(t, rows, "[low]", "[mid]", "[high]")
}

func TestThreeValuedLogic(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int", ints(1), types.Row{types.Null})
	// NULL > 0 is NULL, which filters out.
	rows := h.run(`SELECT v FROM t WHERE v > 0`)
	expectRows(t, rows, "[1]")
	rows = h.run(`SELECT v FROM t WHERE v IS NULL`)
	expectRows(t, rows, "[NULL]")
	rows = h.run(`SELECT v FROM t WHERE v > 0 OR v IS NULL`)
	expectRows(t, rows, "[1]", "[NULL]")
}

func TestDivisionByZeroErrors(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int", ints(0))
	if _, err := h.tryRun(`SELECT 1 / v FROM t`); err == nil {
		t.Error("division by zero must error (it fails refreshes, §3.3.3)")
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	h := newHarness(t)
	h.table("a", "id int", ints(1))
	h.table("b", "id int", ints(1))
	if _, err := h.tryRun(`SELECT id FROM a JOIN b ON a.id = b.id`); err == nil {
		t.Error("ambiguous column must be rejected")
	}
}

func TestUnknownColumnAndTable(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int", ints(1))
	if _, err := h.tryRun(`SELECT nope FROM t`); err == nil {
		t.Error("unknown column")
	}
	if _, err := h.tryRun(`SELECT a FROM missing`); err == nil {
		t.Error("unknown table")
	}
}

func TestSelectStar(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int", ints(1, 2))
	rows := h.run(`SELECT * FROM t`)
	expectRows(t, rows, "[1, 2]")
	h.table("u", "c int", ints(9))
	rows = h.run(`SELECT u.*, t.a FROM t JOIN u ON true`)
	expectRows(t, rows, "[9, 1]")
}

func TestIntervalComparisonCoercion(t *testing.T) {
	h := newHarness(t)
	base := time.Date(2025, 4, 1, 10, 0, 0, 0, time.UTC)
	h.table("t", "a timestamp, b timestamp",
		types.Row{types.NewTimestamp(base.Add(15 * time.Minute)), types.NewTimestamp(base)},
		types.Row{types.NewTimestamp(base.Add(5 * time.Minute)), types.NewTimestamp(base)},
	)
	rows := h.run(`SELECT a - b FROM t WHERE a - b > '10 minutes'`)
	if len(rows) != 1 {
		t.Fatalf("interval filter: %v", sortedRender(rows))
	}
	if rows[0].Row[0].Interval() != 15*time.Minute {
		t.Errorf("interval value: %v", rows[0].Row[0])
	}
}

func TestAggregateRowIDsStableAcrossRuns(t *testing.T) {
	h := newHarness(t)
	h.table("t", "grp int, v int", ints(1, 10), ints(2, 20))
	first := h.run(`SELECT grp, sum(v) FROM t GROUP BY grp`)
	second := h.run(`SELECT grp, sum(v) FROM t GROUP BY grp`)
	ids := func(rows []exec.TRow) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.ID
		}
		sort.Strings(out)
		return out
	}
	a, b := ids(first), ids(second)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("aggregate row IDs must be stable: %v vs %v", a, b)
		}
	}
	for _, id := range a {
		if !strings.HasPrefix(id, "g:") {
			t.Errorf("aggregate row ID must carry plaintext prefix: %q", id)
		}
	}
	// Durable DTs store these IDs, so they are pinned literally: a
	// grouping change that moves them breaks existing data directories.
	for _, c := range []struct{ query, id, row string }{
		{`SELECT grp, sum(v) FROM t WHERE grp = 1 GROUP BY grp`, "g:529a2ddc8ff5355f", "[1, 10]"},
		{`SELECT DISTINCT grp, v FROM t WHERE grp = 2`, "d:6c9e0ef56f8d4405", "[2, 20]"},
	} {
		rows := h.run(c.query)
		if len(rows) != 1 || rows[0].ID != c.id || rows[0].Row.String() != c.row {
			t.Errorf("%s: got %v, want one row %s with ID %s", c.query, rows, c.row, c.id)
		}
	}
}

func TestOptimizerPushesFilterBelowJoin(t *testing.T) {
	h := newHarness(t)
	h.table("l", "k int, v int", ints(1, 1))
	h.table("r", "k int, w int", ints(1, 2))
	stmt, err := sql.Parse(`SELECT l.v FROM l JOIN r ON l.k = r.k WHERE l.v > 0 AND r.w > 0`)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := plan.NewBinder(h).BindSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	optimized := plan.Optimize(bound.Plan)
	explain := plan.Explain(optimized)
	// After pushdown, filters sit beneath the join (the join's children
	// include Filter nodes) and no filter sits directly above it.
	lines := strings.Split(strings.TrimSpace(explain), "\n")
	joinDepth, filterAboveJoin := -1, false
	for _, line := range lines {
		depth := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		switch {
		case strings.Contains(line, "Join["):
			joinDepth = depth
		case strings.Contains(line, "Filter") && joinDepth == -1:
			filterAboveJoin = true
		}
	}
	if filterAboveJoin {
		t.Errorf("filter should be pushed below the join:\n%s", explain)
	}
	// Both join inputs must be filtered.
	if strings.Count(explain, "Filter") < 2 {
		t.Errorf("expected filters on both join inputs:\n%s", explain)
	}
	// Results stay correct.
	rows := h.run(`SELECT l.v FROM l JOIN r ON l.k = r.k WHERE l.v > 0 AND r.w > 0`)
	expectRows(t, rows, "[1]")
}

func TestConstantFolding(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int", ints(1))
	stmt, _ := sql.Parse(`SELECT a + (1 + 2) * 3 FROM t`)
	bound, err := plan.NewBinder(h).BindSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	optimized := plan.Optimize(bound.Plan)
	proj := optimized.(*plan.Project)
	bin, ok := proj.Exprs[0].(*plan.BinOp)
	if !ok {
		t.Fatalf("expr: %T", proj.Exprs[0])
	}
	if lit, ok := bin.R.(*plan.Lit); !ok || lit.Val.Int() != 9 {
		t.Errorf("constant (1+2)*3 should fold to 9: %v", bin.R)
	}
}

func TestDependencyTracking(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int", ints(1))
	h.view("v", `SELECT a FROM t`)
	stmt, _ := sql.Parse(`SELECT a FROM v`)
	bound, err := plan.NewBinder(h).BindSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	// Both the view and the underlying table are dependencies.
	if len(bound.Deps) != 2 {
		t.Errorf("deps: %v", bound.Deps)
	}
}

func TestCoalesceIffFunctions(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int", ints(1), types.Row{types.Null})
	rows := h.run(`SELECT coalesce(a, 0), iff(a IS NULL, 'missing', 'present') FROM t`)
	expectRows(t, rows, "[1, present]", "[0, missing]")
}

func TestSelectWithoutFrom(t *testing.T) {
	h := newHarness(t)
	rows := h.run(`SELECT 1 + 1, 'x'`)
	expectRows(t, rows, "[2, x]")
}
