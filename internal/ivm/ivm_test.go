package ivm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"dyntables/internal/catalog"
	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/hlc"
	"dyntables/internal/ivm"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// harness wires storage tables to the binder and tracks version history so
// tests can differentiate over intervals.
type harness struct {
	t      *testing.T
	tables map[string]*storage.Table
	nextTS int64
	nextID int64
	ids    map[string]int64
	env    *ivm.Env
}

func newHarness(t *testing.T) *harness {
	return &harness{
		t:      t,
		tables: map[string]*storage.Table{},
		ids:    map[string]int64{},
		nextTS: 1,
		env:    &ivm.Env{Now: time.Date(2025, 4, 1, 12, 0, 0, 0, time.UTC)},
	}
}

func (h *harness) ts() hlc.Timestamp {
	h.nextTS++
	return hlc.Timestamp{WallMicros: h.nextTS}
}

func (h *harness) table(name string, cols string) *storage.Table {
	var schema types.Schema
	for _, c := range strings.Split(cols, ",") {
		parts := strings.Fields(strings.TrimSpace(c))
		kind, err := types.KindFromName(parts[1])
		if err != nil {
			h.t.Fatalf("bad kind: %v", err)
		}
		schema.Columns = append(schema.Columns, types.Column{Name: parts[0], Kind: kind})
	}
	tb := storage.NewTable(schema, h.ts())
	h.tables[strings.ToUpper(name)] = tb
	h.nextID++
	h.ids[strings.ToUpper(name)] = h.nextID
	return tb
}

// ResolveTable implements plan.Resolver.
func (h *harness) ResolveTable(name string) (*plan.Source, error) {
	key := strings.ToUpper(name)
	tb, ok := h.tables[key]
	if !ok {
		return nil, fmt.Errorf("no such table %q", name)
	}
	return &plan.Source{
		EntryID: h.ids[key], Name: name, Kind: catalog.KindTable, Table: tb,
	}, nil
}

func (h *harness) bind(query string) plan.Node {
	h.t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		h.t.Fatalf("parse: %v", err)
	}
	bound, err := plan.NewBinder(h).BindSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		h.t.Fatalf("bind: %v", err)
	}
	return plan.Optimize(bound.Plan)
}

// versions snapshots the current version of every table.
func (h *harness) versions() ivm.VersionMap {
	vm := ivm.VersionMap{}
	for _, tb := range h.tables {
		vm[tb.ID()] = int64(tb.VersionCount())
	}
	return vm
}

// insert applies an insert-only change set.
func (h *harness) insert(table string, rows ...types.Row) {
	h.t.Helper()
	tb := h.tables[strings.ToUpper(table)]
	var cs delta.ChangeSet
	for _, r := range rows {
		cs.AddInsert(tb.NextRowID(), r)
	}
	if _, err := tb.Apply(cs, h.ts()); err != nil {
		h.t.Fatal(err)
	}
}

// mutate applies an arbitrary change set builder against current contents.
func (h *harness) mutate(table string, f func(rows map[string]types.Row, cs *delta.ChangeSet)) {
	h.t.Helper()
	tb := h.tables[strings.ToUpper(table)]
	rows, err := tb.Rows(int64(tb.VersionCount()))
	if err != nil {
		h.t.Fatal(err)
	}
	var cs delta.ChangeSet
	f(rows, &cs)
	if _, err := tb.Apply(cs, h.ts()); err != nil {
		h.t.Fatal(err)
	}
}

// materialize turns executor output into a rowid-keyed map.
func materialize(rows []exec.TRow) map[string]types.Row {
	out := make(map[string]types.Row, len(rows))
	for _, tr := range rows {
		out[tr.ID] = tr.Row
	}
	return out
}

// applyDelta applies a change set to a materialized result, enforcing the
// §6.1 production invariants.
func applyDelta(t *testing.T, result map[string]types.Row, cs delta.ChangeSet) map[string]types.Row {
	t.Helper()
	if err := cs.ValidateWellFormed(); err != nil {
		t.Fatalf("change set ill-formed: %v", err)
	}
	out := make(map[string]types.Row, len(result))
	for id, r := range result {
		out[id] = r
	}
	for _, c := range cs.Changes {
		if c.Action == delta.Delete {
			if _, ok := out[c.RowID]; !ok {
				t.Fatalf("delta deletes nonexistent row %s (§6.1 invariant)", c.RowID)
			}
			delete(out, c.RowID)
		}
	}
	for _, c := range cs.Changes {
		if c.Action == delta.Insert {
			out[c.RowID] = c.Row
		}
	}
	return out
}

func renderSorted(rows map[string]types.Row) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, r.String())
	}
	sort.Strings(out)
	return out
}

// checkIncremental is the oracle: old result + Δ must equal the new full
// evaluation, both as multisets of rows and as rowid-keyed maps.
func (h *harness) checkIncremental(p plan.Node, from, to ivm.VersionMap) delta.ChangeSet {
	h.t.Helper()
	before, err := ivm.EvalAsOf(p, from, h.env)
	if err != nil {
		h.t.Fatalf("eval before: %v", err)
	}
	after, err := ivm.EvalAsOf(p, to, h.env)
	if err != nil {
		h.t.Fatalf("eval after: %v", err)
	}
	cs, err := ivm.Delta(p, ivm.Interval{From: from, To: to}, h.env)
	if err != nil {
		h.t.Fatalf("delta: %v", err)
	}
	got := applyDelta(h.t, materialize(before), cs)
	want := materialize(after)
	if len(got) != len(want) {
		h.t.Fatalf("incremental result has %d rows, full has %d\ngot: %v\nwant: %v\ndelta: %v",
			len(got), len(want), renderSorted(got), renderSorted(want), cs.Changes)
	}
	for id, row := range want {
		g, ok := got[id]
		if !ok {
			h.t.Fatalf("row %s missing from incremental result", id)
		}
		if !g.Equal(row) {
			h.t.Fatalf("row %s differs: incremental %v, full %v", id, g, row)
		}
	}
	return cs
}

func ints(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

// ---------------------------------------------------------------------------
// per-operator delta tests
// ---------------------------------------------------------------------------

func TestDeltaProjectFilter(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int")
	h.insert("t", ints(1, 10), ints(2, 20))
	p := h.bind(`SELECT a, b * 2 AS d FROM t WHERE a > 1`)
	v0 := h.versions()
	h.insert("t", ints(3, 30), ints(0, 5))
	h.mutate("t", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			if r[0].Int() == 2 {
				cs.AddDelete(id, r)
			}
		}
	})
	cs := h.checkIncremental(p, v0, h.versions())
	// The filtered-out insert (a=0) must not appear.
	for _, c := range cs.Changes {
		if c.Row[0].Int() == 0 {
			t.Errorf("filtered row leaked into delta: %v", c)
		}
	}
}

func TestDeltaInnerJoinBothSides(t *testing.T) {
	h := newHarness(t)
	h.table("o", "id int, cust int")
	h.table("c", "id int, tier int")
	h.insert("o", ints(1, 10), ints(2, 20))
	h.insert("c", ints(10, 1), ints(20, 2))
	p := h.bind(`SELECT o.id, c.tier FROM o JOIN c ON o.cust = c.id`)
	v0 := h.versions()

	// Change both sides in one interval.
	h.insert("o", ints(3, 10))
	h.insert("c", ints(30, 3))
	h.mutate("c", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			if r[0].Int() == 20 {
				cs.AddDelete(id, r)
				cs.AddInsert(id, types.Row{types.NewInt(20), types.NewInt(99)})
			}
		}
	})
	h.checkIncremental(p, v0, h.versions())
}

func TestDeltaLeftJoinNullExtensionAppears(t *testing.T) {
	h := newHarness(t)
	h.table("o", "id int, cust int")
	h.table("c", "id int, tier int")
	h.insert("o", ints(1, 10))
	h.insert("c", ints(10, 1))
	p := h.bind(`SELECT o.id, c.tier FROM o LEFT JOIN c ON o.cust = c.id`)
	v0 := h.versions()

	// Deleting the only matching customer converts the join row into a
	// null extension.
	h.mutate("c", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			cs.AddDelete(id, r)
		}
	})
	cs := h.checkIncremental(p, v0, h.versions())
	ins, del := cs.Counts()
	if ins != 1 || del != 1 {
		t.Errorf("expected 1 insert (null ext) + 1 delete (join row), got %d/%d: %v", ins, del, cs.Changes)
	}
}

func TestDeltaLeftJoinNullExtensionDisappears(t *testing.T) {
	h := newHarness(t)
	h.table("o", "id int, cust int")
	h.table("c", "id int, tier int")
	h.insert("o", ints(1, 10))
	p := h.bind(`SELECT o.id, c.tier FROM o LEFT JOIN c ON o.cust = c.id`)
	v0 := h.versions()
	// Inserting the matching customer removes the null extension.
	h.insert("c", ints(10, 1))
	h.checkIncremental(p, v0, h.versions())
}

func TestDeltaFullOuterJoin(t *testing.T) {
	h := newHarness(t)
	h.table("l", "k int, v int")
	h.table("r", "k int, w int")
	h.insert("l", ints(1, 100), ints(2, 200))
	h.insert("r", ints(2, 20), ints(3, 30))
	p := h.bind(`SELECT l.v, r.w FROM l FULL OUTER JOIN r ON l.k = r.k`)
	v0 := h.versions()

	h.insert("l", ints(3, 300)) // matches r's unmatched row
	h.mutate("r", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			if r[0].Int() == 2 {
				cs.AddDelete(id, r) // l.k=2 becomes unmatched
			}
		}
	})
	h.checkIncremental(p, v0, h.versions())
}

func TestDeltaRightJoin(t *testing.T) {
	h := newHarness(t)
	h.table("l", "k int, v int")
	h.table("r", "k int, w int")
	h.insert("l", ints(1, 100))
	h.insert("r", ints(1, 10), ints(2, 20))
	p := h.bind(`SELECT l.v, r.w FROM l RIGHT JOIN r ON l.k = r.k`)
	v0 := h.versions()
	h.insert("l", ints(2, 200))
	h.mutate("l", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			if r[0].Int() == 1 {
				cs.AddDelete(id, r)
			}
		}
	})
	h.checkIncremental(p, v0, h.versions())
}

func TestDeltaAggregate(t *testing.T) {
	h := newHarness(t)
	h.table("sales", "region int, amount int")
	h.insert("sales", ints(1, 10), ints(1, 20), ints(2, 5))
	p := h.bind(`SELECT region, count(*), sum(amount) FROM sales GROUP BY region`)
	v0 := h.versions()

	h.insert("sales", ints(1, 30), ints(3, 7)) // update group 1, create group 3
	h.mutate("sales", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			if r[0].Int() == 2 {
				cs.AddDelete(id, r) // group 2 disappears entirely
			}
		}
	})
	cs := h.checkIncremental(p, v0, h.versions())

	// Untouched groups must not appear in the delta at all.
	for _, c := range cs.Changes {
		if len(c.Row) > 0 && c.Row[0].Int() == 0 {
			t.Errorf("unexpected group in delta: %v", c)
		}
	}
}

func TestDeltaAggregateUntouchedGroupsAbsent(t *testing.T) {
	h := newHarness(t)
	h.table("sales", "region int, amount int")
	for r := int64(1); r <= 100; r++ {
		h.insert("sales", ints(r, r*10))
	}
	p := h.bind(`SELECT region, sum(amount) FROM sales GROUP BY region`)
	v0 := h.versions()
	h.insert("sales", ints(7, 1)) // touch exactly one group
	cs := h.checkIncremental(p, v0, h.versions())
	if cs.Len() != 2 { // delete old group-7 row + insert new one
		t.Errorf("delta should touch only group 7: %v", cs.Changes)
	}
	var st ivm.Stats
	h.env.Stats = &st
	_, err := ivm.Delta(p, ivm.Interval{From: v0, To: h.versions()}, h.env)
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsRecomputed != 1 {
		t.Errorf("GroupsRecomputed = %d, want 1", st.GroupsRecomputed)
	}
	h.env.Stats = nil
}

func TestDeltaCountIfListing1Shape(t *testing.T) {
	h := newHarness(t)
	h.table("arr", "train_id int, mins_late int")
	h.insert("arr", ints(7, 17), ints(7, 3), ints(9, 12))
	p := h.bind(`SELECT train_id, count_if(mins_late > 10) FROM arr GROUP BY train_id`)
	v0 := h.versions()
	h.insert("arr", ints(7, 25), ints(9, 1))
	h.checkIncremental(p, v0, h.versions())
}

func TestDeltaDistinct(t *testing.T) {
	h := newHarness(t)
	h.table("t", "v int")
	h.insert("t", ints(1), ints(1), ints(2))
	p := h.bind(`SELECT DISTINCT v FROM t`)
	v0 := h.versions()
	// Remove one duplicate of 1 (still present), remove 2 entirely, add 3.
	h.mutate("t", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		deleted1 := false
		for id, r := range rows {
			if r[0].Int() == 1 && !deleted1 {
				cs.AddDelete(id, r)
				deleted1 = true
			}
			if r[0].Int() == 2 {
				cs.AddDelete(id, r)
			}
		}
	})
	h.insert("t", ints(3))
	cs := h.checkIncremental(p, v0, h.versions())
	// 1 must NOT appear in the delta (a duplicate removal is invisible).
	for _, c := range cs.Changes {
		if c.Row[0].Int() == 1 {
			t.Errorf("distinct delta leaked duplicate removal: %v", c)
		}
	}
}

func TestDeltaUnionAll(t *testing.T) {
	h := newHarness(t)
	h.table("a", "v int")
	h.table("b", "v int")
	h.insert("a", ints(1))
	h.insert("b", ints(2))
	p := h.bind(`SELECT v FROM a UNION ALL SELECT v FROM b`)
	v0 := h.versions()
	h.insert("a", ints(3))
	h.mutate("b", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			cs.AddDelete(id, r)
		}
	})
	h.checkIncremental(p, v0, h.versions())
}

func TestDeltaWindowAffectedPartitionsOnly(t *testing.T) {
	h := newHarness(t)
	h.table("t", "grp int, v int")
	for g := int64(1); g <= 20; g++ {
		h.insert("t", ints(g, g*10), ints(g, g*10+1))
	}
	p := h.bind(`SELECT grp, v, row_number() OVER (PARTITION BY grp ORDER BY v) FROM t`)
	v0 := h.versions()
	h.insert("t", ints(5, 1)) // touches partition 5 only

	var st ivm.Stats
	h.env.Stats = &st
	cs := h.checkIncremental(p, v0, h.versions())
	h.env.Stats = nil

	if st.PartitionsRecomputed != 1 {
		t.Errorf("PartitionsRecomputed = %d, want 1", st.PartitionsRecomputed)
	}
	// All change rows belong to partition 5.
	for _, c := range cs.Changes {
		if c.Row[0].Int() != 5 {
			t.Errorf("delta touched partition %d: %v", c.Row[0].Int(), c)
		}
	}
}

func TestDeltaWindowCumulativeSum(t *testing.T) {
	h := newHarness(t)
	h.table("t", "grp int, v int")
	h.insert("t", ints(1, 1), ints(1, 3), ints(2, 5))
	p := h.bind(`SELECT grp, v, sum(v) OVER (PARTITION BY grp ORDER BY v) FROM t`)
	v0 := h.versions()
	h.insert("t", ints(1, 2)) // lands mid-partition, shifting cumulative sums
	h.checkIncremental(p, v0, h.versions())
}

func TestDeltaFlatten(t *testing.T) {
	h := newHarness(t)
	h.table("e", "id int, payload variant")
	doc := func(s string) types.Value {
		v, err := types.ParseVariant(s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	h.insert("e", types.Row{types.NewInt(1), doc(`{"items":["a","b"]}`)})
	p := h.bind(`SELECT e.id, f.value::text FROM e, LATERAL FLATTEN(e.payload:items) f`)
	v0 := h.versions()
	h.insert("e", types.Row{types.NewInt(2), doc(`{"items":["c"]}`)})
	h.mutate("e", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			if r[0].Int() == 1 {
				cs.AddDelete(id, r)
			}
		}
	})
	h.checkIncremental(p, v0, h.versions())
}

func TestDeltaEmptyIntervalIsEmpty(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int")
	h.insert("t", ints(1))
	p := h.bind(`SELECT a FROM t`)
	v := h.versions()
	cs, err := ivm.Delta(p, ivm.Interval{From: v, To: v}, h.env)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Empty() {
		t.Errorf("empty interval produced changes: %v", cs.Changes)
	}
}

func TestDeltaSourceOverwrittenError(t *testing.T) {
	h := newHarness(t)
	tb := h.table("t", "a int")
	h.insert("t", ints(1))
	p := h.bind(`SELECT a FROM t`)
	v0 := h.versions()
	if _, err := tb.Overwrite(map[string]types.Row{"x": ints(9)}, h.ts()); err != nil {
		t.Fatal(err)
	}
	_, err := ivm.Delta(p, ivm.Interval{From: v0, To: h.versions()}, h.env)
	if !errors.Is(err, ivm.ErrSourceOverwritten) {
		t.Fatalf("want ErrSourceOverwritten, got %v", err)
	}
}

func TestIncrementalizable(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int")
	ok := []string{
		`SELECT a FROM t WHERE a > 1`,
		`SELECT a, count(*) FROM t GROUP BY a`,
		`SELECT DISTINCT a FROM t`,
		`SELECT a, row_number() OVER (PARTITION BY a ORDER BY b) FROM t`,
		`SELECT a FROM t UNION ALL SELECT b FROM t`,
	}
	for _, q := range ok {
		if err := ivm.Incrementalizable(h.bind(q)); err != nil {
			t.Errorf("%s should be incrementalizable: %v", q, err)
		}
	}
	bad := []string{
		`SELECT count(*) FROM t`,                          // scalar aggregate (§3.3.2)
		`SELECT a, row_number() OVER (ORDER BY b) FROM t`, // unpartitioned window
		`SELECT a FROM t ORDER BY a`,
		`SELECT a FROM t LIMIT 5`,
	}
	for _, q := range bad {
		if err := ivm.Incrementalizable(h.bind(q)); err == nil {
			t.Errorf("%s should NOT be incrementalizable", q)
		}
	}
}

// ---------------------------------------------------------------------------
// outer-join strategy ablation (§5.5.1 / E12)
// ---------------------------------------------------------------------------

func TestOuterJoinStrategiesAgree(t *testing.T) {
	h := newHarness(t)
	h.table("a", "k int, v int")
	h.table("b", "k int, w int")
	h.table("c", "k int, x int")
	h.insert("a", ints(1, 10), ints(2, 20))
	h.insert("b", ints(1, 100), ints(3, 300))
	h.insert("c", ints(1, 1000))
	p := h.bind(`SELECT a.v, b.w, c.x FROM a LEFT JOIN b ON a.k = b.k LEFT JOIN c ON a.k = c.k`)
	v0 := h.versions()
	h.insert("a", ints(3, 30))
	h.insert("c", ints(2, 2000))
	v1 := h.versions()

	direct, err := ivm.Delta(p, ivm.Interval{From: v0, To: v1}, &ivm.Env{Now: h.env.Now})
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := ivm.Delta(p, ivm.Interval{From: v0, To: v1},
		&ivm.Env{Now: h.env.Now, ExpandOuterJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same net effect on a materialized result.
	before, _ := ivm.EvalAsOf(p, v0, h.env)
	got1 := applyDelta(t, materialize(before), direct)
	got2 := applyDelta(t, materialize(before), expanded)
	r1, r2 := renderSorted(got1), renderSorted(got2)
	if len(r1) != len(r2) {
		t.Fatalf("strategies disagree: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("row %d: %s vs %s", i, r1[i], r2[i])
		}
	}
}

func TestOuterJoinExpansionDuplicatesWork(t *testing.T) {
	h := newHarness(t)
	h.table("a", "k int, v int")
	h.table("b", "k int, v int")
	h.table("c", "k int, v int")
	h.table("d", "k int, v int")
	for _, name := range []string{"a", "b", "c", "d"} {
		h.insert(name, ints(1, 1), ints(2, 2))
	}
	p := h.bind(`SELECT a.v FROM a LEFT JOIN b ON a.k = b.k LEFT JOIN c ON a.k = c.k LEFT JOIN d ON a.k = d.k`)
	v0 := h.versions()
	h.insert("a", ints(3, 3))
	v1 := h.versions()

	var directStats, expandStats ivm.Stats
	if _, err := ivm.Delta(p, ivm.Interval{From: v0, To: v1},
		&ivm.Env{Now: h.env.Now, Stats: &directStats}); err != nil {
		t.Fatal(err)
	}
	if _, err := ivm.Delta(p, ivm.Interval{From: v0, To: v1},
		&ivm.Env{Now: h.env.Now, Stats: &expandStats, ExpandOuterJoins: true}); err != nil {
		t.Fatal(err)
	}
	if expandStats.SubplanDeltaEvals <= directStats.SubplanDeltaEvals {
		t.Errorf("expansion should duplicate subplan differentiation: direct=%d expanded=%d",
			directStats.SubplanDeltaEvals, expandStats.SubplanDeltaEvals)
	}
}

// ---------------------------------------------------------------------------
// randomized property test: the incremental/full oracle
// ---------------------------------------------------------------------------

func TestDeltaOracleRandomized(t *testing.T) {
	queries := []string{
		`SELECT a, b FROM t WHERE a % 3 = 0`,
		`SELECT t.a, u.b FROM t JOIN u ON t.a = u.a`,
		`SELECT t.a, u.b FROM t LEFT JOIN u ON t.a = u.a`,
		`SELECT t.b, count(*), sum(t.a) FROM t GROUP BY t.b`,
		`SELECT DISTINCT b FROM t`,
		`SELECT a FROM t UNION ALL SELECT a FROM u`,
		`SELECT a, b, row_number() OVER (PARTITION BY b ORDER BY a) FROM t`,
		`SELECT t.b, count_if(u.b > 2) FROM t JOIN u ON t.a = u.a GROUP BY t.b`,
	}
	rng := rand.New(rand.NewSource(42))
	for qi, q := range queries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			h := newHarness(t)
			h.table("t", "a int, b int")
			h.table("u", "a int, b int")
			for i := 0; i < 20; i++ {
				h.insert("t", ints(rng.Int63n(10), rng.Int63n(5)))
				h.insert("u", ints(rng.Int63n(10), rng.Int63n(5)))
			}
			p := h.bind(q)
			for round := 0; round < 5; round++ {
				v0 := h.versions()
				// Random mutation batch on both tables.
				for _, name := range []string{"t", "u"} {
					h.mutate(name, func(rows map[string]types.Row, cs *delta.ChangeSet) {
						tb := h.tables[strings.ToUpper(name)]
						for id, r := range rows {
							switch rng.Intn(6) {
							case 0:
								cs.AddDelete(id, r)
							case 1:
								cs.AddDelete(id, r)
								cs.AddInsert(id, ints(rng.Int63n(10), rng.Int63n(5)))
							}
						}
						for i := 0; i < rng.Intn(4); i++ {
							cs.AddInsert(tb.NextRowID(), ints(rng.Int63n(10), rng.Int63n(5)))
						}
					})
				}
				h.checkIncremental(p, v0, h.versions())
			}
		})
	}
}

// TestDeltaOverSkippedInterval exercises §3.3.3: a refresh that follows a
// skip differentiates over several source versions at once.
func TestDeltaOverSkippedInterval(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int")
	h.insert("t", ints(1, 1))
	p := h.bind(`SELECT b, sum(a) FROM t GROUP BY b`)
	v0 := h.versions()
	// Three separate commits before the next refresh.
	h.insert("t", ints(2, 1))
	h.insert("t", ints(3, 2))
	h.mutate("t", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			if r[0].Int() == 1 {
				cs.AddDelete(id, r)
			}
		}
	})
	h.checkIncremental(p, v0, h.versions())
}

func TestConsolidationElidedForInsertOnly(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int")
	h.table("u", "a int, b int")
	h.insert("t", ints(1, 1))
	h.insert("u", ints(1, 10))
	// Linear + inner-join plans skip consolidation on insert-only deltas.
	p := h.bind(`SELECT t.a, u.b FROM t JOIN u ON t.a = u.a WHERE t.b > 0`)
	v0 := h.versions()
	h.insert("t", ints(2, 2))
	h.insert("u", ints(2, 20))
	var st ivm.Stats
	h.env.Stats = &st
	cs := h.checkIncremental(p, v0, h.versions())
	h.env.Stats = nil
	if st.ConsolidationElided == 0 {
		t.Error("insert-only inner-join delta should skip consolidation (§5.5.2)")
	}
	if !cs.InsertOnly() {
		t.Errorf("delta should be insert-only: %v", cs.Changes)
	}

	// Aggregates always consolidate, even for insert-only source deltas.
	agg := h.bind(`SELECT t.b, count(*) FROM t GROUP BY t.b`)
	v1 := h.versions()
	h.insert("t", ints(3, 1))
	var st2 ivm.Stats
	h.env.Stats = &st2
	h.checkIncremental(agg, v1, h.versions())
	h.env.Stats = nil
	if st2.ConsolidationElided != 0 {
		t.Error("aggregate deltas must always consolidate")
	}

	// Deletions disable the elision even on safe plans.
	v2 := h.versions()
	h.mutate("t", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			if r[0].Int() == 1 {
				cs.AddDelete(id, r)
			}
		}
	})
	var st3 ivm.Stats
	h.env.Stats = &st3
	h.checkIncremental(p, v2, h.versions())
	h.env.Stats = nil
	if st3.ConsolidationElided != 0 {
		t.Error("deletes must force consolidation")
	}
}

func TestConsolidationFreeClassification(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int")
	free := []string{
		`SELECT a FROM t WHERE a > 0`,
		`SELECT t1.a FROM t t1 JOIN t t2 ON t1.a = t2.a`,
		`SELECT a FROM t UNION ALL SELECT b FROM t`,
	}
	for _, q := range free {
		if !ivm.ConsolidationFree(h.bind(q)) {
			t.Errorf("%s should be consolidation-free", q)
		}
	}
	bound := []string{
		`SELECT b, count(*) FROM t GROUP BY b`,
		`SELECT DISTINCT a FROM t`,
		`SELECT t1.a FROM t t1 LEFT JOIN t t2 ON t1.a = t2.a`,
		`SELECT a, row_number() OVER (PARTITION BY b ORDER BY a) FROM t`,
	}
	for _, q := range bound {
		if ivm.ConsolidationFree(h.bind(q)) {
			t.Errorf("%s must consolidate", q)
		}
	}
}

// ---------------------------------------------------------------------------
// oracle across operator shapes
// ---------------------------------------------------------------------------

// shapeQueries covers every rule that differentiates more than one
// subplan: join sides, outer-join boundary snapshots, union branches, and
// the recompute-affected-group boundary pairs.
var shapeQueries = []string{
	`SELECT f.k, f.v, d.name FROM facts f JOIN dims d ON f.k = d.k`,
	`SELECT f.k, d.name FROM facts f LEFT JOIN dims d ON f.k = d.k`,
	`SELECT f.k, d.name FROM facts f FULL JOIN dims d ON f.k = d.k`,
	`SELECT k, v FROM facts UNION ALL SELECT k, name FROM dims`,
	`SELECT k, count(*) c, sum(v) s FROM facts GROUP BY k`,
	`SELECT DISTINCT v FROM facts`,
	`SELECT k, v, row_number() OVER (PARTITION BY k ORDER BY v) rn FROM facts`,
	`SELECT a.k, a.v, b.v FROM facts a JOIN facts b ON a.k = b.k LEFT JOIN dims d ON a.v = d.k`,
}

func shapeHarness(t *testing.T) (*harness, ivm.VersionMap, ivm.VersionMap) {
	h := newHarness(t)
	h.table("facts", "k INT, v INT")
	h.table("dims", "k INT, name INT")
	for i := int64(0); i < 40; i++ {
		h.insert("facts", ints(i%7, i))
	}
	for i := int64(0); i < 7; i++ {
		h.insert("dims", ints(i, 100+i))
	}
	from := h.versions()
	h.insert("facts", ints(2, 999), ints(9, 1000))
	h.insert("dims", ints(9, 109))
	h.mutate("facts", func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			if r[1].Int() == 3 {
				cs.AddDelete(id, r)
			}
		}
	})
	return h, from, h.versions()
}

func TestDeltaOracleAcrossShapes(t *testing.T) {
	// The incremental oracle (old + Δ == new) must hold for every query
	// shape whose rule differentiates more than one subplan.
	for _, query := range shapeQueries {
		h, from, to := shapeHarness(t)
		p := h.bind(query)
		h.checkIncremental(p, from, to)
	}
}

func TestDeltaOverwrittenSourceErrors(t *testing.T) {
	// A source overwritten inside the interval must surface the
	// REINITIALIZE signal.
	h := newHarness(t)
	facts := h.table("facts", "k INT, v INT")
	h.table("dims", "k INT, name INT")
	h.insert("facts", ints(1, 1))
	h.insert("dims", ints(1, 100))
	from := h.versions()
	if _, err := facts.Overwrite(map[string]types.Row{"r1": ints(2, 2)}, h.ts()); err != nil {
		t.Fatal(err)
	}
	to := h.versions()
	p := h.bind(`SELECT f.k, d.name FROM facts f JOIN dims d ON f.k = d.k`)
	env := &ivm.Env{Now: h.env.Now}
	_, err := ivm.Delta(p, ivm.Interval{From: from, To: to}, env)
	if !errors.Is(err, ivm.ErrSourceOverwritten) {
		t.Errorf("err = %v, want ErrSourceOverwritten", err)
	}
}
