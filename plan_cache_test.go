package dyntables

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dyntables/internal/core"
)

// The controller binds a DT's defining query once and keeps the plan until
// a DDL statement commits or a scanned table's schema moves. The tests
// below each change what the query resolves to in one of those ways and
// check that the next refresh reads the new resolution, not the kept plan.

// schedulerPass advances virtual time by a one-minute target lag, which
// runs the scheduler ticks due on the way, and runs one more scheduler
// pass, returning its error.
func schedulerPass(e *Engine) error {
	e.AdvanceTime(time.Minute)
	return e.RunScheduler()
}

func mustPass(t *testing.T, e *Engine) {
	t.Helper()
	if err := schedulerPass(e); err != nil {
		t.Fatal(err)
	}
}

func lastRecord(t *testing.T, dt *core.DynamicTable) core.RefreshRecord {
	t.Helper()
	rec, ok := dt.LastRecord()
	if !ok {
		t.Fatalf("%s has no refresh record", dt.Name)
	}
	return rec
}

// recordsAfter returns dt's refresh records numbered after seq.
func recordsAfter(dt *core.DynamicTable, seq int64) []core.RefreshRecord {
	var out []core.RefreshRecord
	for _, rec := range dt.History() {
		if rec.Seq > seq {
			out = append(out, rec)
		}
	}
	return out
}

// wantBindErrors checks that dt refreshed after seq, and that each of
// those refreshes failed because its defining query did not bind.
func wantBindErrors(t *testing.T, dt *core.DynamicTable, seq int64, what string) {
	t.Helper()
	recs := recordsAfter(dt, seq)
	if len(recs) == 0 {
		t.Fatalf("%s: %s did not refresh", what, dt.Name)
	}
	for _, rec := range recs {
		if rec.Action != core.ActionError || rec.Err == nil || !strings.Contains(rec.Err.Error(), "does not exist") {
			t.Fatalf("%s: refresh of %s is %s (%v), want a bind error", what, dt.Name, rec.Action, rec.Err)
		}
	}
}

func TestPlanCacheReplacedViewRebinds(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1), (7)`)
	e.MustExec(`CREATE VIEW v AS SELECT a FROM t WHERE a > 0`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM v`)
	e.MustExec(`INSERT INTO t VALUES (9)`)
	mustPass(t, e)
	expectQuery(t, e, `SELECT a FROM d`, "[1]", "[7]", "[9]")

	e.MustExec(`CREATE OR REPLACE VIEW v AS SELECT a FROM t WHERE a > 5`)
	mustPass(t, e)
	expectQuery(t, e, `SELECT a FROM d`, "[7]", "[9]")
	if err := e.CheckDVS("d"); err != nil {
		t.Fatal(err)
	}
}

func TestPlanCacheReplacedTableReinitializes(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT * FROM t`)
	dt := mustDT(t, e, "d")
	mark := lastRecord(t, dt).Seq
	e.MustExec(`INSERT INTO t VALUES (2)`)
	mustPass(t, e)
	if recs := recordsAfter(dt, mark); len(recs) == 0 || recs[0].Action != core.ActionIncremental {
		t.Fatalf("refreshes before the replace are %+v, want INCREMENTAL first", recs)
	}

	mark = lastRecord(t, dt).Seq
	e.MustExec(`CREATE OR REPLACE TABLE t (a INT, b INT)`)
	e.MustExec(`INSERT INTO t VALUES (3, 30)`)
	mustPass(t, e)
	if recs := recordsAfter(dt, mark); len(recs) == 0 || recs[0].Action != core.ActionReinitialize {
		t.Fatalf("refreshes after the replace are %+v, want REINITIALIZE first", recs)
	}
	expectQuery(t, e, `SELECT a, b FROM d`, "[3 30]")
	if err := e.CheckDVS("d"); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheUpstreamSchemaEvolves covers the case no DDL sequence
// catches: down's plan is bound after the view replace, while up still
// has its old output schema; up then reinitializes with a new schema, and
// no DDL touches down.
func TestPlanCacheUpstreamSchemaEvolves(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT, b INT)`)
	e.MustExec(`INSERT INTO t VALUES (1, 10)`)
	e.MustExec(`CREATE VIEW v AS SELECT a FROM t`)
	e.MustExec(`CREATE DYNAMIC TABLE up TARGET_LAG = DOWNSTREAM WAREHOUSE = wh AS SELECT * FROM v`)
	e.MustExec(`CREATE DYNAMIC TABLE down TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT * FROM up`)
	expectQuery(t, e, `SELECT * FROM down`, "[1]")

	e.MustExec(`CREATE OR REPLACE VIEW v AS SELECT a, b FROM t`)
	down := mustDT(t, e, "down")
	if _, err := e.ctrl.Upstreams(down); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("down"); err != nil {
		t.Fatal(err)
	}
	if got := mustDT(t, e, "up").Storage.Schema().String(); !strings.EqualFold(got, "(a INT, b INT)") {
		t.Fatalf("up's schema after its reinitialization is %s", got)
	}
	if rec := lastRecord(t, down); rec.Action != core.ActionReinitialize {
		t.Fatalf("down's refresh after up's schema change is %s, want REINITIALIZE", rec.Action)
	}
	expectQuery(t, e, `SELECT a, b FROM down`, "[1 10]")
	if err := e.CheckDVS("down"); err != nil {
		t.Fatal(err)
	}
}

func TestPlanCacheRenameAndSwapUpstream(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE blue (a INT)`)
	e.MustExec(`CREATE TABLE green (a INT)`)
	e.MustExec(`INSERT INTO blue VALUES (1)`)
	e.MustExec(`INSERT INTO green VALUES (100)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM blue`)
	dt := mustDT(t, e, "d")

	mark := lastRecord(t, dt).Seq
	e.MustExec(`ALTER TABLE blue RENAME TO teal`)
	_ = schedulerPass(e)
	wantBindErrors(t, dt, mark, "after RENAME")

	e.MustExec(`ALTER TABLE teal RENAME TO blue`)
	e.MustExec(`INSERT INTO blue VALUES (2)`)
	mustPass(t, e)
	expectQuery(t, e, `SELECT a FROM d`, "[1]", "[2]")

	e.MustExec(`ALTER TABLE blue SWAP WITH green`)
	mustPass(t, e)
	expectQuery(t, e, `SELECT a FROM d`, "[100]")
	if err := e.CheckDVS("d"); err != nil {
		t.Fatal(err)
	}
}

func TestPlanCacheDropUndropUpstream(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM t`)
	dt := mustDT(t, e, "d")
	for round := 0; round < 2; round++ {
		e.MustExec(`DROP TABLE t`)
		for i := 0; i < 2; i++ {
			mark := lastRecord(t, dt).Seq
			_ = schedulerPass(e)
			wantBindErrors(t, dt, mark, fmt.Sprintf("DROP %d, pass %d", round, i))
		}
		e.MustExec(`UNDROP TABLE t`)
		e.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, round+2))
		mustPass(t, e)
		if rec := lastRecord(t, dt); rec.Action == core.ActionError {
			t.Fatalf("UNDROP %d: refresh still fails: %v", round, rec.Err)
		}
	}
	expectQuery(t, e, `SELECT a FROM d`, "[1]", "[2]", "[3]")
}

// TestPlanCacheKeepsNoBindError replaces down's upstream with a DT that is
// not initialized yet, so down's query does not bind. The upstream then
// initializes on schedule, with no DDL: down must bind again rather than
// keep the error.
func TestPlanCacheKeepsNoBindError(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE up TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM t`)
	e.MustExec(`CREATE DYNAMIC TABLE down TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM up`)
	e.MustExec(`CREATE OR REPLACE DYNAMIC TABLE up TARGET_LAG = '1 minute' WAREHOUSE = wh
		INITIALIZE = ON_SCHEDULE AS SELECT a + 1 a FROM t`)
	down := mustDT(t, e, "down")
	if _, err := e.ctrl.Upstreams(down); err == nil || !strings.Contains(err.Error(), "not initialized") {
		t.Fatalf("down binds over an uninitialized upstream: %v", err)
	}
	for i := 0; i < 3; i++ {
		_ = schedulerPass(e)
	}
	if rec := lastRecord(t, down); rec.Action == core.ActionError {
		t.Fatalf("down still fails after up initialized: %v", rec.Err)
	}
	expectQuery(t, e, `SELECT a FROM down`, "[2]")
}

// TestPlanCacheBindsOncePerDDL runs scheduler passes over an unchanged DAG
// after one DDL statement: each DT binds its defining query once, whoever
// asks first, and every later refresh and graph walk reuses the plan.
func TestPlanCacheBindsOncePerDDL(t *testing.T) {
	eng := New(WithConfig(Config{RefreshWorkers: 2}))
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession()
	sess.MustExec(`CREATE WAREHOUSE wh`)
	sess.MustExec(`CREATE TABLE src (k INT, v INT)`)
	sess.MustExec(`CREATE DYNAMIC TABLE agg TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT k, sum(v) s FROM src GROUP BY k`)
	sess.MustExec(`CREATE DYNAMIC TABLE top TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT k, s FROM agg WHERE s > 0`)
	sess.MustExec(`CREATE DYNAMIC TABLE big TARGET_LAG = DOWNSTREAM WAREHOUSE = wh
		AS SELECT k, v FROM src WHERE v > 5`)
	sess.MustExec(`CREATE DYNAMIC TABLE big_agg TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT k, count(*) n FROM big GROUP BY k`)

	res, err := sess.Query(`SELECT max(span_id) FROM INFORMATION_SCHEMA.TRACE_SPANS`)
	if err != nil {
		t.Fatal(err)
	}
	mark := res.Rows[0][0].Int()
	sess.MustExec(`CREATE TABLE unrelated (x INT)`)
	const passes = 5
	for i := 0; i < passes; i++ {
		sess.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d)`, i%2, 3*i))
		mustPass(t, eng)
	}

	// A refresh that rebuilds binds under its refresh root; any other
	// caller's rebuild is a root of its own. Either way the root names
	// the DT.
	res, err = sess.Query(fmt.Sprintf(`SELECT r.attrs FROM INFORMATION_SCHEMA.TRACE_SPANS b
		JOIN INFORMATION_SCHEMA.TRACE_SPANS r ON b.root_id = r.span_id
		WHERE b.name = 'bind' AND b.span_id > %d`, mark))
	if err != nil {
		t.Fatal(err)
	}
	binds := map[string]int{}
	for _, row := range res.Rows {
		for _, attr := range strings.Fields(row[0].String()) {
			if name, ok := strings.CutPrefix(attr, "dt="); ok {
				binds[name]++
			}
		}
	}
	for _, name := range []string{"agg", "top", "big", "big_agg"} {
		if binds[name] != 1 {
			t.Errorf("%s bound its query %d times over %d passes after one DDL, want 1 (all: %v)",
				name, binds[name], passes, binds)
		}
		if rec := lastRecord(t, mustDT(t, eng, name)); rec.Action == core.ActionError {
			t.Errorf("%s: %v", name, rec.Err)
		}
	}
}

// TestPlanCacheRaceDDLBesideRefreshes runs scheduler passes, Upstreams
// readers and DDL that moves the DDL sequence at once. Under -race it
// audits the sharing of a compiled plan between the refresher's workers,
// the scheduler and the observability graph walk, and its rebuild after
// the sequence moves. The readers hold the engine's statement lock, as
// statements and scheduler passes do, so DDL runs between them.
func TestPlanCacheRaceDDLBesideRefreshes(t *testing.T) {
	eng := New(WithConfig(Config{RefreshWorkers: 2}))
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession()
	sess.MustExec(`CREATE WAREHOUSE wh`)
	sess.MustExec(`CREATE TABLE src (k INT, v INT)`)
	sess.MustExec(`INSERT INTO src VALUES (1, 1), (2, 2)`)
	sess.MustExec(`CREATE VIEW pos AS SELECT k, v FROM src WHERE v > 0`)
	names := []string{"agg", "fan", "top"}
	sess.MustExec(`CREATE DYNAMIC TABLE agg TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT k, sum(v) s FROM pos GROUP BY k`)
	sess.MustExec(`CREATE DYNAMIC TABLE fan TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT k, v FROM src WHERE v > 1`)
	sess.MustExec(`CREATE DYNAMIC TABLE top TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT a.k, a.s, f.v FROM agg a JOIN fan f ON a.k = f.k`)
	var dts []*core.DynamicTable
	for _, name := range names {
		dts = append(dts, mustDT(t, eng, name))
	}

	const rounds = 20
	done := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // refreshes
		defer wg.Done()
		defer close(done)
		s := eng.NewSession()
		defer s.Close()
		for i := 0; i < rounds; i++ {
			if _, err := s.Exec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d)`, i%3, i)); err != nil {
				errs <- err
				return
			}
			if err := schedulerPass(eng); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // the DT graph walk, a statement reader like DT_HEALTH
		defer wg.Done()
		s := eng.NewSession()
		defer s.Close()
		for {
			select {
			case <-done:
				return
			default:
			}
			eng.stmtMu.RLock()
			for _, dt := range dts {
				if _, err := eng.ctrl.Upstreams(dt); err != nil {
					eng.stmtMu.RUnlock()
					errs <- err
					return
				}
			}
			eng.stmtMu.RUnlock()
			if _, err := s.Query(`SELECT * FROM INFORMATION_SCHEMA.DT_HEALTH`); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // DDL moving the sequence, and a view the DTs read
		defer wg.Done()
		s := eng.NewSession()
		defer s.Close()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			stmt := fmt.Sprintf(`CREATE TABLE other_%d (x INT)`, i)
			if i%2 == 1 {
				stmt = fmt.Sprintf(`CREATE OR REPLACE VIEW pos AS SELECT k, v FROM src WHERE v > %d`, -i)
			}
			if _, err := s.Exec(stmt); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	mustPass(t, eng)
	for _, name := range names {
		if err := eng.CheckDVS(name); err != nil {
			t.Error(err)
		}
	}
}
