package dyntables

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/sql"
	"dyntables/internal/warehouse"
)

func renderRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = "[" + strings.Join(parts, " ") + "]"
	}
	sort.Strings(out)
	return out
}

func expectQuery(t *testing.T, e *Engine, query string, want ...string) {
	t.Helper()
	res, err := e.Query(query)
	if err != nil {
		t.Fatalf("query %q: %v", query, err)
	}
	got := renderRows(res)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("query %q: got %v, want %v", query, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("query %q row %d: got %s, want %s", query, i, got[i], want[i])
		}
	}
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.MustExec(`CREATE WAREHOUSE wh`)
	return e
}

func TestBasicTableLifecycle(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT, b TEXT)`)
	e.MustExec(`INSERT INTO t VALUES (1, 'x'), (2, 'y')`)
	expectQuery(t, e, `SELECT a, b FROM t`, "[1 x]", "[2 y]")

	res := e.MustExec(`UPDATE t SET b = 'z' WHERE a = 2`)
	if res.RowsAffected != 1 {
		t.Errorf("update affected %d", res.RowsAffected)
	}
	expectQuery(t, e, `SELECT b FROM t WHERE a = 2`, "[z]")

	res = e.MustExec(`DELETE FROM t WHERE a = 1`)
	if res.RowsAffected != 1 {
		t.Errorf("delete affected %d", res.RowsAffected)
	}
	expectQuery(t, e, `SELECT count(*) FROM t`, "[1]")
}

func TestDynamicTableCreateAndInitialize(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE sales (region INT, amount INT)`)
	e.MustExec(`INSERT INTO sales VALUES (1, 10), (1, 20), (2, 5)`)
	e.MustExec(`CREATE DYNAMIC TABLE totals TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT region, sum(amount) total FROM sales GROUP BY region`)

	// Synchronous initialization: queryable immediately.
	expectQuery(t, e, `SELECT region, total FROM totals`, "[1 30]", "[2 5]")

	status, err := e.Describe("totals")
	if err != nil {
		t.Fatal(err)
	}
	if status.EffectiveMode != "INCREMENTAL" {
		t.Errorf("mode: %s", status.EffectiveMode)
	}
	if err := e.CheckDVS("totals"); err != nil {
		t.Errorf("DVS after init: %v", err)
	}
}

func TestIncrementalRefreshViaScheduler(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE sales (region INT, amount INT)`)
	e.MustExec(`INSERT INTO sales VALUES (1, 10)`)
	e.MustExec(`CREATE DYNAMIC TABLE totals TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT region, sum(amount) total FROM sales GROUP BY region`)

	e.MustExec(`INSERT INTO sales VALUES (1, 5), (2, 7)`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT region, total FROM totals`, "[1 15]", "[2 7]")
	if err := e.CheckDVS("totals"); err != nil {
		t.Errorf("DVS: %v", err)
	}

	// The refresh should have been INCREMENTAL.
	status, _ := e.Describe("totals")
	sawIncremental := false
	for _, rec := range status.History {
		if rec.Action == core.ActionIncremental {
			sawIncremental = true
		}
	}
	if !sawIncremental {
		t.Errorf("expected an INCREMENTAL refresh, history: %+v", status.History)
	}

	// Data timestamps only move forward (§3.1.1); a NO_DATA re-refresh at
	// the same timestamp is the one permitted repeat.
	var last time.Time
	for i, rec := range status.History {
		switch {
		case rec.Action == core.ActionSkip || rec.Action == core.ActionError:
			continue
		case rec.Action == core.ActionNoData && !rec.DataTS.After(last):
			continue
		case !last.IsZero() && !rec.DataTS.After(last):
			t.Errorf("refresh %d regressed data timestamp %s -> %s", i, last, rec.DataTS)
		}
		last = rec.DataTS
	}
	// And the scheduled refresh kept lag within target (plus one minute
	// of slack for the refresh itself).
	if status.Lag > 2*time.Minute {
		t.Errorf("lag %v exceeds the 1 minute target plus slack", status.Lag)
	}
}

// TestTrickleJoinRefreshReadsDeltaKeys refreshes a join of 5000 facts
// with 1000 dims after 10-row changes on either side: each incremental
// refresh reads the other side through a lookup of the changed rows' join
// keys, so the source rows it scans grow with the changes, not with dims
// (a refresh that reads dims whole scans at least 1000), and the DT still
// holds its query's result at every data timestamp.
func TestTrickleJoinRefreshReadsDeltaKeys(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE facts (id INT, dim INT, v INT)`)
	e.MustExec(`CREATE TABLE dims (dim INT, name STRING)`)
	var vals []string
	for d := 0; d < 1000; d++ {
		vals = append(vals, fmt.Sprintf("(%d, 'd%d')", d, d))
	}
	e.MustExec(`INSERT INTO dims VALUES ` + strings.Join(vals, ", "))
	for lo := 0; lo < 5000; lo += 1000 {
		vals = vals[:0]
		for id := lo; id < lo+1000; id++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", id, id%1000, id%7))
		}
		e.MustExec(`INSERT INTO facts VALUES ` + strings.Join(vals, ", "))
	}
	e.MustExec(`CREATE DYNAMIC TABLE dt_join TARGET_LAG = '1 minute' WAREHOUSE = wh REFRESH_MODE = INCREMENTAL
	            AS SELECT f.id, f.v, d.name FROM facts f JOIN dims d ON f.dim = d.dim`)
	dt, err := e.DynamicTableHandle("dt_join")
	if err != nil {
		t.Fatal(err)
	}
	seen := len(dt.History())
	for round := 0; round < 6; round++ {
		switch round % 3 {
		case 0: // 10 facts change v
			e.MustExec(fmt.Sprintf(`UPDATE facts SET v = v + 1 WHERE id %% 500 = %d`, round))
		case 1: // 10 facts move to other dims
			e.MustExec(fmt.Sprintf(`UPDATE facts SET dim = (dim + 1) %% 1000 WHERE id %% 500 = %d`, round))
		case 2: // 2 dims renamed, 8 facts inserted
			e.MustExec(fmt.Sprintf(`UPDATE dims SET name = name || 'x' WHERE dim = %d OR dim = %d`, round, 500+round))
			e.MustExec(fmt.Sprintf(`INSERT INTO facts VALUES (%d, 1, 1), (%d, 2, 2), (%d, 3, 3), (%d, 4, 4),
			    (%d, 5, 5), (%d, 6, 6), (%d, 7, 7), (%d, 8, 8)`,
				5000+8*round, 5001+8*round, 5002+8*round, 5003+8*round,
				5004+8*round, 5005+8*round, 5006+8*round, 5007+8*round))
		}
		e.AdvanceTime(time.Minute)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
		incremental := 0
		for _, rec := range dt.History()[seen:] {
			switch rec.Action {
			case core.ActionNoData:
			case core.ActionIncremental:
				incremental++
				// The changed rows and the other side's rows that match
				// their keys (five facts per dim): well under dims' 1000.
				if rec.SourceRowsScanned > 100 {
					t.Errorf("round %d: the refresh scanned %d source rows for %d changed rows",
						round, rec.SourceRowsScanned, rec.Inserted+rec.Deleted)
				}
			default:
				t.Fatalf("round %d refreshed with %v, want INCREMENTAL", round, rec.Action)
			}
		}
		if incremental != 1 {
			t.Fatalf("round %d refreshed incrementally %d times", round, incremental)
		}
		seen = len(dt.History())
		if err := e.CheckDVS("dt_join"); err != nil {
			t.Fatalf("round %d: DVS violated: %v", round, err)
		}
	}
}

func TestNoDataRefresh(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a FROM t`)

	// No source changes: scheduled refreshes must be NO_DATA.
	e.AdvanceTime(5 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	status, _ := e.Describe("d")
	noData := 0
	for _, rec := range status.History {
		if rec.Action == core.ActionNoData {
			noData++
		}
	}
	if noData == 0 {
		t.Errorf("expected NO_DATA refreshes, history: %+v", status.History)
	}
	// NO_DATA still advances the data timestamp (§3.3.2).
	if status.DataTimestamp.Equal(DefaultOrigin) {
		t.Error("data timestamp did not advance")
	}
	// And consumes no warehouse compute: no metering row is the job of a
	// NO_DATA refresh, and none bills a scan of nothing past the fixed
	// cost.
	res := e.MustExec(`SELECT h.action, m.rows, m.duration
		FROM INFORMATION_SCHEMA.WAREHOUSE_METERING_HISTORY m
		JOIN INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY h ON m.seq = h.seq
		WHERE m.label = 'd' AND h.dt_name = 'd'`)
	if len(res.Rows) == 0 {
		t.Fatal("the initialization of d left no metering row")
	}
	for _, row := range res.Rows {
		if row[0].Str() == "NO_DATA" || row[1].Int() == 0 && row[2].Interval() > 3*time.Second {
			t.Errorf("NO_DATA refresh consumed compute: %v", row)
		}
	}
}

func TestListing1Pipeline(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE WAREHOUSE trains_wh`)
	e.MustExec(`CREATE TABLE trains (id INT, name TEXT)`)
	e.MustExec(`CREATE TABLE train_events (type TEXT, payload VARIANT)`)
	e.MustExec(`CREATE TABLE schedule (id INT, expected_arrival_time TIMESTAMP)`)

	e.MustExec(`INSERT INTO trains VALUES (7, 'Express'), (8, 'Local')`)
	e.MustExec(`INSERT INTO schedule VALUES (3, '2025-04-01 10:00:00'), (4, '2025-04-01 11:00:00')`)
	e.MustExec(`INSERT INTO train_events VALUES
		('ARRIVAL', '{"train_id": 7, "time": "2025-04-01 10:17:00", "schedule_id": 3}'),
		('DEPARTURE', '{"train_id": 7, "time": "2025-04-01 10:30:00", "schedule_id": 3}'),
		('ARRIVAL', '{"train_id": 8, "time": "2025-04-01 11:02:00", "schedule_id": 4}')`)

	// Listing 1, DT 1 (TARGET_LAG = DOWNSTREAM).
	e.MustExec(`CREATE DYNAMIC TABLE train_arrivals
		TARGET_LAG = DOWNSTREAM
		WAREHOUSE = trains_wh
		AS SELECT
			t.id train_id,
			e.payload:time::timestamp arrival_time,
			e.payload:schedule_id::int schedule_id
		FROM train_events e
		JOIN trains t ON e.payload:train_id::int = t.id
		WHERE e.type = 'ARRIVAL'`)

	// Listing 1, DT 2.
	e.MustExec(`CREATE DYNAMIC TABLE delayed_trains
		TARGET_LAG = '1 minute'
		WAREHOUSE = trains_wh
		AS SELECT train_id,
			date_trunc(hour, s.expected_arrival_time) hour,
			count_if(arrival_time - s.expected_arrival_time > '10 minutes') num_delays
		FROM train_arrivals a
		JOIN schedule s ON a.schedule_id = s.id
		GROUP BY ALL`)

	expectQuery(t, e, `SELECT train_id, num_delays FROM delayed_trains`,
		"[7 1]", "[8 0]")

	// A late arrival lands; the pipeline catches up incrementally.
	e.MustExec(`INSERT INTO train_events VALUES
		('ARRIVAL', '{"train_id": 8, "time": "2025-04-01 11:30:00", "schedule_id": 4}')`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT train_id, num_delays FROM delayed_trains`,
		"[7 1]", "[8 1]")

	for _, name := range []string{"train_arrivals", "delayed_trains"} {
		if err := e.CheckDVS(name); err != nil {
			t.Errorf("DVS %s: %v", name, err)
		}
	}
}

func TestDownstreamLagPropagation(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`CREATE DYNAMIC TABLE up TARGET_LAG = DOWNSTREAM WAREHOUSE = wh AS SELECT a FROM t`)
	e.MustExec(`CREATE DYNAMIC TABLE down TARGET_LAG = '4 minutes' WAREHOUSE = wh AS SELECT a FROM up`)

	_, upDT, err := e.dynamicTable("up")
	if err != nil {
		t.Fatal(err)
	}
	_, downDT, _ := e.dynamicTable("down")

	if lag := e.sch.EffectiveLag(upDT); lag != 4*time.Minute {
		t.Errorf("upstream effective lag = %v, want 4m", lag)
	}
	// Periods align: upstream period divides downstream period.
	pu, pd := e.sch.Period(upDT), e.sch.Period(downDT)
	if pd%pu != 0 {
		t.Errorf("periods misaligned: up %v down %v", pu, pd)
	}
}

func TestChainedCreationReusesInitTimestamp(t *testing.T) {
	// §3.1.2: creating DTs in dependency order must not refresh upstream
	// tables again per downstream creation.
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE base (a INT)`)
	e.MustExec(`INSERT INTO base VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE d1 TARGET_LAG = '10 minutes' WAREHOUSE = wh AS SELECT a FROM base`)
	_, d1, _ := e.dynamicTable("d1")
	refreshesAfterD1 := len(d1.History())

	e.MustExec(`CREATE DYNAMIC TABLE d2 TARGET_LAG = '10 minutes' WAREHOUSE = wh AS SELECT a FROM d1`)
	e.MustExec(`CREATE DYNAMIC TABLE d3 TARGET_LAG = '10 minutes' WAREHOUSE = wh AS SELECT a FROM d2`)

	// d1 must not have refreshed again: d2/d3 initialize at d1's data ts.
	if got := len(d1.History()); got != refreshesAfterD1 {
		t.Errorf("creating downstream DTs refreshed upstream: %d -> %d records", refreshesAfterD1, got)
	}
	_, d3, _ := e.dynamicTable("d3")
	if !d3.DataTimestamp().Equal(d1.DataTimestamp()) {
		t.Errorf("d3 initialized at %v, want %v (reuse upstream ts)", d3.DataTimestamp(), d1.DataTimestamp())
	}
	// The counterintuitive consequence: a DT created at t may have data
	// timestamp t' < t.
	if d3.DataTimestamp().After(e.Now()) {
		t.Error("data timestamp in the future")
	}
}

func TestFullRefreshModeForScalarAggregate(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1), (2)`)
	// Scalar aggregate → AUTO resolves to FULL (§3.3.2).
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT count(*) c FROM t`)
	status, _ := e.Describe("d")
	if status.EffectiveMode != "FULL" {
		t.Errorf("scalar aggregate should force FULL mode, got %s", status.EffectiveMode)
	}
	expectQuery(t, e, `SELECT c FROM d`, "[2]")

	e.MustExec(`INSERT INTO t VALUES (3)`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT c FROM d`, "[3]")

	// Declared INCREMENTAL on such a query is rejected.
	_, err := e.Exec(`CREATE DYNAMIC TABLE d2 TARGET_LAG = '1 minute' WAREHOUSE = wh
	                  REFRESH_MODE = INCREMENTAL AS SELECT count(*) c FROM t`)
	if err == nil {
		t.Error("INCREMENTAL mode on a scalar aggregate must be rejected")
	}
}

func TestQueryUninitializedDTFails(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            INITIALIZE = ON_SCHEDULE AS SELECT a FROM t`)
	if _, err := e.Query(`SELECT * FROM d`); err == nil {
		t.Error("querying an uninitialized DT must fail (§3.1)")
	}
	// The scheduler initializes it.
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`SELECT * FROM d`); err != nil {
		t.Errorf("query after scheduled init: %v", err)
	}
}

func TestErrorCounterAndAutoSuspend(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT 10 / a q FROM t`)

	// Division by zero arrives.
	e.MustExec(`INSERT INTO t VALUES (0)`)
	_, dt, _ := e.dynamicTable("d")
	for i := 0; i < core.MaxConsecutiveErrors; i++ {
		e.AdvanceTime(2 * time.Minute)
		_ = e.RunScheduler()
	}
	if dt.State() != core.StateSuspended {
		t.Errorf("DT should auto-suspend after %d consecutive errors, state=%s errors=%d",
			core.MaxConsecutiveErrors, dt.State(), dt.ErrorCount())
	}

	// Fix the data, resume: refreshes pick up from where they left off.
	e.MustExec(`DELETE FROM t WHERE a = 0`)
	e.MustExec(`ALTER DYNAMIC TABLE d RESUME`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT q FROM d`, "[10]")
	if err := e.CheckDVS("d"); err != nil {
		t.Errorf("DVS after recovery: %v", err)
	}
}

func TestUpstreamReplaceTriggersReinitialize(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a FROM t`)

	// Replace the base table entirely (generation bump, §5.4).
	e.MustExec(`CREATE OR REPLACE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (42)`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT a FROM d`, "[42]")

	_, dt, _ := e.dynamicTable("d")
	sawReinit := false
	for _, rec := range dt.History() {
		if rec.Action == core.ActionReinitialize || rec.Action == core.ActionFull {
			sawReinit = true
		}
	}
	if !sawReinit {
		t.Errorf("upstream replace should reinitialize, history: %+v", dt.History())
	}
}

func TestDropUndropUpstreamRecovery(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a FROM t`)

	// Upstream precedence (§3.4): dropping t succeeds; d's refreshes fail.
	e.MustExec(`DROP TABLE t`)
	e.AdvanceTime(2 * time.Minute)
	_ = e.RunScheduler()
	_, dt, _ := e.dynamicTable("d")
	if dt.ErrorCount() == 0 {
		t.Error("refresh should fail while upstream is dropped")
	}

	// UNDROP: refreshes resume without issue (§3.4).
	e.MustExec(`UNDROP TABLE t`)
	e.MustExec(`INSERT INTO t VALUES (2)`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT a FROM d`, "[1]", "[2]")
	if dt.ErrorCount() != 0 {
		t.Errorf("error counter should reset after recovery, got %d", dt.ErrorCount())
	}
}

func TestManualRefresh(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE up TARGET_LAG = DOWNSTREAM WAREHOUSE = wh AS SELECT a FROM t`)
	e.MustExec(`CREATE DYNAMIC TABLE down TARGET_LAG = '1 hour' WAREHOUSE = wh AS SELECT a FROM up`)

	e.MustExec(`INSERT INTO t VALUES (2)`)
	e.AdvanceTime(time.Minute)
	// Manual refresh of `down` pulls `up` forward too (§3.1.2).
	if err := e.ManualRefresh("down"); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT a FROM down`, "[1]", "[2]")
	_, up, _ := e.dynamicTable("up")
	_, down, _ := e.dynamicTable("down")
	if !up.DataTimestamp().Equal(down.DataTimestamp()) {
		t.Errorf("manual refresh must align timestamps: up %v down %v",
			up.DataTimestamp(), down.DataTimestamp())
	}
}

func TestAlterRefreshStatement(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 hour' WAREHOUSE = wh AS SELECT a FROM t`)
	e.MustExec(`INSERT INTO t VALUES (5)`)
	e.AdvanceTime(time.Minute)
	e.MustExec(`ALTER DYNAMIC TABLE d REFRESH`)
	expectQuery(t, e, `SELECT a FROM d`, "[5]")
}

func TestCloneDynamicTableAvoidsReinit(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM t`)
	e.MustExec(`CREATE DYNAMIC TABLE d2 CLONE d`)

	// The clone is immediately queryable with the source's contents.
	expectQuery(t, e, `SELECT a FROM d2`, "[1]")
	_, clone, _ := e.dynamicTable("d2")
	sawInit := false
	for _, rec := range clone.History() {
		if rec.Action == core.ActionInitialize {
			sawInit = true
		}
	}
	if sawInit {
		t.Error("clone should not reinitialize (§3.4)")
	}

	// Divergence: the clone refreshes independently.
	e.MustExec(`INSERT INTO t VALUES (2)`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT a FROM d2`, "[1]", "[2]")
	if err := e.CheckDVS("d2"); err != nil {
		t.Errorf("clone DVS: %v", err)
	}
}

func TestCloneBaseTable(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE TABLE t2 CLONE t`)
	expectQuery(t, e, `SELECT a FROM t2`, "[1]")
	e.MustExec(`INSERT INTO t2 VALUES (2)`)
	expectQuery(t, e, `SELECT a FROM t`, "[1]")
	expectQuery(t, e, `SELECT a FROM t2`, "[1]", "[2]")
}

func TestViewsInPipelines(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT, b INT)`)
	e.MustExec(`INSERT INTO t VALUES (1, 10), (2, 20)`)
	e.MustExec(`CREATE VIEW v AS SELECT a, b FROM t WHERE a > 1`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a, b FROM v`)
	expectQuery(t, e, `SELECT a, b FROM d`, "[2 20]")
	e.MustExec(`INSERT INTO t VALUES (3, 30)`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT a, b FROM d`, "[2 20]", "[3 30]")
}

func TestRBACPrivileges(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM t`)

	entry, _, _ := e.dynamicTable("d")
	tableEntry, _ := e.Catalog().Get("t")

	s := e.NewSession()
	defer s.Close()
	s.SetRole("analyst")
	if _, err := s.Query(`SELECT * FROM d`); err == nil {
		t.Error("SELECT without privilege must fail")
	}
	if err := s.ManualRefresh("d"); err == nil {
		t.Error("OPERATE without privilege must fail")
	}
	if _, err := s.Describe("d"); err == nil {
		t.Error("MONITOR without privilege must fail")
	}

	e.Catalog().Grant(entry.ID, 0 /* SELECT */, "analyst")
	e.Catalog().Grant(tableEntry.ID, 0, "analyst")
	if _, err := s.Query(`SELECT * FROM d`); err != nil {
		t.Errorf("SELECT after grant: %v", err)
	}
	e.Catalog().Grant(entry.ID, 2 /* MONITOR */, "analyst")
	if _, err := s.Describe("d"); err != nil {
		t.Errorf("MONITOR after grant: %v", err)
	}
	if err := s.ManualRefresh("d"); err == nil {
		t.Error("MONITOR must not imply OPERATE")
	}
}

func TestRenameUpstreamKeepsDTWorking(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM t`)

	// Renaming the upstream breaks the DT's defining query binding (name
	// is gone), so refreshes fail — until a new table takes the name.
	e.MustExec(`ALTER TABLE t RENAME TO t_renamed`)
	e.AdvanceTime(2 * time.Minute)
	_ = e.RunScheduler()
	_, dt, _ := e.dynamicTable("d")
	if dt.ErrorCount() == 0 {
		t.Error("refresh should fail after upstream rename")
	}
	e.MustExec(`ALTER TABLE t_renamed RENAME TO t`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT a FROM d`, "[1]")
}

func TestInsertSelectAndOverwrite(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE src (a INT)`)
	e.MustExec(`CREATE TABLE dst (a INT)`)
	e.MustExec(`INSERT INTO src VALUES (1), (2)`)
	e.MustExec(`INSERT INTO dst SELECT a FROM src`)
	expectQuery(t, e, `SELECT a FROM dst`, "[1]", "[2]")
	e.MustExec(`INSERT OVERWRITE INTO dst VALUES (9)`)
	expectQuery(t, e, `SELECT a FROM dst`, "[9]")
}

func TestCreateTableAsSelect(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1), (2)`)
	e.MustExec(`CREATE TABLE t2 AS SELECT a * 10 b FROM t`)
	expectQuery(t, e, `SELECT b FROM t2`, "[10]", "[20]")
}

func TestCycleRejected(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`CREATE DYNAMIC TABLE d1 TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM t`)
	// d1 reading itself is rejected by the binder/catalog cycle check.
	_, err := e.Exec(`CREATE OR REPLACE DYNAMIC TABLE d1 TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM d1`)
	if err == nil {
		t.Error("self-referencing DT must be rejected")
	}
}

func TestTargetLagMinimum(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	_, err := e.Exec(`CREATE DYNAMIC TABLE d TARGET_LAG = '30 seconds' WAREHOUSE = wh AS SELECT a FROM t`)
	if err == nil {
		t.Error("sub-minute target lag must be rejected (§3.2)")
	}
}

func TestMissingWarehouseRejected(t *testing.T) {
	e := New()
	e.MustExec(`CREATE TABLE t (a INT)`)
	_, err := e.Exec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = nope AS SELECT a FROM t`)
	if err == nil {
		t.Error("missing warehouse must be rejected")
	}
}

func TestSkipsUnderOverload(t *testing.T) {
	e := New(WithCostModel(warehouseCostSlow()))
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE t (a INT)`)
	for i := 0; i < 50; i++ {
		e.MustExec(`INSERT INTO t VALUES (1)`)
	}
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '2 minutes' WAREHOUSE = wh
	            REFRESH_MODE = FULL AS SELECT a FROM t`)
	// Every refresh takes longer than the refresh period; later fires
	// must skip, and the next refresh covers the gap (§3.3.3).
	for i := 0; i < 6; i++ {
		e.MustExec(`INSERT INTO t VALUES (2)`)
		e.AdvanceTime(90 * time.Second)
		_ = e.RunScheduler()
	}
	if e.Scheduler().Stats().Skips == 0 {
		t.Errorf("expected skips under overload: %+v", e.Scheduler().Stats())
	}
	if err := e.CheckDVS("d"); err != nil {
		t.Errorf("DVS after skips: %v", err)
	}
}

func TestDVSOracleAfterRandomDML(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT, b INT)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT b, count(*) c, sum(a) s FROM t GROUP BY b`)
	stmts := []string{
		`INSERT INTO t VALUES (1, 1), (2, 1), (3, 2)`,
		`UPDATE t SET a = a + 10 WHERE b = 1`,
		`DELETE FROM t WHERE a > 11`,
		`INSERT INTO t VALUES (5, 3)`,
		`UPDATE t SET b = 2 WHERE b = 3`,
		`DELETE FROM t WHERE b = 2`,
	}
	for _, stmt := range stmts {
		e.MustExec(stmt)
		e.AdvanceTime(2 * time.Minute)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
		if err := e.CheckDVS("d"); err != nil {
			t.Fatalf("after %q: %v", stmt, err)
		}
	}
}

// warehouseCostSlow returns a cost model that makes refreshes slow enough
// to overlap a 48-second canonical period.
func warehouseCostSlow() warehouse.CostModel {
	return warehouse.CostModel{Fixed: 200 * time.Second, PerRow: 10 * time.Millisecond}
}

func TestReclusterIsDataEquivalent(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1), (2)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a FROM t`)

	// Background maintenance rewrites storage without changing contents;
	// the next refresh must be NO_DATA (§5.5.2).
	if err := e.Recluster("t"); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		t.Fatal(err)
	}
	dt, _ := e.DynamicTableHandle("d")
	rec, _ := dt.LastRecord()
	if rec.Action != core.ActionNoData {
		t.Errorf("refresh after recluster should be NO_DATA, got %s", rec.Action)
	}
	expectQuery(t, e, `SELECT a FROM d`, "[1]", "[2]")

	// Reclustering a DT's storage is not allowed through this API.
	if err := e.Recluster("d"); err == nil {
		t.Error("reclustering a dynamic table must be rejected")
	}
}

func TestSwapTablesUnderDT(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE blue (a INT)`)
	e.MustExec(`CREATE TABLE green (a INT)`)
	e.MustExec(`INSERT INTO blue VALUES (1)`)
	e.MustExec(`INSERT INTO green VALUES (100)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a FROM blue`)
	// Blue/green swap: the DT's defining query now resolves to the other
	// table's contents; the refresh reinitializes (different entry ID in
	// the dependency set).
	e.MustExec(`ALTER TABLE blue SWAP WITH green`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT a FROM d`, "[100]")
	if err := e.CheckDVS("d"); err != nil {
		t.Errorf("DVS after swap: %v", err)
	}
}

func TestSetTargetLagChangesSchedule(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 hour' WAREHOUSE = wh AS SELECT a FROM t`)
	dt, _ := e.DynamicTableHandle("d")
	before := e.Scheduler().Period(dt)
	e.MustExec(`ALTER DYNAMIC TABLE d SET TARGET_LAG = '2 minutes'`)
	after := e.Scheduler().Period(dt)
	if after >= before {
		t.Errorf("shrinking the lag must shrink the period: %v -> %v", before, after)
	}
	// ALTER enforces CREATE's 1-minute floor.
	if _, err := e.Exec(`ALTER DYNAMIC TABLE d SET TARGET_LAG = '1 second'`); err == nil {
		t.Error("ALTER accepted a TARGET_LAG below the 1 minute minimum")
	}
	if got := e.Scheduler().Period(dt); got != after {
		t.Errorf("rejected ALTER changed the period: %v -> %v", after, got)
	}
}

func TestExecScriptStopsAtError(t *testing.T) {
	e := newTestEngine(t)
	results, err := e.ExecScript(`
		CREATE TABLE ok (a INT);
		INSERT INTO missing VALUES (1);
		CREATE TABLE never (a INT);
	`)
	if err == nil {
		t.Fatal("script error not reported")
	}
	if len(results) != 1 {
		t.Errorf("results before error: %d", len(results))
	}
	if e.Catalog().Exists("never") {
		t.Error("statements after the error must not run")
	}
}

func TestDDLLogRecordsEngineActivity(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM t`)
	e.MustExec(`ALTER TABLE t RENAME TO t2`)
	log := e.Catalog().DDLLogSince(0)
	ops := map[string]int{}
	for _, rec := range log {
		ops[rec.Op]++
	}
	if ops["CREATE"] < 3 || ops["RENAME"] != 1 {
		t.Errorf("DDL log: %v", ops)
	}
}

func TestDescribeAfterOrderByLimitDT(t *testing.T) {
	// FULL-mode DTs with ORDER BY / LIMIT maintain a stable top-k.
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE scores (player INT, score INT)`)
	e.MustExec(`INSERT INTO scores VALUES (1, 10), (2, 30), (3, 20)`)
	e.MustExec(`CREATE DYNAMIC TABLE top2 TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT player, score FROM scores ORDER BY score DESC LIMIT 2`)
	expectQuery(t, e, `SELECT player FROM top2`, "[2]", "[3]")
	e.MustExec(`INSERT INTO scores VALUES (4, 99)`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, e, `SELECT player FROM top2`, "[4]", "[2]")
	if err := e.CheckDVS("top2"); err != nil {
		t.Errorf("DVS for full-mode top-k: %v", err)
	}
}

// TestCurrentTimestampRefreshesFull checks that a defining query with
// CURRENT_TIMESTAMP is not maintained incrementally: a row kept at an
// earlier refresh's timestamp would never be re-evaluated. An
// INCREMENTAL pin is refused at CREATE, AUTO resolves to FULL, and every
// refresh, also one over an interval with no source change, leaves the
// contents equal to the query as of the data timestamp.
func TestCurrentTimestampRefreshesFull(t *testing.T) {
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE ev (id INT, ts TIMESTAMP)`)
	s.MustExec(`INSERT INTO ev VALUES (1, '2025-04-01 00:02:30'), (2, '2025-04-01 00:05:30')`)
	const query = `SELECT id FROM ev WHERE ts >= CURRENT_TIMESTAMP()`
	if _, err := s.Exec(`CREATE DYNAMIC TABLE pinned TARGET_LAG = '1 minute' WAREHOUSE = wh
		REFRESH_MODE = INCREMENTAL AS ` + query); err == nil || !strings.Contains(err.Error(), "CURRENT_TIMESTAMP") {
		t.Fatalf("CREATE of an INCREMENTAL DT over CURRENT_TIMESTAMP: err = %v, want a refusal naming it", err)
	}
	s.MustExec(`CREATE DYNAMIC TABLE upcoming TARGET_LAG = '1 minute' WAREHOUSE = wh AS ` + query)
	dt, err := e.DynamicTableHandle("upcoming")
	if err != nil {
		t.Fatal(err)
	}
	if mode, reason := dt.ModeDecision(); mode != sql.RefreshFull {
		t.Fatalf("AUTO over CURRENT_TIMESTAMP resolved to %s (%s), want FULL", mode, reason)
	}
	for minute := 1; minute <= 6; minute++ {
		if minute == 2 {
			s.MustExec(`INSERT INTO ev VALUES (3, '2025-04-01 00:04:30')`)
		}
		e.AdvanceTime(time.Minute)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
		if err := e.CheckDVS("upcoming"); err != nil {
			t.Fatalf("minute %d: %v", minute, err)
		}
		if rec, ok := dt.LastRecord(); ok && rec.Action == core.ActionIncremental {
			t.Fatalf("minute %d: refreshed INCREMENTAL", minute)
		}
	}
	if rows := dt.Storage.RowCount(); rows != 0 {
		t.Errorf("%d rows left after every event's time passed", rows)
	}
}
