package dyntables

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/obs"
	"dyntables/internal/types"
)

// obsFixture builds an engine with a base table, two chained DTs and a
// few scheduler passes, so every observability surface has data.
func obsFixture(t *testing.T, opts ...Option) (*Engine, *Session) {
	t.Helper()
	eng := New(opts...)
	t.Cleanup(func() { eng.Close() })
	return eng, obsScript(t, eng)
}

// obsScript creates obsFixture's base table and two chained DTs on eng,
// runs three scheduler rounds, and returns the session it used.
func obsScript(t *testing.T, eng *Engine) *Session {
	t.Helper()
	sess := eng.NewSession()
	sess.MustExec(`CREATE WAREHOUSE wh`)
	sess.MustExec(`CREATE TABLE events (id INT, v INT)`)
	sess.MustExec(`CREATE DYNAMIC TABLE totals TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT id, count(*) c, sum(v) s FROM events GROUP BY id`)
	sess.MustExec(`CREATE DYNAMIC TABLE grand TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT count(*) n FROM totals`)
	for i := 0; i < 3; i++ {
		sess.MustExec(`INSERT INTO events VALUES (1, 10), (2, 20)`)
		eng.AdvanceTime(2 * time.Minute)
		if err := eng.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

// TestRefreshHistoryStreamingQuery is the PR's acceptance query: refresh
// history filtered, ordered and streamed through a normal QueryContext
// cursor with a bind parameter.
func TestRefreshHistoryStreamingQuery(t *testing.T) {
	_, sess := obsFixture(t)
	rows, err := sess.QueryContext(context.Background(),
		`SELECT dt_name, action, inserted, deleted, duration
		 FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY
		 WHERE dt_name = ? ORDER BY data_ts`, "totals")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	count := 0
	sawIncremental := false
	for rows.Next() {
		var name, action string
		var inserted, deleted int64
		var duration types.Value
		if err := rows.Scan(&name, &action, &inserted, &deleted, &duration); err != nil {
			t.Fatal(err)
		}
		if name != "totals" {
			t.Fatalf("WHERE not applied: got dt_name %q", name)
		}
		if action == "INCREMENTAL" {
			sawIncremental = true
			if duration.IsNull() || duration.Interval() <= 0 {
				t.Fatalf("incremental refresh has no duration: %v", duration)
			}
		}
		count++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if count < 3 {
		t.Fatalf("expected >= 3 history rows for totals, got %d", count)
	}
	if !sawIncremental {
		t.Fatal("expected at least one INCREMENTAL refresh in history")
	}
}

func TestInfoSchemaDynamicTablesSLO(t *testing.T) {
	eng, sess := obsFixture(t)
	res, err := sess.Query(`SELECT name, state, refresh_mode, slo_attainment, lag_p95
		FROM INFORMATION_SCHEMA.DYNAMIC_TABLES ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 DTs, got %d", len(res.Rows))
	}
	if res.Rows[0][0].Str() != "grand" || res.Rows[1][0].Str() != "totals" {
		t.Fatalf("unexpected DT names: %v, %v", res.Rows[0][0], res.Rows[1][0])
	}
	for _, row := range res.Rows {
		if row[1].Str() != "ACTIVE" {
			t.Fatalf("%s state = %s", row[0], row[1])
		}
		att := row[3]
		if att.IsNull() {
			t.Fatalf("%s has NULL slo_attainment after scheduled refreshes", row[0])
		}
		if f := att.Float(); f < 0 || f > 1 {
			t.Fatalf("%s attainment %v outside [0,1]", row[0], f)
		}
		if row[4].IsNull() || row[4].Interval() <= 0 {
			t.Fatalf("%s lag_p95 = %v", row[0], row[4])
		}
	}

	// The Go-side accessor agrees.
	stats, ok := eng.LagSLO("totals")
	if !ok || stats.Samples == 0 {
		t.Fatalf("LagSLO(totals) = %+v, %v", stats, ok)
	}
}

// TestInfoSchemaJoin exercises the virtual tables through the planner's
// join path: graph history joined against the DT listing.
func TestInfoSchemaJoin(t *testing.T) {
	_, sess := obsFixture(t)
	res, err := sess.Query(`
		SELECT g.dt_name, g.upstream, d.refresh_mode
		FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_GRAPH_HISTORY g
		JOIN INFORMATION_SCHEMA.DYNAMIC_TABLES d ON g.dt_name = d.name
		ORDER BY g.dt_name, g.upstream`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 graph edges, got %d", len(res.Rows))
	}
	if res.Rows[0][0].Str() != "grand" || res.Rows[0][1].Str() != "totals" {
		t.Fatalf("edge 0 = %v -> %v", res.Rows[0][0], res.Rows[0][1])
	}
	if res.Rows[1][0].Str() != "totals" || res.Rows[1][1].Str() != "events" {
		t.Fatalf("edge 1 = %v -> %v", res.Rows[1][0], res.Rows[1][1])
	}
}

func TestWarehouseMeteringHistory(t *testing.T) {
	_, sess := obsFixture(t)
	res, err := sess.Query(`SELECT warehouse, label, credits
		FROM INFORMATION_SCHEMA.WAREHOUSE_METERING_HISTORY WHERE credits > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expected billed jobs in metering history")
	}
	for _, row := range res.Rows {
		if row[0].Str() != "wh" {
			t.Fatalf("unexpected warehouse %v", row[0])
		}
	}
}

func TestHistoryRingsBounded(t *testing.T) {
	eng, sess := obsFixture(t, WithConfig(Config{HistoryCapacity: 4}))
	// Many more refreshes than the ring capacity.
	for i := 0; i < 10; i++ {
		sess.MustExec(`INSERT INTO events VALUES (3, 1)`)
		eng.AdvanceTime(2 * time.Minute)
		if err := eng.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Query(`SELECT count(*) FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY
		WHERE dt_name = 'totals'`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 4 {
		t.Fatalf("refresh-history ring kept %d events, want 4", n)
	}
	// The in-engine Describe history honors the same bound, keeping the
	// newest records.
	st, err := sess.Describe("totals")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.History) != 4 {
		t.Fatalf("DT history ring kept %d records, want 4", len(st.History))
	}
	for i := 1; i < len(st.History); i++ {
		if st.History[i].DataTS.Before(st.History[i-1].DataTS) {
			t.Fatal("DT history ring out of order after wrap")
		}
	}

	// ALTER SYSTEM rebinds the capacity at runtime.
	if _, err := sess.Exec(`ALTER SYSTEM SET HISTORY_CAPACITY = 2`); err != nil {
		t.Fatal(err)
	}
	eng.AdvanceTime(2 * time.Minute)
	if err := eng.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Query(`SELECT count(*) FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY
		WHERE dt_name = 'totals'`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 2 {
		t.Fatalf("after ALTER SYSTEM, ring kept %d events, want 2", n)
	}
	if st, err = sess.Describe("totals"); err != nil || len(st.History) != 2 {
		t.Fatalf("after ALTER SYSTEM, DT history kept %d records (err %v), want 2", len(st.History), err)
	}
}

func TestShowStatements(t *testing.T) {
	_, sess := obsFixture(t)
	res, err := sess.Exec(`SHOW DYNAMIC TABLES`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "SHOW DYNAMIC TABLES" || len(res.Rows) != 2 {
		t.Fatalf("SHOW DYNAMIC TABLES: kind=%s rows=%d", res.Kind, len(res.Rows))
	}
	if res.Columns[0] != "name" {
		t.Fatalf("unexpected SHOW columns: %v", res.Columns)
	}
	res, err = sess.Exec(`SHOW WAREHOUSES`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "wh" {
		t.Fatalf("SHOW WAREHOUSES rows: %v", res.Rows)
	}
}

func TestExplainSelect(t *testing.T) {
	_, sess := obsFixture(t)
	res, err := sess.Exec(`EXPLAIN SELECT id, count(*) FROM events WHERE id > 1 GROUP BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "EXPLAIN" {
		t.Fatalf("kind = %s", res.Kind)
	}
	text := explainText(res)
	for _, want := range []string{"Aggregate", "Scan(events)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
}

func TestExplainCreateDynamicTable(t *testing.T) {
	_, sess := obsFixture(t)
	res, err := sess.Exec(`EXPLAIN CREATE DYNAMIC TABLE agg TARGET_LAG = '2 minutes' WAREHOUSE = wh
		AS SELECT id, sum(v) s FROM events GROUP BY id`)
	if err != nil {
		t.Fatal(err)
	}
	text := explainText(res)
	for _, want := range []string{
		"refresh_mode: INCREMENTAL",
		"target_lag: 2m0s",
		"upstream frontier:",
		"events TABLE version=",
		"Scan(events)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
	// EXPLAIN creates nothing.
	if _, err := sess.Query(`SELECT * FROM agg`); err == nil {
		t.Fatal("EXPLAIN CREATE DYNAMIC TABLE actually created the DT")
	}

	// A non-incrementalizable query reports the FULL decision and why;
	// reading an upstream DT surfaces its frontier.
	res, err = sess.Exec(`EXPLAIN CREATE DYNAMIC TABLE top TARGET_LAG = '2 minutes' WAREHOUSE = wh
		AS SELECT id FROM totals ORDER BY id LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	text = explainText(res)
	if !strings.Contains(text, "refresh_mode: FULL (AUTO:") {
		t.Fatalf("expected FULL decision with reason:\n%s", text)
	}
	if !strings.Contains(text, "totals DYNAMIC TABLE") || !strings.Contains(text, "data_ts=") {
		t.Fatalf("expected upstream DT frontier:\n%s", text)
	}

	// EXPLAIN binds like the real CREATE: a defining query over
	// INFORMATION_SCHEMA is rejected, not explained as viable.
	_, err = sess.Exec(`EXPLAIN CREATE DYNAMIC TABLE meta TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT name FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`)
	if err == nil || !strings.Contains(err.Error(), "INFORMATION_SCHEMA") {
		t.Fatalf("EXPLAIN over a virtual defining query: err = %v", err)
	}
}

func explainText(res *Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].Str())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestVirtualTablesRejectedInDefiningQueries(t *testing.T) {
	_, sess := obsFixture(t)
	_, err := sess.Exec(`CREATE DYNAMIC TABLE meta TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT name FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`)
	if err == nil || !strings.Contains(err.Error(), "INFORMATION_SCHEMA") {
		t.Fatalf("DT over a virtual table: err = %v", err)
	}
	// Views over INFORMATION_SCHEMA are allowed (they re-expand at query
	// time)...
	if _, err := sess.Exec(`CREATE VIEW dt_modes AS
		SELECT name, refresh_mode FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(`SELECT count(*) FROM dt_modes`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("view over info schema returned %v rows", res.Rows[0][0])
	}
	// ...but a DT over such a view is still rejected.
	_, err = sess.Exec(`CREATE DYNAMIC TABLE meta2 TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT name FROM dt_modes`)
	if err == nil || !strings.Contains(err.Error(), "INFORMATION_SCHEMA") {
		t.Fatalf("DT over an info-schema view: err = %v", err)
	}
}

// TestViewEvolvedToVirtualDoesNotDeadlock replaces a DT's upstream view
// with one reading INFORMATION_SCHEMA after the DT exists. The refresh
// re-bind must fail cleanly (the controller binds against the
// catalog-only resolver) — materializing a virtual table from inside a
// scheduler tick would call back into the scheduler under its own lock.
func TestViewEvolvedToVirtualDoesNotDeadlock(t *testing.T) {
	eng := New()
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession()
	sess.MustExec(`CREATE WAREHOUSE wh`)
	sess.MustExec(`CREATE TABLE src (a INT)`)
	sess.MustExec(`INSERT INTO src VALUES (1)`)
	sess.MustExec(`CREATE VIEW v AS SELECT a FROM src`)
	sess.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT a FROM v`)
	sess.MustExec(`CREATE OR REPLACE VIEW v AS
		SELECT rows AS a FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`)

	eng.AdvanceTime(2 * time.Minute)
	done := make(chan error, 1)
	go func() { done <- eng.RunScheduler() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("scheduler pass returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler pass deadlocked on a virtual-table bind")
	}
	// The refresh itself failed and is visible in the history.
	st, err := sess.Describe("d")
	if err != nil {
		t.Fatal(err)
	}
	last := st.History[len(st.History)-1]
	if last.Action.String() != "ERROR" || last.Err == nil ||
		!strings.Contains(last.Err.Error(), "INFORMATION_SCHEMA") {
		t.Fatalf("expected an INFORMATION_SCHEMA bind error in history, got %+v", last)
	}
}

func TestObservabilityDisabled(t *testing.T) {
	eng, sess := obsFixture(t, WithConfig(Config{HistoryCapacity: -1}))
	// Refresh history is each DT's own ring, which the AUTO chooser reads
	// whether or not the recorder records, so a disabled recorder still
	// lists it.
	res, err := sess.Query(`SELECT count(*) FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY`)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, name := range []string{"totals", "grand"} {
		st, err := sess.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		want += len(st.History)
	}
	if n := res.Rows[0][0].Int(); n != int64(want) {
		t.Fatalf("REFRESH_HISTORY has %d rows, Describe's histories %d records", n, want)
	}
	// The engine itself still works, stores the same DT rows as an engine
	// that records, and the DT history ring (bounded at the default)
	// still serves Describe.
	if err := eng.CheckDVS("totals"); err != nil {
		t.Fatal(err)
	}
	recording, _ := obsFixture(t)
	if got, want := storedRows(t, eng, "totals", "grand"), storedRows(t, recording, "totals", "grand"); got != want {
		t.Fatalf("disabling the recorder changed DT contents:\n%s\nwant:\n%s", got, want)
	}
	st, err := sess.Describe("totals")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.History) == 0 {
		t.Fatal("Describe history should be independent of the obs recorder")
	}

	// ALTER SYSTEM SET HISTORY_CAPACITY re-enables recording at runtime.
	sess.MustExec(`ALTER SYSTEM SET HISTORY_CAPACITY = 16`)
	sess.MustExec(`INSERT INTO events VALUES (9, 9)`)
	eng.AdvanceTime(2 * time.Minute)
	if err := eng.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Query(`SELECT count(*) FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n == 0 {
		t.Fatal("ALTER SYSTEM SET HISTORY_CAPACITY should re-enable recording")
	}
}

// dtObservability reads what the engine reports under one DT name: its
// DYNAMIC_TABLES lag-SLO columns, its RESOURCE_HISTORY refresh rows, its
// WAREHOUSE_METERING_HISTORY rows, its /metrics CPU counter and its
// DT_HEALTH cpu_trend.
type dtObservability struct {
	sloNull, p95Null bool
	resourceRows     int64
	meteringRows     int64
	metric           bool
	trendNull        bool
}

func readDTObservability(t *testing.T, eng *Engine, sess *Session, name string) dtObservability {
	t.Helper()
	var o dtObservability
	res := sess.MustExec(`SELECT slo_attainment, lag_p95 FROM INFORMATION_SCHEMA.DYNAMIC_TABLES WHERE name = ?`, name)
	if len(res.Rows) != 1 {
		t.Fatalf("DYNAMIC_TABLES has %d rows for %s", len(res.Rows), name)
	}
	o.sloNull, o.p95Null = res.Rows[0][0].IsNull(), res.Rows[0][1].IsNull()
	res = sess.MustExec(`SELECT count(*) FROM INFORMATION_SCHEMA.RESOURCE_HISTORY
		WHERE kind = 'refresh' AND name = ?`, name)
	o.resourceRows = res.Rows[0][0].Int()
	res = sess.MustExec(`SELECT count(*) FROM INFORMATION_SCHEMA.WAREHOUSE_METERING_HISTORY
		WHERE label = ?`, name)
	o.meteringRows = res.Rows[0][0].Int()
	o.metric = strings.Contains(eng.MetricsText(), `dyntables_dt_cpu_seconds_total{dt="`+name+`"}`)
	res = sess.MustExec(`SELECT cpu_trend FROM INFORMATION_SCHEMA.DT_HEALTH WHERE dt = ?`, name)
	if len(res.Rows) != 1 {
		t.Fatalf("DT_HEALTH has %d rows for %s", len(res.Rows), name)
	}
	o.trendNull = res.Rows[0][0].IsNull()
	return o
}

// TestCreateForgetsDroppedObservability checks that a DT created under a
// dropped DT's name, by CREATE or CREATE OR REPLACE, starts without the
// old DT's lag samples, resource totals and resource events, and that
// UNDROP, with no CREATE in between, gets them back.
func TestCreateForgetsDroppedObservability(t *testing.T) {
	const create = `DYNAMIC TABLE grand TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT count(*) n FROM totals`
	for _, tc := range []struct {
		name  string
		stmts []string
	}{
		{"drop and create", []string{`DROP DYNAMIC TABLE grand`, `CREATE ` + create}},
		{"create or replace", []string{`CREATE OR REPLACE ` + create}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, sess := obsFixture(t)
			if o := readDTObservability(t, eng, sess, "grand"); o.sloNull || o.resourceRows == 0 || !o.metric {
				t.Fatalf("fixture has no observability data for grand: %+v", o)
			}
			for _, stmt := range tc.stmts {
				sess.MustExec(stmt)
			}
			o := readDTObservability(t, eng, sess, "grand")
			if !o.sloNull || !o.p95Null {
				t.Errorf("DYNAMIC_TABLES lag-SLO columns of the new grand are not NULL: %+v", o)
			}
			// Its one billed job is its initialization.
			if o.resourceRows != 0 || o.meteringRows != 1 || o.metric {
				t.Errorf("the new grand inherits resource data: %+v", o)
			}
			if n := len(mustDT(t, eng, "grand").LagSeries()); n != 0 {
				t.Errorf("the new grand inherits %d lag samples", n)
			}
			// Its one refresh is the unmetered initialization.
			if c := mustDT(t, eng, "grand").Counts(); c.Attempts != 1 || c.CPUSeconds != 0 {
				t.Errorf("the new grand inherits resource totals %+v", c)
			}
			// The other DT keeps its data.
			if o := readDTObservability(t, eng, sess, "totals"); o.sloNull || o.resourceRows == 0 {
				t.Errorf("totals lost its observability data: %+v", o)
			}
		})
	}
	t.Run("undrop", func(t *testing.T) {
		eng, sess := obsFixture(t)
		before := readDTObservability(t, eng, sess, "grand")
		sess.MustExec(`DROP DYNAMIC TABLE grand`)
		sess.MustExec(`UNDROP DYNAMIC TABLE grand`)
		if after := readDTObservability(t, eng, sess, "grand"); after != before {
			t.Errorf("UNDROP changed grand's observability data: before %+v, after %+v", before, after)
		}
	})
}

// TestRenameKeepsObservability checks that ALTER DYNAMIC TABLE ... RENAME
// and SWAP carry a DT's lag samples, resource totals, resource events and
// metering rows to its new name: nothing stays under the old name, and
// DT_HEALTH's cpu_trend continues from the refreshes made before the
// rename.
func TestRenameKeepsObservability(t *testing.T) {
	t.Run("rename", func(t *testing.T) {
		eng, sess := obsFixture(t)
		before := readDTObservability(t, eng, sess, "grand")
		if before.sloNull || before.p95Null || before.resourceRows == 0 || before.meteringRows == 0 || !before.metric {
			t.Fatalf("fixture has no observability data for grand: %+v", before)
		}
		sess.MustExec(`ALTER DYNAMIC TABLE grand RENAME TO grand2`)
		after := readDTObservability(t, eng, sess, "grand2")
		if after.sloNull || after.p95Null {
			t.Errorf("DYNAMIC_TABLES lag-SLO columns are NULL for grand2 after the rename: %+v", after)
		}
		if after.resourceRows != before.resourceRows || after.meteringRows != before.meteringRows || !after.metric {
			t.Errorf("resource data did not follow the rename: before %+v, after %+v", before, after)
		}
		res := sess.MustExec(`SELECT count(*) FROM INFORMATION_SCHEMA.RESOURCE_HISTORY WHERE name = 'grand'`)
		if n := res.Rows[0][0].Int(); n != 0 {
			t.Errorf("RESOURCE_HISTORY keeps %d rows under the old name", n)
		}
		res = sess.MustExec(`SELECT count(*) FROM INFORMATION_SCHEMA.WAREHOUSE_METERING_HISTORY WHERE label = 'grand'`)
		if n := res.Rows[0][0].Int(); n != 0 {
			t.Errorf("WAREHOUSE_METERING_HISTORY keeps %d rows under the old name", n)
		}
		if strings.Contains(eng.MetricsText(), `dyntables_dt_cpu_seconds_total{dt="grand"}`) {
			t.Error("dyntables_dt_cpu_seconds_total keeps a series for the old name")
		}

		// More refreshes under the new name: the trend needs at least
		// four, so it reads NULL unless it spans the rename.
		historyRound(t, eng, sess)
		if o := readDTObservability(t, eng, sess, "grand2"); o.trendNull || o.resourceRows <= before.resourceRows {
			t.Errorf("DT_HEALTH cpu_trend does not continue across the rename: %+v", o)
		}
	})
	t.Run("swap", func(t *testing.T) {
		eng, sess := obsFixture(t)
		// A manual refresh of totals alone bills one more job for it than
		// for grand, so their metering row counts differ.
		sess.MustExec(`INSERT INTO events VALUES (3, 30)`)
		if err := sess.ManualRefresh("totals"); err != nil {
			t.Fatal(err)
		}
		obsTotals := readDTObservability(t, eng, sess, "totals")
		obsGrand := readDTObservability(t, eng, sess, "grand")
		if obsTotals.meteringRows == obsGrand.meteringRows {
			t.Fatalf("fixture bills totals and grand alike: %+v, %+v", obsTotals, obsGrand)
		}
		counters := func() map[string]core.RefreshCounts {
			return map[string]core.RefreshCounts{
				"totals": mustDT(t, eng, "totals").Counts(),
				"grand":  mustDT(t, eng, "grand").Counts(),
			}
		}
		totals, grand := counters()["totals"], counters()["grand"]
		if totals.Attempts == 0 || grand.Attempts == 0 || totals.CPUSeconds == 0 || grand.CPUSeconds == 0 {
			t.Fatalf("fixture has no resource totals: %+v", counters())
		}
		lagTotals := len(mustDT(t, eng, "totals").LagSeries())
		lagGrand := len(mustDT(t, eng, "grand").LagSeries())
		sess.MustExec(`ALTER DYNAMIC TABLE totals SWAP WITH grand`)
		if after := readDTObservability(t, eng, sess, "totals"); after != obsGrand {
			t.Errorf("totals after the swap reports %+v, grand before it %+v", after, obsGrand)
		}
		if after := readDTObservability(t, eng, sess, "grand"); after != obsTotals {
			t.Errorf("grand after the swap reports %+v, totals before it %+v", after, obsTotals)
		}
		if after := counters(); after["totals"] != grand || after["grand"] != totals {
			t.Errorf("resource totals did not swap: before totals %+v grand %+v, after %+v", totals, grand, after)
		}
		for name, want := range map[string]int{"totals": lagGrand, "grand": lagTotals} {
			series := mustDT(t, eng, name).LagSeries()
			if len(series) != want {
				t.Errorf("lag series of %s has %d samples after the swap, want %d", name, len(series), want)
			}
			for _, s := range series {
				if s.DTName != name {
					t.Errorf("lag sample of %s names %s", name, s.DTName)
					break
				}
			}
		}
	})
}

// TestHealthQueueWaitFollowsSwap checks that DT_HEALTH's queue-wait blame
// reads the queue wait of the job that billed the DT's own newest
// refresh: after a SWAP, each name reports the DT that now holds it, not
// the job last billed under that name.
func TestHealthQueueWaitFollowsSwap(t *testing.T) {
	eng := New()
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession()
	sess.MustExec(`CREATE WAREHOUSE wh`)
	sess.MustExec(`CREATE TABLE src (id INT)`)
	// Two independent DTs due at the same tick on one serial warehouse:
	// the second in name order queues behind the first.
	sess.MustExec(`CREATE DYNAMIC TABLE alpha TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT id FROM src`)
	sess.MustExec(`CREATE DYNAMIC TABLE beta TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT count(*) n FROM src`)
	sess.MustExec(`INSERT INTO src VALUES (1), (2)`)
	eng.AdvanceTime(2 * time.Minute)
	if err := eng.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	alpha, beta := mustDT(t, eng, "alpha"), mustDT(t, eng, "beta")
	queued := map[*core.DynamicTable]time.Duration{
		alpha: eng.phaseBreakdown(alpha, nil).QueueWait,
		beta:  eng.phaseBreakdown(beta, nil).QueueWait,
	}
	if queued[alpha] == queued[beta] {
		t.Fatalf("fixture queues alpha and beta alike: %v", queued[alpha])
	}
	sess.MustExec(`ALTER DYNAMIC TABLE alpha SWAP WITH beta`)
	for _, dt := range []*core.DynamicTable{alpha, beta} {
		if got := eng.phaseBreakdown(dt, nil).QueueWait; got != queued[dt] {
			t.Errorf("%s now blames queue wait %v, its own job queued %v", dt.Name, got, queued[dt])
		}
	}
}

// TestMeteringHistoryDerivedFromRefreshRecords checks that every
// WAREHOUSE_METERING_HISTORY row is the billed job of one refresh record:
// it joins DYNAMIC_TABLE_REFRESH_HISTORY on seq under its label, spans the
// record's start and end, bills its duration rounded up to whole seconds
// at its size's rate, and the rows come ordered by warehouse, then seq.
// Scheduled and manual refreshes on two warehouses are billed; NO_DATA
// refreshes are not.
func TestMeteringHistoryDerivedFromRefreshRecords(t *testing.T) {
	eng, sess := obsFixture(t)
	sess.MustExec(`CREATE WAREHOUSE big WAREHOUSE_SIZE = 'MEDIUM'`)
	sess.MustExec(`CREATE DYNAMIC TABLE side TARGET_LAG = '1 minute' WAREHOUSE = big
		AS SELECT id, v FROM events WHERE v > 10`)
	sess.MustExec(`INSERT INTO events VALUES (3, 30)`)
	if err := sess.ManualRefresh("grand"); err != nil {
		t.Fatal(err)
	}
	historyRound(t, eng, sess)

	res := sess.MustExec(`SELECT m.warehouse, m.size, m.label, m.seq, m.duration, m.credits,
			m.start_ts = h.start_ts AND m.end_ts = h.end_ts, h.action
		FROM INFORMATION_SCHEMA.WAREHOUSE_METERING_HISTORY m
		LEFT JOIN INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY h
			ON m.seq = h.seq AND m.label = h.dt_name`)
	rate := map[string]float64{"XSMALL": 1, "MEDIUM": 4}
	perWarehouse := map[string]int{}
	var lastWH string
	var lastSeq int64
	for _, row := range res.Rows {
		wh, size, seq := row[0].Str(), row[1].Str(), row[3].Int()
		if row[6].IsNull() || !row[6].Bool() {
			t.Errorf("metering row %v is not its refresh record's job", row)
			continue
		}
		if row[7].Str() == "NO_DATA" {
			t.Errorf("NO_DATA refresh billed: %v", row)
		}
		secs := math.Ceil(row[4].Interval().Seconds())
		if want := secs / 3600 * rate[size]; math.Abs(row[5].Float()-want) > 1e-12 {
			t.Errorf("metering row %v bills %v credits, want %v", row, row[5].Float(), want)
		}
		if wh < lastWH || wh == lastWH && seq <= lastSeq {
			t.Errorf("metering row %s/%d follows %s/%d", wh, seq, lastWH, lastSeq)
		}
		lastWH, lastSeq = wh, seq
		perWarehouse[wh]++
	}
	if perWarehouse["big"] == 0 || perWarehouse["wh"] == 0 {
		t.Fatalf("expected billed jobs on both warehouses, got %v", perWarehouse)
	}
	// Each warehouse's job count is its metering row count.
	for _, wh := range eng.sortedWarehouses() {
		if got := perWarehouse[wh.Name]; got != wh.JobCount() {
			t.Errorf("warehouse %s has %d metering rows and %d jobs", wh.Name, got, wh.JobCount())
		}
	}
}

// TestResourceHistoryStatementRowsAreQueryHistoryRows checks that each
// RESOURCE_HISTORY statement row is a metered QUERY_HISTORY statement,
// with the same seq, root_id, kind and rows, and that cursor statements
// and statements that failed to bind stay unmetered.
func TestResourceHistoryStatementRowsAreQueryHistoryRows(t *testing.T) {
	_, sess := obsFixture(t)
	if _, err := sess.Exec(`SELECT nope FROM events`); err == nil {
		t.Fatal("binding an unknown column should fail")
	}
	rows, err := sess.QueryContext(context.Background(), `SELECT id FROM events`)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	rows.Close()
	if _, err := sess.QueryContext(context.Background(), `SELECT nope FROM events`); err == nil {
		t.Fatal("binding a cursor over an unknown column should fail")
	}
	statements := sess.MustExec(`SELECT count(*) FROM INFORMATION_SCHEMA.QUERY_HISTORY`).Rows[0][0].Int()

	res := sess.MustExec(`SELECT r.seq, q.seq, r.root_id = q.root_id, r.name, q.kind, r.rows, q.rows
		FROM INFORMATION_SCHEMA.RESOURCE_HISTORY r
		LEFT JOIN INFORMATION_SCHEMA.QUERY_HISTORY q ON r.seq = q.seq
		WHERE r.kind = 'statement'`)
	if len(res.Rows) == 0 {
		t.Fatal("no statement rows in RESOURCE_HISTORY")
	}
	for _, row := range res.Rows {
		if row[1].IsNull() || fmt.Sprint(row[3], row[5]) != fmt.Sprint(row[4], row[6]) || !row[2].IsNull() && !row[2].Bool() {
			t.Errorf("statement resource row %v is not its QUERY_HISTORY row", row)
		}
	}
	// Every statement but the cursor and its failed bind is metered: the
	// failed Exec as an ERROR statement, and the count query too.
	if got, want := int64(len(res.Rows)), statements+1-2; got != want {
		t.Errorf("RESOURCE_HISTORY has %d statement rows, want %d (all statements but the two cursor ones)", got, want)
	}
}

// cloneFixture clones grand into g2 on an obsFixture-shaped engine and
// returns grand's data timestamp at the clone.
func cloneFixture(t *testing.T, eng *Engine, sess *Session) time.Time {
	t.Helper()
	base := mustDT(t, eng, "grand").DataTimestamp()
	sess.MustExec(`CREATE DYNAMIC TABLE g2 CLONE grand`)
	return base
}

// checkClonePeak checks that a clone's first lag sample peaks from the
// data timestamp it was cloned at.
func checkClonePeak(t *testing.T, eng *Engine, base time.Time) {
	t.Helper()
	series := mustDT(t, eng, "g2").LagSeries()
	if len(series) == 0 {
		t.Fatal("the clone has no lag sample")
	}
	if s := series[0]; s.Peak != s.At.Sub(base) {
		t.Errorf("the clone's first sample peaks at %v (trough %v), want %v from the cloned data timestamp",
			s.Peak, s.Trough, s.At.Sub(base))
	}
}

// TestCloneLagSeriesStartsFromSourceDataTS checks that a clone's first
// lag sample measures its peak from the data timestamp the clone
// inherited, also when the clone's first refresh comes after Close + Open.
func TestCloneLagSeriesStartsFromSourceDataTS(t *testing.T) {
	t.Run("live", func(t *testing.T) {
		eng, sess := obsFixture(t)
		base := cloneFixture(t, eng, sess)
		historyRound(t, eng, sess)
		checkClonePeak(t, eng, base)
	})
	t.Run("reopen", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		base := cloneFixture(t, eng, historyScript(t, eng))
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if eng, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		historyRound(t, eng, eng.NewSession())
		checkClonePeak(t, eng, base)
	})
}

// TestLagSeriesBaseSurvivesEviction checks that a history ring too small
// for a DT's whole history keeps the lag samples of the records it
// retains exactly as the full history derives them: the oldest retained
// sample peaks from the evicted record's data timestamp. Records leave
// the ring when a full ring takes a new one, when ALTER SYSTEM SET
// HISTORY_CAPACITY shrinks it, and the bound holds across Close + Open.
func TestLagSeriesBaseSurvivesEviction(t *testing.T) {
	full, _ := obsFixture(t)
	want := map[string][]obs.LagSample{}
	for _, name := range []string{"totals", "grand"} {
		want[name] = mustDT(t, full, name).LagSeries()
	}
	check := func(t *testing.T, eng *Engine) {
		t.Helper()
		for name, all := range want {
			got := mustDT(t, eng, name).LagSeries()
			if len(got) == 0 || len(got) > 2 {
				t.Fatalf("%s keeps %d lag samples in a ring of 2", name, len(got))
			}
			if suffix := all[len(all)-len(got):]; fmt.Sprint(got) != fmt.Sprint(suffix) {
				t.Errorf("%s lag samples in a ring of 2:\n%v\nwant the newest of the full history:\n%v", name, got, suffix)
			}
		}
	}
	t.Run("full_ring", func(t *testing.T) {
		eng, _ := obsFixture(t, WithConfig(Config{HistoryCapacity: 2}))
		check(t, eng)
	})
	t.Run("alter_system", func(t *testing.T) {
		eng, sess := obsFixture(t)
		sess.MustExec(`ALTER SYSTEM SET HISTORY_CAPACITY = 2`)
		check(t, eng)
	})
	t.Run("reopen", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := Open(dir, WithConfig(Config{HistoryCapacity: 2}))
		if err != nil {
			t.Fatal(err)
		}
		obsScript(t, eng)
		check(t, eng)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if eng, err = Open(dir, WithConfig(Config{HistoryCapacity: 2})); err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		check(t, eng)
	})
}
