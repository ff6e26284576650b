package dyntables

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dyntables/internal/warehouse"
)

// healthFixture builds a DAG where one upstream is deliberately slow:
// src feeds slow_up (20 rows/tick at 5 virtual seconds per row — every
// refresh takes ~102s against a 1-minute target), slow_up feeds down on
// its own warehouse (so down's own queue is empty and the blame must
// point at the upstream), and tiny feeds fast (1 row/tick, ~7s jobs,
// a comfortable 5-minute target) as a healthy control. Ticks advance
// 30s each.
func healthFixture(t *testing.T) (*Engine, *Session) {
	t.Helper()
	eng := New(WithCostModel(warehouse.CostModel{Fixed: 2 * time.Second, PerRow: 5 * time.Second}))
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession()
	sess.MustExec(`CREATE WAREHOUSE wh_up`)
	sess.MustExec(`CREATE WAREHOUSE wh_down`)
	sess.MustExec(`CREATE WAREHOUSE wh_fast`)
	sess.MustExec(`CREATE TABLE src (k INT, v INT)`)
	sess.MustExec(`CREATE TABLE tiny (k INT)`)
	sess.MustExec(`CREATE DYNAMIC TABLE slow_up TARGET_LAG = '1 minute' WAREHOUSE = wh_up
		AS SELECT k, sum(v) s FROM src GROUP BY k`)
	sess.MustExec(`CREATE DYNAMIC TABLE down TARGET_LAG = '1 minute' WAREHOUSE = wh_down
		AS SELECT k, s FROM slow_up WHERE s >= 0`)
	sess.MustExec(`CREATE DYNAMIC TABLE fast TARGET_LAG = '5 minutes' WAREHOUSE = wh_fast
		AS SELECT count(*) c FROM tiny`)

	for tick := 0; tick < 10; tick++ {
		var vals []string
		for i := 0; i < 20; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", i%5, tick*20+i))
		}
		sess.MustExec(`INSERT INTO src VALUES ` + strings.Join(vals, ", "))
		sess.MustExec(fmt.Sprintf(`INSERT INTO tiny VALUES (%d)`, tick))
		eng.AdvanceTime(30 * time.Second)
		if err := eng.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	return eng, sess
}

// TestHealthBlamesSlowUpstream is the end-to-end health acceptance: a
// deliberately slow upstream blows the downstream's lag SLO, and
// DT_HEALTH classifies the downstream MISSING_SLO with a blame chain
// naming the slow upstream and the phase that consumed the budget,
// while the fast control DT stays healthy.
func TestHealthBlamesSlowUpstream(t *testing.T) {
	_, sess := healthFixture(t)

	res, err := sess.Query(`SELECT dt, status, blame, blame_phase, blame_cost
		FROM INFORMATION_SCHEMA.DT_HEALTH`)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range res.Rows {
		vals := make([]string, len(row))
		for i, v := range row {
			vals[i] = v.String()
		}
		rows[vals[0]] = vals
	}
	for _, name := range []string{"slow_up", "down", "fast"} {
		if _, ok := rows[name]; !ok {
			t.Fatalf("DT_HEALTH has no row for %s (got %v)", name, rows)
		}
	}
	if got := rows["fast"][1]; got != "HEALTHY" {
		t.Errorf("fast control DT is %s, want HEALTHY", got)
	}
	if got := rows["slow_up"][1]; got != "MISSING_SLO" {
		t.Errorf("slow_up is %s, want MISSING_SLO", got)
	}
	down := rows["down"]
	if down[1] != "MISSING_SLO" {
		t.Fatalf("down is %s, want MISSING_SLO (row %v)", down[1], down)
	}
	if down[2] != "slow_up" {
		t.Errorf("down's blame is %q, want slow_up", down[2])
	}
	validPhases := map[string]bool{
		"queue": true, "bind": true, "ivm.eval": true, "ivm.delta": true,
		"merge": true, "exec": true,
	}
	if !validPhases[down[3]] {
		t.Errorf("down's blame_phase %q is not a known phase", down[3])
	}
	if down[4] == "NULL" || down[4] == "" {
		t.Errorf("down's blame_cost is empty")
	}

	// SHOW HEALTH renders the same rows through the statement layer.
	show, err := sess.Exec(`SHOW HEALTH`)
	if err != nil {
		t.Fatal(err)
	}
	if len(show.Rows) != len(res.Rows) {
		t.Errorf("SHOW HEALTH returned %d rows, DT_HEALTH %d", len(show.Rows), len(res.Rows))
	}
}

// TestResourceHistoryJoins checks the resource-attribution plumbing:
// refresh resource rows carry a positive CPU and alloc figures and join
// the span forest on root_id, and statement resource rows join
// QUERY_HISTORY.
func TestResourceHistoryJoins(t *testing.T) {
	_, sess := healthFixture(t)

	res, err := sess.Query(`SELECT count(*) FROM INFORMATION_SCHEMA.RESOURCE_HISTORY
		WHERE kind = 'refresh' AND alloc_bytes >= 0 AND rows > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() == 0 {
		t.Fatal("no refresh resource events with row counts recorded")
	}

	res, err = sess.Query(`SELECT name, cpu FROM INFORMATION_SCHEMA.RESOURCE_HISTORY WHERE kind = 'refresh'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if cpu := row[1].Interval(); cpu <= 0 {
			t.Fatalf("refresh of %s metered cpu = %v, want > 0", row[0], cpu)
		}
	}

	res, err = sess.Query(`SELECT count(*)
		FROM INFORMATION_SCHEMA.RESOURCE_HISTORY r
		JOIN INFORMATION_SCHEMA.TRACE_SPANS t ON r.root_id = t.root_id
		WHERE r.kind = 'refresh' AND t.parent_id IS NULL AND t.name = 'refresh'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() == 0 {
		t.Fatal("RESOURCE_HISTORY refresh rows do not join TRACE_SPANS on root_id")
	}

	res, err = sess.Query(`SELECT count(*)
		FROM INFORMATION_SCHEMA.RESOURCE_HISTORY r
		JOIN INFORMATION_SCHEMA.QUERY_HISTORY q ON r.root_id = q.root_id
		WHERE r.kind = 'statement'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() == 0 {
		t.Fatal("RESOURCE_HISTORY statement rows do not join QUERY_HISTORY on root_id")
	}
}

// TestExplainAnalyzeResourceFooter checks the footer line reports the
// run's CPU and allocation figures alongside the row count.
func TestExplainAnalyzeResourceFooter(t *testing.T) {
	_, sess := healthFixture(t)
	res, err := sess.Exec(`EXPLAIN ANALYZE SELECT k, s FROM slow_up`)
	if err != nil {
		t.Fatal(err)
	}
	footer := res.Rows[len(res.Rows)-1][0].String()
	if !strings.Contains(footer, "cpu=") || !strings.Contains(footer, "alloc_bytes=") {
		t.Errorf("EXPLAIN ANALYZE footer %q lacks cpu/alloc figures", footer)
	}
}

// TestMetricsResourceFamilies checks the new Prometheus families render:
// per-DT CPU/alloc counters, table footprint gauges, the health-state
// enum, and the Go runtime gauges.
func TestMetricsResourceFamilies(t *testing.T) {
	eng, sess := healthFixture(t)
	// slow_up's first incremental refresh (GROUP BY k) looks src.k up,
	// which indexes k over src's 40-entry row log: 12 B each. It touches
	// all five groups, so the lookup declines to a scan, but only after
	// the run that shows it is built. That refresh then seeds slow_up's
	// stored accumulators, and the later ones fold their Δ into them
	// without reading src, so k's run stays at 40 entries.
	if !strings.Contains(eng.MetricsText(), `dyntables_table_index_bytes{table="src"} 480`+"\n") {
		t.Errorf("src's lookup index is not k's 480 B after slow_up's refreshes")
	}
	// A key lookup of src indexes v over the 200-entry log: 2400 B more.
	if res := sess.MustExec(`SELECT k FROM src WHERE v = 7`); len(res.Rows) != 1 {
		t.Fatalf("point read returned %d rows", len(res.Rows))
	}
	text := eng.MetricsText()
	for _, family := range []string{
		"dyntables_dt_cpu_seconds_total",
		"dyntables_dt_alloc_bytes_total",
		"dyntables_table_versions",
		"dyntables_table_live_rows",
		"dyntables_table_chain_rows",
		"dyntables_table_bytes",
		"dyntables_table_index_bytes",
		"dyntables_dt_health_state",
		"dyntables_go_heap_inuse_bytes",
		"dyntables_go_goroutines",
		"dyntables_go_gc_pause_seconds_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("MetricsText lacks the %s family", family)
		}
	}
	if !strings.Contains(text, `dyntables_dt_cpu_seconds_total{dt="slow_up"}`) {
		t.Errorf("no per-DT CPU counter for slow_up:\n%s", text)
	}
	if !strings.Contains(text, `dyntables_table_bytes{table="src"}`) {
		t.Errorf("no footprint gauge for table src")
	}
	if !strings.Contains(text, `dyntables_table_index_bytes{table="src"} 2880`+"\n") {
		t.Errorf("src's lookup index is not the 480 B of k plus the 2400 B of v after a key lookup")
	}
}
