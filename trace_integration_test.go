package dyntables

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpansParallelRefresh drives a 4-worker refresher over sibling
// DTs while a second session issues queries, then checks the span forest
// is complete and joinable: refresher.tick → wave → refresh.exec plus a
// refresh root per DT whose root_id matches DYNAMIC_TABLE_REFRESH_HISTORY.
// Run under -race this also exercises the recorder's concurrency.
func TestTraceSpansParallelRefresh(t *testing.T) {
	eng := New(WithConfig(Config{RefreshWorkers: 4}))
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession()
	sess.MustExec(`CREATE WAREHOUSE wh`)
	sess.MustExec(`CREATE TABLE src (k INT, v INT)`)
	for i := 0; i < 6; i++ {
		sess.MustExec(fmt.Sprintf(`CREATE DYNAMIC TABLE d%d TARGET_LAG = '1 minute' WAREHOUSE = wh
			AS SELECT k, sum(v) s FROM src GROUP BY k`, i))
	}
	for pass := 0; pass < 3; pass++ {
		sess.MustExec(`INSERT INTO src VALUES (1, 10), (2, 20)`)
		eng.AdvanceTime(2 * time.Minute)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			s2 := eng.NewSession()
			defer s2.Close()
			for i := 0; i < 5; i++ {
				if _, err := s2.Query(`SELECT count(*) FROM src`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		if err := eng.RunScheduler(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}

	names := map[string]bool{}
	for _, rec := range eng.Tracer().Snapshot() {
		names[rec.Name] = true
	}
	for _, want := range []string{"refresher.tick", "wave", "refresh.exec", "refresh", "statement"} {
		if !names[want] {
			t.Errorf("span forest is missing %q spans (got %v)", want, names)
		}
	}

	// Every traced refresh is joinable from the refresh history by root id.
	res, err := sess.Query(`
		SELECT count(*)
		FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY h
		JOIN INFORMATION_SCHEMA.TRACE_SPANS t ON h.root_id = t.root_id
		WHERE t.parent_id IS NULL AND t.name = 'refresh'`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n == 0 {
		t.Fatal("DYNAMIC_TABLE_REFRESH_HISTORY.root_id does not join TRACE_SPANS")
	}
}

// TestExplainAnalyzeCancellation cancels an EXPLAIN ANALYZE run: the
// statement must surface context.Canceled, leave no cursor pinned, and
// publish a CANCELED event to QUERY_HISTORY.
func TestExplainAnalyzeCancellation(t *testing.T) {
	eng, sess := obsFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sess.ExecContext(ctx, `EXPLAIN ANALYZE SELECT id, count(*) FROM events GROUP BY id`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled EXPLAIN ANALYZE returned %v, want context.Canceled", err)
	}
	if n := eng.OpenCursors(); n != 0 {
		t.Fatalf("canceled EXPLAIN ANALYZE left %d cursors open", n)
	}
	res, err := sess.Query(`SELECT count(*) FROM INFORMATION_SCHEMA.QUERY_HISTORY
		WHERE status = 'CANCELED'`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n == 0 {
		t.Fatal("QUERY_HISTORY did not record the canceled statement")
	}
}

// TestExplainAnalyzeObservesEveryNode checks that EXPLAIN ANALYZE reports
// the plan that actually ran: every node executed (columnar chains, an
// aggregate fused over one, joins of two scans on the columnar path, and
// a LIMIT over a UNION ALL, whose branches all run), and the root's
// actual rows equal the rows the SELECT returns.
func TestExplainAnalyzeObservesEveryNode(t *testing.T) {
	_, sess := obsFixture(t)
	actualRows := regexp.MustCompile(`actual rows=(\d+) `)
	for _, q := range []string{
		`SELECT id, v FROM events WHERE v > 10`,
		`SELECT id, count(*) FROM events WHERE v > 0 GROUP BY id`,
		`SELECT id FROM events UNION ALL SELECT id FROM totals LIMIT 2`,
		`SELECT e.id, t.c FROM events e JOIN totals t ON e.id = t.id`,
		`SELECT t.id, sum(e.v) FROM events e JOIN totals t ON e.id = t.id GROUP BY t.id`,
	} {
		want, err := sess.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res, err := sess.Exec(`EXPLAIN ANALYZE ` + q)
		if err != nil {
			t.Fatalf("EXPLAIN ANALYZE %s: %v", q, err)
		}
		var lines []string
		for _, r := range res.Rows {
			lines = append(lines, r[0].Str())
		}
		plan := strings.Join(lines, "\n")
		if strings.Contains(plan, "(never executed)") {
			t.Errorf("%s: EXPLAIN ANALYZE reports unexecuted nodes:\n%s", q, plan)
		}
		if nodes, once := strings.Count(plan, "(actual rows="), strings.Count(plan, " loops=1 "); once != nodes {
			t.Errorf("%s: %d of %d nodes report loops=1:\n%s", q, once, nodes, plan)
		}
		m := actualRows.FindStringSubmatch(lines[0])
		if m == nil {
			t.Fatalf("%s: root line %q has no actual rows", q, lines[0])
		}
		if got, _ := strconv.Atoi(m[1]); got != len(want.Rows) {
			t.Errorf("%s: root actual rows=%d, SELECT returned %d:\n%s", q, got, len(want.Rows), plan)
		}
	}
}

// TestCursorCancellationMidScan cancels a streaming cursor between rows:
// the next Next observes the cancellation, release unpins the snapshot
// (OpenCursors drops to zero), and QUERY_HISTORY records CANCELED with
// the rows actually served before the abort.
func TestCursorCancellationMidScan(t *testing.T) {
	eng, sess := obsFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := sess.QueryContext(ctx, `SELECT id, v FROM events`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cursor error = %v, want context.Canceled", err)
	}
	rows.Close()
	if n := eng.OpenCursors(); n != 0 {
		t.Fatalf("canceled cursor left %d cursors open", n)
	}
	res, err := sess.Query(`SELECT rows, text FROM INFORMATION_SCHEMA.QUERY_HISTORY
		WHERE status = 'CANCELED' AND kind = 'SELECT'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("QUERY_HISTORY did not record the canceled cursor")
	}
	ev := res.Rows[0]
	if served := ev[0].Int(); served < 1 {
		t.Fatalf("canceled cursor recorded %d served rows, want >= 1", served)
	}
	if text := ev[1].Str(); !strings.Contains(text, "SELECT id, v FROM events") {
		t.Fatalf("recorded text = %q", text)
	}
}

// TestQueryHistoryCapacityLive rebinds the statement ring at runtime via
// ALTER SYSTEM SET HISTORY_CAPACITY and checks the same knob turns the
// tracer on for an engine built with recording disabled.
func TestQueryHistoryCapacityLive(t *testing.T) {
	eng := New()
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession()
	sess.MustExec(`CREATE WAREHOUSE wh`)
	sess.MustExec(`CREATE TABLE t (a INT)`)
	for i := 0; i < 20; i++ {
		sess.MustExec(`INSERT INTO t VALUES (1)`)
	}
	if n := len(eng.Observability().Statements()); n <= 4 {
		t.Fatalf("fixture recorded only %d statements", n)
	}
	sess.MustExec(`ALTER SYSTEM SET HISTORY_CAPACITY = 4`)
	if n := len(eng.Observability().Statements()); n > 4 {
		t.Fatalf("statement ring holds %d events after SET HISTORY_CAPACITY = 4", n)
	}
	for i := 0; i < 10; i++ {
		sess.MustExec(`INSERT INTO t VALUES (2)`)
	}
	if n := len(eng.Observability().Statements()); n > 4 {
		t.Fatalf("statement ring grew to %d events past its live rebound", n)
	}

	// Disabled engine: no spans, no statements, until the knob flips.
	eng2 := New(WithConfig(Config{HistoryCapacity: -1}))
	t.Cleanup(func() { eng2.Close() })
	sess2 := eng2.NewSession()
	sess2.MustExec(`CREATE TABLE u (a INT)`)
	sess2.MustExec(`INSERT INTO u VALUES (1)`)
	if n := eng2.Tracer().SpanCount(); n != 0 {
		t.Fatalf("disabled tracer recorded %d spans", n)
	}
	if n := len(eng2.Observability().Statements()); n != 0 {
		t.Fatalf("disabled recorder retained %d statement events", n)
	}
	sess2.MustExec(`ALTER SYSTEM SET HISTORY_CAPACITY = 8`)
	sess2.MustExec(`INSERT INTO u VALUES (2)`)
	if n := eng2.Tracer().SpanCount(); n == 0 {
		t.Fatal("SET HISTORY_CAPACITY did not enable the tracer")
	}
	if n := len(eng2.Observability().Statements()); n == 0 {
		t.Fatal("SET HISTORY_CAPACITY did not enable statement recording")
	}
}
