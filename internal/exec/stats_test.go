package exec_test

import (
	"testing"
	"time"

	"dyntables/internal/exec"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// TestStatsProfileColumnarPath checks that collecting per-node stats
// (EXPLAIN ANALYZE) profiles the columnar path instead of switching it
// off: a Scan→Filter→Project chain, a join of two scans and an aggregate
// fused over either read version batches, never row maps, and every plan
// node is observed exactly once with its output row count. With LookupOf set, a
// selective key filter reads its candidates without the version batch,
// and its Scan node reports the candidates; an unselective one scans.
func TestStatsProfileColumnarPath(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int", ints(1, 10), ints(2, 20), ints(3, 30), ints(4, 40))
	h.table("u", "a int, c int", ints(2, 5), ints(3, 6), ints(3, 7), ints(9, 9))

	cases := []struct {
		query  string
		lookup bool
		// batchCalls is how often the scan reads the version batch.
		batchCalls int
		// rows is each node's expected output, parents before children.
		rows []int64
	}{
		// Project → Filter → Scan.
		{`SELECT a, b * 2 FROM t WHERE a >= 2`, false, 1, []int64{3, 3, 4}},
		// Project → Aggregate → Filter → Scan.
		{`SELECT a % 2, sum(b) FROM t WHERE a >= 2 GROUP BY a % 2`, false, 1, []int64{2, 2, 3, 4}},
		// Project → Filter → Scan reading one candidate through the lookup.
		{`SELECT b FROM t WHERE a = 3`, true, 0, []int64{1, 1, 1}},
		// Three candidates of four rows are not selective: the scan runs.
		{`SELECT b FROM t WHERE a >= 2`, true, 1, []int64{3, 3, 4}},
		// Project → Join → (Scan t, Scan u).
		{`SELECT t.b, u.c FROM t JOIN u ON t.a = u.a`, false, 2, []int64{3, 3, 4, 4}},
		// Project → Aggregate → Join → (Filter → Scan t, Scan u).
		{`SELECT u.a, sum(t.b) FROM t JOIN u ON t.a = u.a WHERE t.a >= 2 GROUP BY u.a`, false, 2, []int64{2, 2, 3, 3, 4, 4}},
		// Project → Join[LEFT] → (Scan t, Scan u).
		{`SELECT t.a, u.c FROM t LEFT JOIN u ON t.a = u.a`, false, 2, []int64{5, 5, 4, 4}},
	}
	for _, tc := range cases {
		stmt, err := sql.Parse(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := plan.NewBinder(h).BindSelect(stmt.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		p := plan.Optimize(bound.Plan)

		var batchCalls, rowCalls int
		stats := exec.NewNodeStats()
		ctx := &exec.Context{
			RowsOf: func(s *plan.Scan) (map[string]types.Row, error) {
				rowCalls++
				return s.Table.Rows(int64(s.Table.VersionCount()))
			},
			BatchOf: func(s *plan.Scan) (*types.Batch, error) {
				batchCalls++
				return s.Table.Batch(int64(s.Table.VersionCount()))
			},
			Now:   time.Date(2025, 4, 1, 12, 0, 0, 0, time.UTC),
			Stats: stats,
		}
		if tc.lookup {
			ctx.LookupOf = func(s *plan.Scan, r plan.KeyRange) (*types.Batch, bool, error) {
				return s.Table.SelectiveLookup(int64(s.Table.VersionCount()), r.Col, r.Lo, r.Hi)
			}
		}
		out, err := exec.Collect(exec.Stream(p, ctx))
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if batchCalls != tc.batchCalls || rowCalls != 0 {
			t.Errorf("%s: BatchOf ran %d times, RowsOf %d; want %d and 0", tc.query, batchCalls, rowCalls, tc.batchCalls)
		}
		if got := int64(len(out)); got != tc.rows[0] {
			t.Errorf("%s: returned %d rows, want %d", tc.query, got, tc.rows[0])
		}

		var nodes []plan.Node
		plan.Walk(p, func(n plan.Node) { nodes = append(nodes, n) })
		if len(nodes) != len(tc.rows) {
			t.Fatalf("%s: plan has %d nodes, want %d:\n%s", tc.query, len(nodes), len(tc.rows), plan.Explain(p))
		}
		for i, n := range nodes {
			st, ok := stats.Lookup(n)
			if !ok {
				t.Errorf("%s: %s never observed", tc.query, n.Describe())
				continue
			}
			if st.Loops != 1 || st.Rows != tc.rows[i] {
				t.Errorf("%s: %s observed rows=%d loops=%d, want rows=%d loops=1",
					tc.query, n.Describe(), st.Rows, st.Loops, tc.rows[i])
			}
		}
	}
}
