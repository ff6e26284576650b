package exec_test

import (
	"fmt"
	"testing"
	"time"

	"dyntables/internal/exec"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// BenchmarkJoin runs the benchmark's two joins embedded, over 50k
// facts(id, dim, grp, v, note) and 1000 dims(dim, name): join_agg, the
// facts of one of 97 groups joined and aggregated by name, its filter
// reading the group's rows through a lookup as a session's statement
// does; and dt_join's defining query, the whole join, as its full
// refresh computes it.
func BenchmarkJoin(b *testing.B) {
	const n = 50_000
	h := newHarness(b)
	facts := make([]types.Row, n)
	for i := range facts {
		id := int64(i)
		facts[i] = types.Row{types.NewInt(id), types.NewInt(id % 1000), types.NewInt(id % 97), types.NewInt(id % 101), types.NewString(fmt.Sprintf("n%d", id))}
	}
	h.table("facts", "id int, dim int, grp int, v int, note string", facts...)
	dims := make([]types.Row, 1000)
	for i := range dims {
		dims[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d%d", i))}
	}
	h.table("dims", "dim int, name string", dims...)
	ctx := &exec.Context{
		BatchOf: func(s *plan.Scan) (*types.Batch, error) { return s.Table.Batch(int64(s.Table.VersionCount())) },
		LookupOf: func(s *plan.Scan, r plan.KeyRange) (*types.Batch, bool, error) {
			return s.Table.SelectiveLookup(int64(s.Table.VersionCount()), r.Col, r.Lo, r.Hi)
		},
		Params: &plan.Params{Positional: []types.Value{types.NewInt(5)}},
		Now:    time.Unix(0, 0),
	}
	for _, q := range []struct {
		name, sql string
		rows      int
	}{
		{"join_agg", `SELECT d.name, count(*) c, sum(f.v) total FROM facts f JOIN dims d ON f.dim = d.dim WHERE f.grp = ? GROUP BY d.name`, 516},
		{"dt_join", `SELECT f.id, f.v, d.name FROM facts f JOIN dims d ON f.dim = d.dim`, n},
	} {
		stmt, err := sql.Parse(q.sql)
		if err != nil {
			b.Fatal(err)
		}
		bound, err := plan.NewBinder(h).BindSelect(stmt.(*sql.SelectStmt))
		if err != nil {
			b.Fatal(err)
		}
		p := plan.Optimize(bound.Plan)
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := exec.Run(p, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != q.rows {
					b.Fatalf("%d rows, want %d", len(out), q.rows)
				}
			}
		})
	}
}
