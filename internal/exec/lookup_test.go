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

// BenchmarkLookupVsScan runs a range filter over a 50k-row table both
// ways, for candidate counts from a point read up to half the table:
// reading the range's candidates through a storage lookup, and filtering
// the memoized version batch (the scan). Where the lookup stops winning
// is where storage.SelectiveLookup's share bound belongs.
func BenchmarkLookupVsScan(b *testing.B) {
	const n = 50_000
	h := newHarness(b)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = ints(int64(i), int64(i%101))
	}
	tb := h.table("t", "id int, v int", rows...)
	seq := int64(tb.VersionCount())
	stmt, err := sql.Parse(`SELECT v FROM t WHERE id >= ? AND id < ?`)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := plan.NewBinder(h).BindSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		b.Fatal(err)
	}
	p := plan.Optimize(bound.Plan)
	batchOf := func(s *plan.Scan) (*types.Batch, error) { return s.Table.Batch(seq) }
	lookupOf := func(s *plan.Scan, r plan.KeyRange) (*types.Batch, bool, error) {
		return s.Table.Lookup(seq, r.Col, r.Lo, r.Hi)
	}
	for _, k := range []int{1, 500, n / 97, n / 8, n / 2} {
		lo := int64(n/4 - k/2)
		params := &plan.Params{Positional: []types.Value{types.NewInt(lo), types.NewInt(lo + int64(k))}}
		for _, arm := range []struct {
			name string
			ctx  *exec.Context
		}{
			{"lookup", &exec.Context{BatchOf: batchOf, LookupOf: lookupOf, Params: params, Now: time.Unix(0, 0)}},
			{"scan", &exec.Context{BatchOf: batchOf, Params: params, Now: time.Unix(0, 0)}},
		} {
			b.Run(fmt.Sprintf("candidates=%d/%s", k, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := exec.Run(p, arm.ctx)
					if err != nil {
						b.Fatal(err)
					}
					if len(out) != k {
						b.Fatalf("%d rows, want %d", len(out), k)
					}
				}
			})
		}
	}
}
