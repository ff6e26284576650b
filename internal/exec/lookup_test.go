package exec_test

import (
	"fmt"
	"testing"
	"time"

	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// BenchmarkLookupVsScan runs a range filter over a 50k-row table both
// ways, for candidate counts from a point read up to half the table:
// reading the range's candidates through a storage lookup, and filtering
// the memoized version batch (the scan). Where the lookup stops winning
// is where storage.SelectiveLookup's share bound belongs. It runs over two
// layouts of the id column's index: one run (layout=one-run, the table
// loaded at once) and a stack of several runs (layout=stack, half the
// table loaded at once and half in chunks, each followed by a lookup).
func BenchmarkLookupVsScan(b *testing.B) {
	for _, layout := range []struct {
		name  string
		chunk int
	}{{"one-run", 50_000}, {"stack", 1000}} {
		b.Run("layout="+layout.name, func(b *testing.B) { benchLookupVsScan(b, layout.chunk) })
	}
}

// benchLookupVsScan is BenchmarkLookupVsScan over a table whose second
// half is loaded in chunks of chunk rows.
func benchLookupVsScan(b *testing.B, chunk int) {
	const n = 50_000
	h := newHarness(b)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = ints(int64(i), int64(i%101))
	}
	first := max(n/2, chunk)
	tb := h.table("t", "id int, v int", rows[:first]...)
	for lo := first; lo < n; lo += chunk {
		var cs delta.ChangeSet
		for _, row := range rows[lo : lo+chunk] {
			cs.AddInsert(tb.NextRowID(), row)
		}
		v, err := tb.Apply(cs, h.ts())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := tb.Lookup(v.Seq, 0, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
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
