package exec

import (
	"runtime"
	"strconv"
	"testing"

	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// countSum is GROUP BY g with COUNT(*), COUNT(x) and SUM(x) over rows
// (g INT, x INT).
var countSum = &plan.Aggregate{
	GroupBy: []plan.Expr{&plan.ColIdx{Idx: 0, Name: "g", Kind: types.KindInt}},
	Aggs: []plan.AggExpr{
		{Kind: plan.AggCount},
		{Kind: plan.AggCount, Arg: &plan.ColIdx{Idx: 1, Name: "x", Kind: types.KindInt}},
		{Kind: plan.AggSum, Arg: &plan.ColIdx{Idx: 1, Name: "x", Kind: types.KindInt}},
	},
}

// groupRows returns n rows of (g, x) over the given number of groups.
func groupRows(n, groups int) []TRow {
	rows := make([]TRow, n)
	for i := range rows {
		rows[i] = TRow{ID: strconv.Itoa(i), Row: types.Row{types.NewInt(int64(i % groups)), types.NewInt(int64(i % 7))}}
	}
	return rows
}

// TestAggregateBatchSteadyStateAllocs holds the columnar aggregation
// loop's steady state at zero allocations per row: aggregating four times
// the rows over the same groups, with and without the affected-group
// restriction, allocates exactly as often.
func TestAggregateBatchSteadyStateAllocs(t *testing.T) {
	schema := types.Schema{Columns: []types.Column{{Name: "g", Kind: types.KindInt}, {Name: "x", Kind: types.KindInt}}}
	allocs := func(n int, affected map[string]bool) float64 {
		var ids []string
		var rows []types.Row
		for _, tr := range groupRows(n, 8) {
			ids, rows = append(ids, tr.ID), append(rows, tr.Row)
		}
		in := &batchRes{b: types.NewBatch(schema, ids, rows)}
		return testing.AllocsPerRun(20, func() {
			if _, err := aggregateBatch(countSum, in, affected, &Context{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	affected := map[string]bool{}
	for g := int64(0); g < 4; g++ {
		affected[string(types.NewInt(g).EncodeKey(nil))] = true
	}
	for _, aff := range []map[string]bool{nil, affected} {
		if small, large := allocs(1000, aff), allocs(4000, aff); large != small {
			t.Errorf("affected %v: 4000 rows over 8 groups made %v allocations, 1000 rows %v; a row of a seen group should make none",
				aff != nil, large, small)
		}
	}
}

// BenchmarkGroupStateHeapPerGroup reports the heap a GroupState holds per
// group, seeded with 100k groups of COUNT(*), COUNT(x) and SUM(x).
func BenchmarkGroupStateHeapPerGroup(b *testing.B) {
	const groups = 100_000
	rows := groupRows(groups, groups)
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := int64(ms.HeapAlloc)
		s := NewGroupState(countSum)
		if ok, err := s.Add(rows, &Context{}); !ok || err != nil {
			b.Fatalf("seeding: ok %v, %v", ok, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(int64(ms.HeapAlloc)-before)/groups, "heap-B/group")
		runtime.KeepAlive(s)
	}
}
