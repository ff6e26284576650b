package exec

import (
	"fmt"
	"math"
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
// restriction, allocates exactly as often. It also holds the table to
// allocating per batch, not per group: from 8 to 4096 groups, the count
// may grow by a few allocations per doubling of the groups (the slabs and
// the index growing), and not by one per group.
func TestAggregateBatchSteadyStateAllocs(t *testing.T) {
	schema := types.Schema{Columns: []types.Column{{Name: "g", Kind: types.KindInt}, {Name: "x", Kind: types.KindInt}}}
	allocs := func(n, groups int, affected map[string]bool) float64 {
		var ids []string
		var rows []types.Row
		for _, tr := range groupRows(n, groups) {
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
		if small, large := allocs(1000, 8, aff), allocs(4000, 8, aff); large != small {
			t.Errorf("affected %v: 4000 rows over 8 groups made %v allocations, 1000 rows %v; a row of a seen group should make none",
				aff != nil, large, small)
		}
	}
	base := allocs(16, 8, nil)
	for groups := 64; groups <= 4096; groups *= 8 {
		bound := base + 8*math.Log2(float64(groups)/8)
		if got := allocs(2*groups, groups, nil); got > bound {
			t.Errorf("%d groups made %v allocations, 8 groups %v; want at most %v", groups, got, base, bound)
		}
	}
}

// groupStateCost seeds a GroupState of COUNT(*), COUNT(x) and SUM(x) with
// one row per group, and returns the heap the state holds and the
// allocations seeding made, each per group.
func groupStateCost(groups int) (heapPerGroup, allocsPerGroup float64) {
	rows := groupRows(groups, groups)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap, mallocs := int64(ms.HeapAlloc), ms.Mallocs
	s := NewGroupState(countSum)
	if ok, err := s.Add(rows, &Context{}); !ok || err != nil {
		panic(fmt.Sprintf("seeding: ok %v, %v", ok, err))
	}
	runtime.ReadMemStats(&ms)
	mallocs = ms.Mallocs - mallocs
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap = int64(ms.HeapAlloc) - heap
	runtime.KeepAlive(rows)
	runtime.KeepAlive(s)
	return float64(heap) / float64(groups), float64(mallocs) / float64(groups)
}

// TestGroupStateHeapPerGroup holds a seeded GroupState of 100k groups to
// at most 150 bytes of heap and one allocation per group
// (BenchmarkGroupStateHeapPerGroup reports both).
func TestGroupStateHeapPerGroup(t *testing.T) {
	heap, allocs := groupStateCost(100_000)
	if heap > 150 || allocs > 1 {
		t.Errorf("a GroupState holds %.1f B and made %.2f allocations per group, want at most 150 B and 1", heap, allocs)
	}
}

// BenchmarkGroupStateHeapPerGroup reports the heap a GroupState holds per
// group, and the allocations seeding it makes per group, seeded with 100k
// groups of COUNT(*), COUNT(x) and SUM(x).
func BenchmarkGroupStateHeapPerGroup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		heap, allocs := groupStateCost(100_000)
		b.ReportMetric(heap, "heap-B/group")
		b.ReportMetric(allocs, "allocs/group")
	}
}

// TestGroupStateReusesSlotsAndCompactsArena churns a GroupState keyed by
// two columns, whose keys take the encoded index, through rounds that
// delete every group and add as many new ones. The freed slots must be
// reused, the arena of interned keys compacted rather than grown without
// bound, and the state must still agree with a fresh aggregation.
func TestGroupStateReusesSlotsAndCompactsArena(t *testing.T) {
	a := &plan.Aggregate{
		GroupBy: []plan.Expr{
			&plan.ColIdx{Idx: 0, Name: "g", Kind: types.KindInt},
			&plan.ColIdx{Idx: 1, Name: "h", Kind: types.KindString},
		},
		Aggs: []plan.AggExpr{
			{Kind: plan.AggCount},
			{Kind: plan.AggSum, Arg: &plan.ColIdx{Idx: 2, Name: "x", Kind: types.KindInt}},
		},
	}
	const groups, rounds = 200, 50
	round := func(r int) []TRow {
		rows := make([]TRow, groups)
		for i := range rows {
			rows[i] = TRow{Row: types.Row{types.NewInt(int64(i)), types.NewString(strconv.Itoa(r)), types.NewInt(int64(r))}}
		}
		return rows
	}
	s := NewGroupState(a)
	if ok, err := s.Add(round(0), &Context{}); !ok || err != nil {
		t.Fatalf("seeding: ok %v, %v", ok, err)
	}
	var changes []GroupChange
	for r := 1; r <= rounds; r++ {
		var ok bool
		var err error
		if changes, ok, err = s.Fold(round(r-1), round(r), &Context{}); !ok || err != nil {
			t.Fatalf("round %d: ok %v, %v", r, ok, err)
		}
	}
	if n := len(s.t.rows); n > 2*groups {
		t.Errorf("%d slots after %d rounds of %d groups, want freed slots reused", n, rounds, groups)
	}
	if ix := s.t.idx; ix.interned > 4*groups*len(s.t.key)+8192 {
		t.Errorf("the arena holds %d bytes of keys for %d live groups of %d-byte keys", ix.interned, groups, len(s.t.key))
	}
	want, err := AggregateRows(a, round(rounds), &Context{})
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 2*groups {
		t.Fatalf("the last Fold touched %d groups, want %d", len(changes), 2*groups)
	}
	for i, tr := range want {
		c := changes[groups+i]
		if c.ID != tr.ID || c.Old != nil || !c.New.KeyEqual(tr.Row) {
			t.Fatalf("change %d = %s %v → %v, want %s [] → %v", groups+i, c.ID, c.Old, c.New, tr.ID, tr.Row)
		}
	}
}

// TestDistinctAggregatesFoldEachValueOnce checks that SUM, AVG and
// COUNT(DISTINCT) fold each distinct non-NULL value once, on the row path
// and the columnar path, with INT 5 and FLOAT 5.0 as one value: over v =
// {5, 5, FLOAT 5.0, 7, NULL} they give 12, 6.0 and 2, where folding every
// value gives 22 and 5.5. SUM(DISTINCT) is FLOAT 12.0 whether the FLOAT
// comes before or after the INT it equals. Such an aggregate is not
// Invertible, so no GroupState ever folds it.
func TestDistinctAggregatesFoldEachValueOnce(t *testing.T) {
	v := &plan.ColIdx{Idx: 1, Name: "v"}
	a := &plan.Aggregate{
		GroupBy: []plan.Expr{&plan.ColIdx{Idx: 0, Name: "g", Kind: types.KindInt}},
		Aggs: []plan.AggExpr{
			{Kind: plan.AggSum, Arg: v, Distinct: true},
			{Kind: plan.AggAvg, Arg: v, Distinct: true},
			{Kind: plan.AggCount, Arg: v, Distinct: true},
			{Kind: plan.AggSum, Arg: v},
		},
	}
	want := types.Row{types.NewInt(1), types.NewFloat(12), types.NewFloat(6), types.NewInt(2), types.NewFloat(22)}
	schema := types.Schema{Columns: []types.Column{{Name: "g", Kind: types.KindInt}, {Name: "v", Kind: types.KindVariant}}}
	for _, order := range [][]types.Value{
		{types.NewInt(5), types.NewInt(5), types.NewFloat(5), types.NewInt(7), types.Null},
		{types.NewFloat(5), types.NewInt(5), types.NewInt(5), types.NewInt(7), types.Null},
	} {
		var rows []TRow
		for i, x := range order {
			rows = append(rows, TRow{ID: strconv.Itoa(i), Row: types.Row{types.NewInt(1), x}})
		}
		check := func(label string, got []TRow, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s over %v: %v", label, order, err)
			}
			if len(got) != 1 || !got[0].Row.Equal(want) || got[0].Row[1].Kind() != types.KindFloat {
				t.Fatalf("%s over %v = %v, want one row %v with a FLOAT sum", label, order, got, want)
			}
		}
		got, err := AggregateRows(a, rows, &Context{})
		check("AggregateRows", got, err)
		ids, vals := make([]string, len(rows)), make([]types.Row, len(rows))
		for i, r := range rows {
			ids[i], vals[i] = r.ID, r.Row
		}
		got, err = aggregateBatch(a, &batchRes{b: types.NewBatch(schema, ids, vals)}, nil, &Context{})
		check("aggregateBatch", got, err)
	}

	for _, agg := range a.Aggs[:3] {
		sum := &plan.Aggregate{GroupBy: a.GroupBy, Aggs: []plan.AggExpr{agg}}
		if Invertible(sum) {
			t.Errorf("%s is Invertible; a GroupState cannot take a DISTINCT value back", agg.Fingerprint())
		}
	}
}
