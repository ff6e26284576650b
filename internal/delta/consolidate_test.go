package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dyntables/internal/types"
)

// consolidateSignedRef is ConsolidateSigned as it was before it grouped by
// row ID: one string key per change, sorted whole. The new implementation
// must return the same change set in the same order.
func consolidateSignedRef(cs ChangeSet) ChangeSet {
	type entry struct {
		rowID string
		row   types.Row
		count int
	}
	sums := make(map[string]*entry, len(cs.Changes))
	var order []string
	for _, c := range cs.Changes {
		key := c.RowID + "\x00" + c.Row.Key()
		e, ok := sums[key]
		if !ok {
			e = &entry{rowID: c.RowID, row: c.Row}
			sums[key] = e
			order = append(order, key)
		}
		if c.Action == Insert {
			e.count++
		} else {
			e.count--
		}
	}
	sort.Strings(order)
	var out ChangeSet
	for _, key := range order {
		e := sums[key]
		for i := 0; i > e.count; i-- {
			out.AddDelete(e.rowID, e.row)
		}
	}
	for _, key := range order {
		e := sums[key]
		for i := 0; i < e.count; i++ {
			out.AddInsert(e.rowID, e.row)
		}
	}
	return out
}

// randomValue draws from a small domain that makes equal rows likely and
// holds INT 1 beside FLOAT 1.0, NULLs and strings.
func randomValue(r *rand.Rand) types.Value {
	switch r.Intn(6) {
	case 0:
		return types.Null
	case 1:
		return types.NewFloat(float64(r.Intn(3)))
	case 2:
		return types.NewString(fmt.Sprintf("s%d", r.Intn(3)))
	default:
		return types.NewInt(int64(r.Intn(3)))
	}
}

// randomSigned draws a signed multiset with repeated row IDs, rows that
// repeat under either action, and IDs that are prefixes of each other.
func randomSigned(r *rand.Rand, n int) ChangeSet {
	var cs ChangeSet
	ids := []string{"a", "ab", "b", "t1:1", "t1:10", "t1:2", "(t1:1*t2:3)", "g:ff"}
	var prev []Change
	for len(cs.Changes) < n {
		var c Change
		if len(prev) > 0 && r.Intn(3) == 0 {
			// Repeat an earlier change's row, often under the other action.
			c = prev[r.Intn(len(prev))]
			if r.Intn(2) == 0 {
				c.Action = 1 - c.Action
			}
		} else {
			row := make(types.Row, 1+r.Intn(2))
			for i := range row {
				row[i] = randomValue(r)
			}
			c = Change{RowID: ids[r.Intn(len(ids))], Action: Action(r.Intn(2)), Row: row}
		}
		cs.Changes = append(cs.Changes, c)
		prev = append(prev, c)
	}
	return cs
}

// sameChanges compares two change sets change by change, rows by kind and
// payload (Equal would let INT 1 stand for FLOAT 1.0).
func sameChanges(a, b ChangeSet) bool {
	if len(a.Changes) != len(b.Changes) {
		return false
	}
	for i := range a.Changes {
		x, y := a.Changes[i], b.Changes[i]
		if x.RowID != y.RowID || x.Action != y.Action || x.Row.Key() != y.Row.Key() {
			return false
		}
	}
	return true
}

func TestConsolidateSignedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		cs := randomSigned(r, r.Intn(40))
		got, want := cs.ConsolidateSigned(), consolidateSignedRef(cs)
		if !sameChanges(got, want) {
			t.Fatalf("trial %d: input %v\ngot  %v\nwant %v", trial, cs.Changes, got.Changes, want.Changes)
		}
	}
}

func TestConsolidateSignedKeepsIntAndFloatApart(t *testing.T) {
	var cs ChangeSet
	cs.AddDelete("r", types.Row{types.NewInt(1)})
	cs.AddInsert("r", types.Row{types.NewFloat(1)})
	cs.AddInsert("r", types.Row{types.Null})
	cs.AddDelete("r", types.Row{types.Null})
	got := cs.ConsolidateSigned()
	if len(got.Changes) != 2 || got.Changes[0].Row[0].Kind() != types.KindInt || got.Changes[1].Row[0].Kind() != types.KindFloat {
		t.Fatalf("INT 1 and FLOAT 1.0 must not cancel, NULLs must: %v", got.Changes)
	}
	if want := consolidateSignedRef(cs); !reflect.DeepEqual(got.Changes, want.Changes) {
		t.Fatalf("got %v, want %v", got.Changes, want.Changes)
	}
}

func TestConsolidateSignedKeepsFirstRowAndMultiplicity(t *testing.T) {
	var cs ChangeSet
	for i := 0; i < 3; i++ {
		cs.AddInsert("r", row(7))
	}
	cs.AddDelete("r", row(7))
	cs.AddDelete("q", row(1))
	cs.AddDelete("q", row(1))
	got := cs.ConsolidateSigned()
	if !sameChanges(got, consolidateSignedRef(cs)) || len(got.Changes) != 4 {
		t.Fatalf("want two deletions of q then two insertions of r, got %v", got.Changes)
	}
	if &got.Changes[2].Row[0] != &cs.Changes[0].Row[0] {
		t.Fatalf("the surviving row must be the pair's first")
	}
}

// refreshLikeChanges is the change set of a window refresh whose Δ touches
// every row: n/2 rows deleted and re-inserted, one in ten with a new value.
func refreshLikeChanges(n int) ChangeSet {
	r := rand.New(rand.NewSource(1))
	var cs ChangeSet
	for i := 0; i < n/2; i++ {
		id := fmt.Sprintf("t1:%d", r.Int63n(1<<40))
		old := row(int64(i), int64(i%1000), int64(i%101), int64(i/1000))
		cs.AddDelete(id, old)
		if i%10 == 0 {
			cs.AddInsert(id, row(int64(i), int64(i%1000), int64(i%101), int64(i/1000)+1))
		} else {
			cs.AddInsert(id, old)
		}
	}
	r.Shuffle(len(cs.Changes), func(i, j int) { cs.Changes[i], cs.Changes[j] = cs.Changes[j], cs.Changes[i] })
	return cs
}

func BenchmarkConsolidateSigned(b *testing.B) {
	cs := refreshLikeChanges(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := cs.ConsolidateSigned(); out.Len() != 10_000 {
			b.Fatalf("got %d changes", out.Len())
		}
	}
}
