package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dyntables/internal/types"
)

// consolidateRef is Consolidate as it was with one heap-allocated state
// per row ID. The implementation must return the same change set.
func consolidateRef(cs ChangeSet) ChangeSet {
	type state struct {
		deletedOld  types.Row
		hasDel      bool
		insertedNew types.Row
		hasIns      bool
	}
	byID := make(map[string]*state, len(cs.Changes))
	order := make([]string, 0, len(cs.Changes))
	for _, c := range cs.Changes {
		st, ok := byID[c.RowID]
		if !ok {
			st = &state{}
			byID[c.RowID] = st
			order = append(order, c.RowID)
		}
		if c.Action == Insert {
			st.insertedNew, st.hasIns = c.Row, true
		} else if st.hasIns {
			st.insertedNew, st.hasIns = nil, false
		} else if !st.hasDel {
			st.deletedOld, st.hasDel = c.Row, true
		}
	}
	sort.Strings(order)
	var out ChangeSet
	noOp := func(st *state) bool {
		return st.hasDel && st.hasIns && st.deletedOld.Equal(st.insertedNew)
	}
	for _, id := range order {
		if st := byID[id]; !noOp(st) && st.hasDel {
			out.AddDelete(id, st.deletedOld)
		}
	}
	for _, id := range order {
		if st := byID[id]; !noOp(st) && st.hasIns {
			out.AddInsert(id, st.insertedNew)
		}
	}
	return out
}

func TestConsolidateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		cs := randomSigned(r, r.Intn(40))
		if got, want := cs.Consolidate(), consolidateRef(cs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: input %v\ngot  %v\nwant %v", trial, cs.Changes, got.Changes, want.Changes)
		}
	}
}

func TestValidateWellFormedNamesFirstDuplicate(t *testing.T) {
	var cs ChangeSet
	cs.AddDelete("r1", row(0))
	cs.AddInsert("r1", row(1))
	cs.AddInsert("r2", row(2))
	if err := cs.ValidateWellFormed(); err != nil {
		t.Fatalf("a delete and an insert of one row ID are an update: %v", err)
	}
	for _, tc := range []struct {
		extra []Change
		want  string
	}{
		{[]Change{{RowID: "r1", Action: Delete, Row: row(3)}}, "delta: duplicate (r1, DELETE) in change set"},
		{[]Change{{RowID: "r2", Action: Insert, Row: row(3)}}, "delta: duplicate (r2, INSERT) in change set"},
		// The first offender in order is named, not the first row ID.
		{[]Change{
			{RowID: "r2", Action: Insert, Row: row(3)},
			{RowID: "r1", Action: Delete, Row: row(3)},
		}, "delta: duplicate (r2, INSERT) in change set"},
	} {
		dup := cs.Clone()
		dup.Changes = append(dup.Changes, tc.extra...)
		err := dup.ValidateWellFormed()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v: got %v, want %q", dup.Changes, err, tc.want)
		}
	}
}

// sourceLikeChanges is a source table's ordered log over one interval:
// n/2 rows updated in place, the others inserted or deleted.
func sourceLikeChanges(n int) ChangeSet {
	var cs ChangeSet
	for i := 0; i < n/2; i++ {
		id := fmt.Sprintf("t:%d", i)
		switch i % 4 {
		case 0:
			cs.AddInsert(id, row(int64(i)))
		case 1:
			cs.AddDelete(id, row(int64(i)))
		default:
			cs.AddDelete(id, row(int64(i)))
			cs.AddInsert(id, row(int64(i+1)))
		}
	}
	return cs
}

func BenchmarkConsolidate(b *testing.B) {
	cs := sourceLikeChanges(20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Consolidate()
	}
}

func BenchmarkValidateWellFormed(b *testing.B) {
	cs := sourceLikeChanges(20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cs.ValidateWellFormed(); err != nil {
			b.Fatal(err)
		}
	}
}
