package types

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGatherOrNull checks that GatherOrNull reads a negative position as
// NULL for every payload, typed and generic, and keeps the source's NULLs.
func TestGatherOrNull(t *testing.T) {
	for _, vals := range [][]Value{
		{NewInt(1), Null, NewInt(3)},
		{NewTimestampMicros(1), NewTimestampMicros(2), Null},
		{NewFloat(1.5), Null, NewFloat(-0.5)},
		{NewString("a"), NewString(""), Null},
		{NewBool(true), Null, NewBool(false)},
		{NewInt(1), NewFloat(1), NewVariant("x")},
	} {
		v := VectorFromValues(vals)
		sel := []int{2, -1, 0, 1, -1}
		g := v.GatherOrNull(sel)
		if g.Len() != len(sel) {
			t.Fatalf("%v: gathered %d values, want %d", vals, g.Len(), len(sel))
		}
		for i, s := range sel {
			want := Null
			if s >= 0 {
				want = vals[s]
			}
			if got := g.Value(i); !KeyEqual(got, want) || g.IsNull(i) != want.IsNull() {
				t.Errorf("%v: position %d (%d) = %v, want %v", vals, i, s, got, want)
			}
		}
	}
	// An empty vector gathers only NULLs.
	if g := NewStringVector(nil, nil).GatherOrNull([]int{-1, -1}); g.Len() != 2 || !g.IsNull(0) || !g.IsNull(1) {
		t.Errorf("gather of an empty vector = %v %v", g.Value(0), g.Value(1))
	}
}

// countingSource builds a lazy batch of n rows (i, "r<i>") and counts its
// builds.
type countingSource struct {
	n      int
	builds atomic.Int64
}

func (s *countingSource) Col(c int) *Vector {
	s.builds.Add(1)
	vals := make([]Value, s.n)
	for i := range vals {
		if c == 0 {
			vals[i] = NewInt(int64(i))
		} else {
			vals[i] = NewString("r" + strconv.Itoa(i))
		}
	}
	return VectorFromValues(vals)
}

func (s *countingSource) Rows() []Row {
	s.builds.Add(1)
	rows := make([]Row, s.n)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewString("r" + strconv.Itoa(i))}
	}
	return rows
}

func (s *countingSource) IDs() []string {
	s.builds.Add(1)
	ids := make([]string, s.n)
	for i := range ids {
		ids[i] = "t:" + strconv.Itoa(i)
	}
	return ids
}

// TestLazyBatchConcurrentReaders reads one lazy batch from several
// goroutines at once: nothing is built before it is read, every reader
// sees the same parts, and the batch keeps one of each.
func TestLazyBatchConcurrentReaders(t *testing.T) {
	schema := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	src := &countingSource{n: 100}
	b := NewLazyBatch(schema, src.n, src)
	if b.Len() != 100 || src.builds.Load() != 0 {
		t.Fatalf("Len = %d after %d builds; want 100 after none", b.Len(), src.builds.Load())
	}
	var wg sync.WaitGroup
	cols := make([]*Vector, 8)
	rows := make([][]Row, 8)
	ids := make([][]string, 8)
	for g := range cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cols[g], rows[g], ids[g] = b.Col(0), b.Rows(), b.IDs()
		}()
	}
	wg.Wait()
	for g := range cols {
		if cols[g] != b.Col(0) || &rows[g][0] != &b.Rows()[0] || &ids[g][0] != &b.IDs()[0] {
			t.Fatalf("reader %d saw parts the batch did not keep", g)
		}
	}
	if id, v := b.ID(7), b.Col(0).Value(7); id != "t:7" || v.Int() != 7 || b.Row(7)[1].Str() != "r7" {
		t.Errorf("row 7 = %s %v %v", id, v, b.Row(7))
	}
	before := src.builds.Load()
	b.Col(0)
	b.Rows()
	b.IDs()
	if src.builds.Load() != before {
		t.Errorf("cached parts were built again")
	}
}
