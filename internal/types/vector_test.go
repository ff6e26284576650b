package types

import (
	"math/rand"
	"reflect"
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

// TestBatchColMatchesVectorFromValues checks that a row batch's Col(c),
// which fills a typed payload straight from the rows, builds the vector
// VectorFromValues builds from the column's values: for one kind or a mix
// of kinds per column, with and without NULLs, VARIANTs, rows shorter than
// the schema, and no rows at all.
func TestBatchColMatchesVectorFromValues(t *testing.T) {
	gens := []func(r *rand.Rand) Value{
		func(r *rand.Rand) Value { return NewInt(r.Int63n(7) - 3) },
		func(r *rand.Rand) Value { return NewFloat(float64(r.Intn(7)) / 2) },
		func(r *rand.Rand) Value { return NewString(strconv.Itoa(r.Intn(5))) },
		func(r *rand.Rand) Value { return NewBool(r.Intn(2) == 0) },
		func(r *rand.Rand) Value { return NewTimestampMicros(r.Int63n(100)) },
		func(r *rand.Rand) Value { return intValue(KindInterval, r.Int63n(100)) },
		func(r *rand.Rand) Value { return NewVariant(float64(r.Intn(3))) },
		func(*rand.Rand) Value { return Null },
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		const width = 3
		// Each column draws its values from one to three generators.
		var kinds [width][]func(*rand.Rand) Value
		for c := range kinds {
			for k := 1 + r.Intn(3); k > 0; k-- {
				kinds[c] = append(kinds[c], gens[r.Intn(len(gens))])
			}
		}
		n := r.Intn(6)
		ids, rows := make([]string, n), make([]Row, n)
		for i := range rows {
			ids[i] = strconv.Itoa(i)
			w := width
			if r.Intn(8) == 0 {
				w = r.Intn(width)
			}
			rows[i] = make(Row, w)
			for c := range rows[i] {
				rows[i][c] = kinds[c][r.Intn(len(kinds[c]))](r)
			}
		}
		schema := Schema{Columns: make([]Column, width)}
		b := NewBatch(schema, ids, rows)
		for c := 0; c < width; c++ {
			vals := make([]Value, n)
			for i, row := range rows {
				if c < len(row) {
					vals[i] = row[c]
				}
			}
			if got, want := b.Col(c), VectorFromValues(vals); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, column %d of %v: Col = %+v, VectorFromValues = %+v", trial, c, rows, got, want)
			}
		}
	}
}

// BenchmarkBatchCol columnarizes one INT column of a fresh 50k-row batch
// of (INT, STRING) rows, as the first reader of a new version does.
func BenchmarkBatchCol(b *testing.B) {
	const n = 50_000
	ids, rows := make([]string, n), make([]Row, n)
	for i := range rows {
		ids[i] = strconv.Itoa(i)
		rows[i] = Row{NewInt(int64(i)), NewString(ids[i])}
	}
	schema := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "s", Kind: KindString})
	b.ReportAllocs()
	for b.Loop() {
		NewBatch(schema, ids, rows).Col(0)
	}
}
