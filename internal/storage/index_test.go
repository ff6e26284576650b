package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dyntables/internal/delta"
	"dyntables/internal/types"
)

// lookupKey draws a column-0 value for the lookup tests: mostly small
// INTs so that ranges hit several rows, sometimes the extreme INTs, a NULL
// or a FLOAT (a value of another kind than the column's).
func lookupKey(rng *rand.Rand) types.Value {
	switch r := rng.Intn(20); {
	case r == 0:
		return types.Null
	case r == 1:
		return types.NewFloat(float64(rng.Intn(40)) / 2)
	case r == 2:
		return types.NewInt(math.MinInt64)
	case r == 3:
		return types.NewInt(math.MaxInt64)
	default:
		return types.NewInt(rng.Int63n(40) - 5)
	}
}

// lookupBound draws a range end: an extreme, or a value near the keys.
func lookupBound(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	default:
		return rng.Int63n(50) - 10
	}
}

// wantLookup is the reference for Lookup: Batch(seq) filtered to the rows
// whose column 0 lies in [lo, hi] or is not an INT.
func wantLookup(t *testing.T, tb *Table, seq, lo, hi int64) ([]string, []types.Row) {
	t.Helper()
	b, err := tb.Batch(seq)
	if err != nil {
		t.Fatalf("Batch(%d): %v", seq, err)
	}
	var ids []string
	var rows []types.Row
	for i, id := range b.IDs() {
		v := b.Row(i)[0]
		if v.Kind() != types.KindInt || lo <= v.Int() && v.Int() <= hi {
			ids = append(ids, id)
			rows = append(rows, b.Row(i))
		}
	}
	return ids, rows
}

// checkLookup compares Lookup and SelectiveLookup of version seq over
// [lo, hi] with the reference.
func checkLookup(t *testing.T, label string, tb *Table, seq, lo, hi int64) {
	t.Helper()
	wantIDs, wantRows := wantLookup(t, tb, seq, lo, hi)
	check := func(name string, selective bool) {
		b, ok, err := tb.lookup(seq, 0, lo, hi, selective)
		if err != nil {
			t.Fatalf("%s: %s(%d, [%d, %d]): %v", label, name, seq, lo, hi, err)
		}
		if !ok {
			if !selective {
				t.Fatalf("%s: Lookup(%d, [%d, %d]) declined an INT column", label, seq, lo, hi)
			}
			return
		}
		if !slices.Equal(b.IDs(), wantIDs) {
			t.Fatalf("%s: %s(%d, [%d, %d]) = %v, filtered scan %v", label, name, seq, lo, hi, b.IDs(), wantIDs)
		}
		for i, row := range b.Rows() {
			if !row.Equal(wantRows[i]) {
				t.Fatalf("%s: %s(%d, [%d, %d]) row %s = %v, scan %v", label, name, seq, lo, hi, b.ID(i), row, wantRows[i])
			}
		}
	}
	check("Lookup", false)
	check("SelectiveLookup", true)
}

// TestLookupMatchesFilteredScanProperty runs random histories of Apply,
// Overwrite, AppendDataEquivalent, Compact, Clone (the clone and its
// origin both writing afterwards) and RestoreTable, with lookups between
// the writes so that runs are built early, read long tails and merge. At
// every tenth step and at the end, every retained version of every table
// must look up, for ranges that include both extreme INTs and empty ones,
// exactly the rows of its scan whose key is in range, NULL or of another
// kind, in log order.
func TestLookupMatchesFilteredScanProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tables := []*Table{newTestTable()}
			commit := int64(10)
			nextRow := 0
			newRow := func() (string, types.Row) {
				nextRow++
				return fmt.Sprintf("r%d", nextRow), types.Row{lookupKey(rng)}
			}
			checkAll := func(label string) {
				for i, tb := range tables {
					for seq := tb.CompactedThrough() + 1; seq <= int64(tb.VersionCount()); seq++ {
						checkLookup(t, fmt.Sprintf("%s table %d", label, i), tb, seq, math.MinInt64, math.MaxInt64)
						checkLookup(t, fmt.Sprintf("%s table %d", label, i), tb, seq, 5, 4)
						for r := 0; r < 3; r++ {
							checkLookup(t, fmt.Sprintf("%s table %d", label, i), tb, seq, lookupBound(rng), lookupBound(rng))
						}
					}
				}
			}
			for op := 0; op < 200; op++ {
				tb := tables[rng.Intn(len(tables))]
				latest := int64(tb.VersionCount())
				commit += int64(1 + rng.Intn(3))
				switch r := rng.Intn(20); {
				case r < 11: // deletes, updates, inserts
					b, err := tb.Batch(latest)
					if err != nil {
						t.Fatal(err)
					}
					var cs delta.ChangeSet
					for i, id := range b.IDs() {
						switch rng.Intn(10) {
						case 0:
							cs.AddDelete(id, b.Row(i))
						case 1:
							cs.AddDelete(id, b.Row(i))
							cs.AddInsert(id, types.Row{lookupKey(rng)})
						}
					}
					for i := rng.Intn(12); i > 0; i-- {
						cs.AddInsert(newRow())
					}
					if _, err := tb.Apply(cs, ts(commit)); err != nil {
						t.Fatalf("op %d: Apply: %v", op, err)
					}
				case r < 13:
					rows := map[string]types.Row{}
					for i := rng.Intn(20); i > 0; i-- {
						id, row := newRow()
						rows[id] = row
					}
					if _, err := tb.Overwrite(rows, ts(commit)); err != nil {
						t.Fatalf("op %d: Overwrite: %v", op, err)
					}
				case r < 14:
					if _, err := tb.AppendDataEquivalent(ts(commit)); err != nil {
						t.Fatalf("op %d: AppendDataEquivalent: %v", op, err)
					}
				case r < 16:
					lo := tb.CompactedThrough() + 1
					if _, _, err := tb.Compact(lo + rng.Int63n(latest-lo+1)); err != nil {
						t.Fatalf("op %d: Compact: %v", op, err)
					}
				case r < 18:
					lo := tb.CompactedThrough() + 1
					v, err := tb.VersionBySeq(lo + rng.Int63n(latest-lo+1))
					if err != nil {
						t.Fatal(err)
					}
					clone, err := tb.Clone(v.Commit)
					if err != nil {
						t.Fatalf("op %d: Clone: %v", op, err)
					}
					tables = append(tables, clone)
				default:
					restored, err := RestoreTable(tb.State())
					if err != nil {
						t.Fatalf("op %d: RestoreTable: %v", op, err)
					}
					tables = append(tables, restored)
				}
				// A few lookups between writes build runs and grow tails.
				for i := 0; i < 2; i++ {
					tb := tables[rng.Intn(len(tables))]
					lo := tb.CompactedThrough() + 1
					seq := lo + rng.Int63n(int64(tb.VersionCount())-lo+1)
					checkLookup(t, fmt.Sprintf("op %d", op), tb, seq, lookupBound(rng), lookupBound(rng))
				}
				if op%10 == 9 {
					checkAll(fmt.Sprintf("op %d", op))
				}
			}
			checkAll("end")
		})
	}
}

// checkStack checks the invariants of column col's stack of runs over
// the segment version seq reads, after a reading lookup: the tail past the
// top run is below foldSize, the runs cover consecutive ranges of the
// entries, each is more than twice the size of the run above it, so there
// are at most log₂(N/foldSize)+1 of them. It returns the top run.
func checkStack(t *testing.T, label string, tb *Table, seq int64, col int) *run {
	t.Helper()
	seg := tb.segmentFor(seq)
	top := seg.index[col].run.Load()
	if tail := len(seg.entries) - top.n; tail >= foldSize {
		t.Fatalf("%s: a tail of %d entries past the stack was not sealed", label, tail)
	}
	runs := top.stack(nil)
	for i, x := range runs {
		if i == 0 && x.from != 0 || i > 0 && x.from != runs[i-1].n {
			t.Fatalf("%s: run %d covers [%d, %d), after a run ending at %d", label, i, x.from, x.n, runs[max(i-1, 0)].n)
		}
		if i > 0 && runs[i-1].size() <= 2*x.size() {
			t.Fatalf("%s: run %d of %d entries lies on a run of only %d", label, i, x.size(), runs[i-1].size())
		}
	}
	if n := len(runs); n > 1 && float64(n) > math.Log2(float64(top.n)/foldSize)+1 {
		t.Fatalf("%s: %d runs over %d entries", label, n, top.n)
	}
	return top
}

// TestLookupTailMerges appends one row at a time after the first lookup:
// the tail stays below foldSize, because a reading lookup seals it into a
// new run once it reaches foldSize, the stack of runs stays logarithmic,
// every lookup stays exact, and IndexBytes sums the whole stack.
func TestLookupTailMerges(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) {
		for i := int64(0); i < 400; i++ {
			cs.AddInsert(tb.NextRowID(), intRow(i%50))
		}
	})
	var r *run
	most := 0
	for i := int64(0); i < 1500; i++ {
		apply(t, tb, 11+i, func(cs *delta.ChangeSet) {
			cs.AddInsert(tb.NextRowID(), intRow(i%50))
		})
		seq := int64(tb.VersionCount())
		checkLookup(t, fmt.Sprintf("append %d", i), tb, seq, 7, 7)
		r = checkStack(t, fmt.Sprintf("append %d", i), tb, seq, 0)
		most = max(most, len(r.stack(nil)))
	}
	if most < 3 {
		t.Errorf("the stack never held more than %d runs; the test wants merges of several", most)
	}
	if fp := tb.FootprintStats(); fp.IndexBytes != 12*int64(r.n) {
		t.Errorf("IndexBytes = %d, want 12 B for each of the stack's %d entries", fp.IndexBytes, r.n)
	}
}

// TestLookupConcurrentFirstReadersShareOneBuild starts several first
// lookups of a column nobody has looked up yet at once: they must share
// one build of its run, so they allocate about what one first lookup of a
// like column does.
func TestLookupConcurrentFirstReadersShareOneBuild(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}, types.Column{Name: "b", Kind: types.KindInt})
	tb := NewTable(schema, ts(1))
	apply(t, tb, 10, func(cs *delta.ChangeSet) {
		for i := int64(0); i < 40000; i++ {
			cs.AddInsert(tb.NextRowID(), intRow(i, 40000-i))
		}
	})
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one := allocated(func() {
		if _, _, err := tb.Lookup(2, 0, 7, 7); err != nil {
			t.Fatal(err)
		}
	})
	const readers = 8
	got := make([]*types.Batch, readers)
	start := make(chan struct{})
	shared := allocated(func() {
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				b, _, err := tb.Lookup(2, 1, 7, 7)
				if err != nil {
					t.Error(err)
				}
				got[g] = b
			}()
		}
		close(start)
		wg.Wait()
	})
	for _, b := range got {
		if b.Len() != 1 || b.Row(0)[1].Int() != 7 {
			t.Fatalf("a concurrent first lookup of b = 7 returned %d rows", b.Len())
		}
	}
	// Eight separate builds would allocate about 8x one build.
	if shared > 2*one {
		t.Errorf("%d concurrent first lookups allocated %d bytes, one first lookup %d", readers, shared, one)
	}
}

// TestLookupsRaceApplyAndCompact looks up pinned old versions and the
// latest one while a writer commits deletes, updates and inserts of the
// very rows they hold and compacts up to the pins. Run it under -race:
// runs are built and merged without the table lock beside commits that
// append to the log and stamp deletes in place.
func TestLookupsRaceApplyAndCompact(t *testing.T) {
	tb := newTestTable()
	live := map[string]int64{}
	apply(t, tb, 10, func(cs *delta.ChangeSet) {
		for i := 0; i < 300; i++ {
			id := fmt.Sprintf("r%d", i)
			live[id] = int64(i % 60)
			cs.AddInsert(id, intRow(live[id]))
		}
	})
	commit := int64(10)
	step := func(i int) {
		var cs delta.ChangeSet
		id := fmt.Sprintf("r%d", i%300)
		if v, ok := live[id]; ok {
			cs.AddDelete(id, intRow(v))
			if i%3 != 0 {
				live[id] = (v + 7) % 60
				cs.AddInsert(id, intRow(live[id]))
			} else {
				delete(live, id)
			}
		} else {
			live[id] = int64(i % 60)
			cs.AddInsert(id, intRow(live[id]))
		}
		commit++
		if _, err := tb.Apply(cs, ts(commit)); err != nil {
			t.Error(err)
		}
	}
	var pinned []int64
	want := map[int64][]string{}
	for p := 0; p < 6; p++ {
		for i := 0; i < 9; i++ {
			step(p*9 + i)
		}
		seq := int64(tb.VersionCount())
		tb.Pin(seq)
		pinned = append(pinned, seq)
		want[seq], _ = wantLookup(t, tb, seq, 10, 19)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 600; i++ {
			step(i)
			if i%40 == 0 {
				if _, _, err := tb.Compact(int64(tb.VersionCount())); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seq := pinned[(r+i)%len(pinned)]
				if i%2 == 1 {
					seq = int64(tb.VersionCount())
				}
				b, _, err := tb.Lookup(seq, 0, 10, 19)
				var compacted *ErrCompacted
				if errors.As(err, &compacted) {
					continue // the latest version was folded meanwhile
				}
				if err != nil {
					t.Error(err)
					return
				}
				if w, ok := want[seq]; ok && !slices.Equal(b.IDs(), w) {
					t.Errorf("pinned version %d looked up %v, want %v", seq, b.IDs(), w)
					return
				}
				for j := range b.Len() {
					if k := b.Row(j)[0].Int(); k < 10 || k > 19 {
						t.Errorf("version %d looked up key %d outside [10, 19]", seq, k)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// wantKeys is the reference for a key-set lookup: Batch(seq) filtered to
// the rows whose column 0 is one of keys or not an INT.
func wantKeys(t *testing.T, tb *Table, seq int64, keys []int64) []string {
	t.Helper()
	b, err := tb.Batch(seq)
	if err != nil {
		t.Fatalf("Batch(%d): %v", seq, err)
	}
	var ids []string
	for i, id := range b.IDs() {
		if v := b.Row(i)[0]; v.Kind() != types.KindInt || slices.Contains(keys, v.Int()) {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestLookupKeySetsMatchFilteredScan looks up random key sets, unsorted
// and with repeats, over a history of writes and compactions that leaves
// runs with tails: every lookup must return exactly the rows of the
// version's scan whose key is in the set, NULL or of another kind, each
// once and in log order. SelectiveLookupKeys returns the same rows or
// declines.
func TestLookupKeySetsMatchFilteredScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := newTestTable()
	for step := int64(0); step < 80; step++ {
		latest := int64(tb.VersionCount())
		b, err := tb.Batch(latest)
		if err != nil {
			t.Fatal(err)
		}
		var cs delta.ChangeSet
		for i, id := range b.IDs() {
			switch rng.Intn(12) {
			case 0:
				cs.AddDelete(id, b.Row(i))
			case 1:
				cs.AddDelete(id, b.Row(i))
				cs.AddInsert(id, types.Row{lookupKey(rng)})
			}
		}
		for i := rng.Intn(15); i > 0; i-- {
			cs.AddInsert(tb.NextRowID(), types.Row{lookupKey(rng)})
		}
		if _, err := tb.Apply(cs, ts(10+step)); err != nil {
			t.Fatal(err)
		}
		if step%20 == 19 {
			if _, _, err := tb.Compact(int64(tb.VersionCount()) - 3); err != nil {
				t.Fatal(err)
			}
		}
		lo := tb.CompactedThrough() + 1
		seq := lo + rng.Int63n(int64(tb.VersionCount())-lo+1)
		keys := make([]int64, rng.Intn(7))
		for i := range keys {
			if v := lookupKey(rng); v.Kind() == types.KindInt {
				keys[i] = v.Int()
			} else {
				keys[i] = rng.Int63n(40) - 5
			}
		}
		if len(keys) > 1 {
			keys = append(keys, keys[0]) // a repeat
		}
		want := wantKeys(t, tb, seq, keys)
		got, ok, err := tb.lookupRanges(seq, 0, pointRanges(keys), false)
		if err != nil || !ok {
			t.Fatalf("step %d: lookup of keys %v at %d: ok %v, %v", step, keys, seq, ok, err)
		}
		if !slices.Equal(got.IDs(), want) {
			t.Fatalf("step %d: lookup of keys %v at %d = %v, filtered scan %v", step, keys, seq, got.IDs(), want)
		}
		sel, ok, err := tb.SelectiveLookupKeys(seq, 0, keys)
		if err != nil {
			t.Fatal(err)
		}
		if ok && !slices.Equal(sel.IDs(), want) {
			t.Fatalf("step %d: SelectiveLookupKeys(%v) at %d = %v, filtered scan %v", step, keys, seq, sel.IDs(), want)
		}
	}
}

// TestPointRanges checks that a key set becomes sorted, disjoint ranges,
// consecutive keys sharing one, the extreme INTs included.
func TestPointRanges(t *testing.T) {
	got := pointRanges([]int64{9, 3, math.MaxInt64, 4, 3, math.MinInt64, 7, 5, math.MaxInt64, math.MaxInt64 - 1})
	want := []keyRange{{math.MinInt64, math.MinInt64}, {3, 5}, {7, 7}, {9, 9}, {math.MaxInt64 - 1, math.MaxInt64}}
	if !slices.Equal(got, want) {
		t.Errorf("pointRanges = %v, want %v", got, want)
	}
	if rs := pointRanges(nil); len(rs) != 0 {
		t.Errorf("pointRanges(nil) = %v", rs)
	}
}

// TestLookupKeysInUnmergedTail looks up keys that only rows appended after
// the run was built hold, before a merge folds them in.
func TestLookupKeysInUnmergedTail(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) {
		for i := int64(0); i < 100; i++ {
			cs.AddInsert(tb.NextRowID(), intRow(i%10))
		}
		cs.AddInsert(tb.NextRowID(), types.Row{types.Null})
	})
	if _, ok, err := tb.SelectiveLookupKeys(2, 0, []int64{3}); err != nil || !ok {
		t.Fatalf("first lookup: ok %v, %v", ok, err)
	}
	apply(t, tb, 11, func(cs *delta.ChangeSet) {
		for i := int64(0); i < 5; i++ {
			cs.AddInsert(tb.NextRowID(), intRow(100+i%2))
		}
	})
	b, ok, err := tb.SelectiveLookupKeys(3, 0, []int64{101, 3, 101})
	if err != nil || !ok {
		t.Fatalf("lookup: ok %v, %v", ok, err)
	}
	if want := wantKeys(t, tb, 3, []int64{3, 101}); !slices.Equal(b.IDs(), want) {
		t.Fatalf("lookup of {3, 101} = %v, want %v", b.IDs(), want)
	}
	if seg := tb.segmentFor(3); seg.index[0].run.Load().n != 101 {
		t.Fatalf("the tail was merged; the test wants it unmerged")
	}
	// 10 rows of 3, 2 of 101 and the NULL row, which comes back once.
	if b.Len() != 13 {
		t.Errorf("lookup of {3, 101} returned %d rows, want 13", b.Len())
	}
}

// TestDeclinedLookupMergesNothing checks that a lookup counts its
// candidates in the runs and the tail before it seals the tail: one that
// declines leaves the stack as it was, and one that reads still seals a
// tail of foldSize entries or more.
func TestDeclinedLookupMergesNothing(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) {
		for i := int64(0); i < 400; i++ {
			cs.AddInsert(tb.NextRowID(), intRow(i%8))
		}
	})
	if _, ok, err := tb.SelectiveLookupKeys(2, 0, []int64{0}); err != nil || !ok {
		t.Fatalf("first lookup: ok %v, %v", ok, err)
	}
	// 70 appended rows, at least foldSize: a reading lookup seals them.
	apply(t, tb, 11, func(cs *delta.ChangeSet) {
		for i := int64(0); i < 70; i++ {
			cs.AddInsert(tb.NextRowID(), intRow(1+i%7))
		}
	})
	top := func() *run { return tb.segmentFor(3).index[0].run.Load() }
	// Keys 0, 1 and 2 have 170 candidates, over a quarter of 470 rows.
	if _, ok, err := tb.SelectiveLookupKeys(3, 0, []int64{0, 1, 2}); err != nil || ok {
		t.Fatalf("lookup of {0, 1, 2}: ok %v, %v; want a decline", ok, err)
	}
	if r := top(); r.n != 400 || r.below != nil {
		t.Fatalf("a declined lookup sealed the tail: the top run covers [%d, %d), want one run over 400 entries", r.from, r.n)
	}
	b, ok, err := tb.SelectiveLookupKeys(3, 0, []int64{0})
	if err != nil || !ok {
		t.Fatalf("lookup of {0}: ok %v, %v", ok, err)
	}
	if want := wantKeys(t, tb, 3, []int64{0}); !slices.Equal(b.IDs(), want) {
		t.Fatalf("lookup of {0} = %v, want %v", b.IDs(), want)
	}
	// 400 entries are more than twice 70: the sealed tail stays a run of
	// its own on top.
	if r := top(); r.from != 400 || r.n != 470 || r.below == nil || r.below.n != 400 {
		t.Fatalf("a reading lookup left the tail unsealed: the top run covers [%d, %d), want [400, 470) over the first run", r.from, r.n)
	}
}

// TestSelectiveLookupKeysDeclinesOverUnion checks that the decline counts
// the candidates of all the keys together: each key alone is selective,
// their union is not.
func TestSelectiveLookupKeysDeclinesOverUnion(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) {
		for i := int64(0); i < 400; i++ {
			cs.AddInsert(tb.NextRowID(), intRow(i%40))
		}
	})
	var keys []int64
	for k := int64(0); k < 11; k++ {
		if _, ok, err := tb.SelectiveLookupKeys(2, 0, []int64{k}); err != nil || !ok {
			t.Fatalf("key %d alone: ok %v, %v", k, ok, err)
		}
		keys = append(keys, k*3) // scattered: one range per key
	}
	// 10 keys have 100 candidates, a quarter of the 400 rows.
	if b, ok, err := tb.SelectiveLookupKeys(2, 0, keys[:10]); err != nil || !ok || b.Len() != 100 {
		t.Fatalf("10 keys: ok %v, %v", ok, err)
	}
	if _, ok, err := tb.SelectiveLookupKeys(2, 0, keys); err != nil || ok {
		t.Errorf("11 keys (110 candidates of 400 rows): ok %v, %v; want a decline", ok, err)
	}
}

// TestDistinctKeysBoundsVisibleValues checks DistinctKeys against the
// values a version holds: it counts run and tail keys and each NULL or
// other-kind value once, keeps counting a deleted key until a compaction
// folds it away, and declines a non-INT column.
func TestDistinctKeysBoundsVisibleValues(t *testing.T) {
	tb := newTestTable()
	var victims []string
	apply(t, tb, 10, func(cs *delta.ChangeSet) {
		for i := int64(0); i < 50; i++ {
			id := tb.NextRowID()
			if i%10 == 7 {
				victims = append(victims, id)
			}
			cs.AddInsert(id, intRow(i%10))
		}
		cs.AddInsert(tb.NextRowID(), types.Row{types.Null})
		cs.AddInsert(tb.NextRowID(), types.Row{types.Null})
		cs.AddInsert(tb.NextRowID(), types.Row{types.NewFloat(2.5)})
	})
	count := func(seq int64) int {
		t.Helper()
		n, ok, err := tb.DistinctKeys(seq, 0)
		if err != nil || !ok {
			t.Fatalf("DistinctKeys(%d): ok %v, %v", seq, ok, err)
		}
		return n
	}
	// 0..9, NULL and 2.5.
	if n := count(2); n != 12 {
		t.Errorf("DistinctKeys = %d, want 12", n)
	}
	// A new key in the tail, and every row of 7 deleted.
	apply(t, tb, 11, func(cs *delta.ChangeSet) {
		cs.AddInsert(tb.NextRowID(), intRow(42))
		for _, id := range victims {
			cs.AddDelete(id, intRow(7))
		}
	})
	if n := count(3); n != 13 {
		t.Errorf("DistinctKeys after adding 42 and deleting 7 = %d, want 13 (7 counts until a fold)", n)
	}
	if _, _, err := tb.Compact(3); err != nil {
		t.Fatal(err)
	}
	if n := count(3); n != 12 {
		t.Errorf("DistinctKeys after the fold = %d, want 12", n)
	}
	st := NewTable(types.NewSchema(types.Column{Name: "s", Kind: types.KindString}), ts(1))
	if _, ok, err := st.DistinctKeys(1, 0); err != nil || ok {
		t.Errorf("DistinctKeys of a STRING column: ok %v, %v", ok, err)
	}
}

// BenchmarkLookupKeysVsScan is BenchmarkLookupVsScan (internal/exec) for
// key sets: it reads the rows of k scattered point keys of a 50k-row table
// both ways — through a key-set lookup, and by restricting the memoized
// version batch to the keys as a refresh boundary does — for k from one
// key up to half the table, to place the crossover that lookupShare
// encodes. It runs over one run (layout=one-run, the table loaded at once)
// and over a stack of several runs (layout=stack, half the table loaded at
// once and half in chunks, each followed by a lookup). The lookup arm uses
// the non-selective form, which never declines.
func BenchmarkLookupKeysVsScan(b *testing.B) {
	for _, layout := range []struct {
		name  string
		chunk int64
	}{{"one-run", 50_000}, {"stack", 1000}} {
		b.Run("layout="+layout.name, func(b *testing.B) { benchLookupKeysVsScan(b, layout.chunk) })
	}
}

// benchLookupKeysVsScan is BenchmarkLookupKeysVsScan over a table whose
// second half is loaded in chunks of chunk rows.
func benchLookupKeysVsScan(b *testing.B, chunk int64) {
	const n = 50_000
	schema := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt}, types.Column{Name: "v", Kind: types.KindInt})
	tb := NewTable(schema, ts(1))
	seq := int64(0)
	for lo := int64(0); lo < n; {
		hi := min(n, max(n/2, lo+chunk))
		var cs delta.ChangeSet
		for i := lo; i < hi; i++ {
			cs.AddInsert(tb.NextRowID(), intRow(i, i%101))
		}
		v, err := tb.Apply(cs, ts(2+lo))
		if err != nil {
			b.Fatal(err)
		}
		seq, lo = v.Seq, hi
		if _, _, err := tb.Lookup(seq, 0, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(n)
	for _, k := range []int{1, 10, 500, n / 97, n / 8, n / 4, n / 2} {
		keys := make([]int64, k)
		set := make(map[string]bool, k)
		for i := range keys {
			keys[i] = int64(order[i])
			set[string(types.NewInt(keys[i]).EncodeKey(nil))] = true
		}
		restrict := func(batch *types.Batch) int {
			var buf []byte
			out := 0
			for _, row := range batch.Rows() {
				buf = row[0].EncodeKey(buf[:0])
				if set[string(buf)] {
					out++
				}
			}
			return out
		}
		for _, arm := range []struct {
			name string
			read func() (*types.Batch, error)
		}{
			{"lookup", func() (*types.Batch, error) {
				batch, _, err := tb.lookupRanges(seq, 0, pointRanges(keys), false)
				return batch, err
			}},
			{"scan", func() (*types.Batch, error) { return tb.Batch(seq) }},
		} {
			b.Run(fmt.Sprintf("keys=%d/%s", k, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					batch, err := arm.read()
					if err != nil {
						b.Fatal(err)
					}
					if got := restrict(batch); got != k {
						b.Fatalf("%d rows, want %d", got, k)
					}
				}
			})
		}
	}
}

// BenchmarkIndexFold measures what keeping a column's index up to date
// costs a table fed by trickles of appends: over a segment of n entries,
// each iteration commits a version of k appended rows and then makes one
// selective point lookup, which seals the tail into the index when the
// fold policy says so. It reports the time and the bytes allocated per
// appended entry, commit and lookup included.
func BenchmarkIndexFold(b *testing.B) {
	for _, n := range []int{50_000, 500_000} {
		for _, k := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("entries=%d/k=%d", n, k), func(b *testing.B) {
				schema := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt}, types.Column{Name: "v", Kind: types.KindInt})
				tb := NewTable(schema, ts(1))
				var cs delta.ChangeSet
				for i := int64(0); i < int64(n); i++ {
					cs.AddInsert(tb.NextRowID(), intRow(i, i%101))
				}
				if _, err := tb.Apply(cs, ts(2)); err != nil {
					b.Fatal(err)
				}
				if _, _, err := tb.Lookup(2, 0, 0, 0); err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				next := int64(n)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var cs delta.ChangeSet
					for j := 0; j < k; j++ {
						cs.AddInsert(tb.NextRowID(), intRow(next, next%101))
						next++
					}
					v, err := tb.Apply(cs, ts(int64(3+i)))
					if err != nil {
						b.Fatal(err)
					}
					if _, ok, err := tb.SelectiveLookupKeys(v.Seq, 0, []int64{rng.Int63n(next)}); err != nil || !ok {
						b.Fatalf("point lookup: ok %v, %v", ok, err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				entries := float64(b.N * k)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/entries, "ns/entry")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/entries, "B/entry")
			})
		}
	}
}
