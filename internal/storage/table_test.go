package storage

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/types"
)

func ts(n int64) hlc.Timestamp { return hlc.Timestamp{WallMicros: n} }

func intRow(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

func newTestTable() *Table {
	schema := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	return NewTable(schema, ts(1))
}

func apply(t *testing.T, tb *Table, commit int64, f func(cs *delta.ChangeSet)) *Version {
	t.Helper()
	var cs delta.ChangeSet
	f(&cs)
	v, err := tb.Apply(cs, ts(commit))
	if err != nil {
		t.Fatalf("apply at %d: %v", commit, err)
	}
	return v
}

func TestEmptyTableHasVersionOne(t *testing.T) {
	tb := newTestTable()
	if tb.VersionCount() != 1 {
		t.Fatalf("want 1 version, got %d", tb.VersionCount())
	}
	rows, err := tb.Rows(1)
	if err != nil || len(rows) != 0 {
		t.Errorf("empty table: %v rows, %v", rows, err)
	}
}

func TestApplyAndTimeTravel(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) {
		cs.AddInsert("a", intRow(1))
	})
	apply(t, tb, 20, func(cs *delta.ChangeSet) {
		cs.AddInsert("b", intRow(2))
		cs.AddDelete("a", intRow(1))
	})

	v, err := tb.VersionAsOf(ts(15))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tb.Rows(v.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows["a"][0].Int() != 1 {
		t.Errorf("as-of 15: %v", rows)
	}

	v, _ = tb.VersionAsOf(ts(100))
	rows, _ = tb.Rows(v.Seq)
	if len(rows) != 1 {
		t.Errorf("latest: %v", rows)
	}
	if _, ok := rows["b"]; !ok {
		t.Errorf("latest should contain b: %v", rows)
	}

	if _, err := tb.VersionAsOf(ts(0)); err == nil {
		t.Error("as-of before creation must fail")
	}
}

func TestDeleteNonexistentRowRejected(t *testing.T) {
	tb := newTestTable()
	var cs delta.ChangeSet
	cs.AddDelete("ghost", intRow(0))
	_, err := tb.Apply(cs, ts(5))
	var missing *ErrMissingRow
	if !errors.As(err, &missing) || missing.RowID != "ghost" {
		t.Errorf("deleting a nonexistent row must fail with *ErrMissingRow (§6.1 validation), got %v", err)
	}
	if tb.VersionCount() != 1 {
		t.Errorf("rejected change set committed a version: %d versions", tb.VersionCount())
	}
}

func TestCommitMustAdvance(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) { cs.AddInsert("a", intRow(1)) })
	var cs delta.ChangeSet
	cs.AddInsert("b", intRow(2))
	if _, err := tb.Apply(cs, ts(10)); err == nil {
		t.Error("commit at same timestamp must fail")
	}
	if _, err := tb.Apply(cs, ts(9)); err == nil {
		t.Error("commit in the past must fail")
	}
}

func TestChangesInterval(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) { cs.AddInsert("a", intRow(1)) })
	apply(t, tb, 20, func(cs *delta.ChangeSet) { cs.AddInsert("b", intRow(2)) })
	apply(t, tb, 30, func(cs *delta.ChangeSet) {
		cs.AddDelete("a", intRow(1))
		cs.AddInsert("a", intRow(10))
	})

	cs, err := tb.Changes(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// a: inserted then updated -> consolidated to single insert of 10.
	// b: inserted.
	ins, del := cs.Counts()
	if ins != 2 || del != 0 {
		t.Errorf("interval changes: %d ins %d del: %v", ins, del, cs.Changes)
	}

	// Sub-interval spanning only the update.
	cs, err = tb.Changes(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ins, del = cs.Counts()
	if ins != 1 || del != 1 {
		t.Errorf("update interval: %d ins %d del", ins, del)
	}

	// Empty interval.
	cs, err = tb.Changes(2, 2)
	if err != nil || !cs.Empty() {
		t.Errorf("empty interval: %v %v", cs.Changes, err)
	}
}

func TestChangesAcrossOverwriteFails(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) { cs.AddInsert("a", intRow(1)) })
	if _, err := tb.Overwrite(map[string]types.Row{"x": intRow(9)}, ts(20)); err != nil {
		t.Fatal(err)
	}
	_, err := tb.Changes(1, 3)
	var over *ErrOverwritten
	if !errors.As(err, &over) {
		t.Fatalf("want ErrOverwritten, got %v", err)
	}
	if over.Error() == "" {
		t.Error("error message empty")
	}
	// Interval after the overwrite is fine.
	apply(t, tb, 30, func(cs *delta.ChangeSet) { cs.AddInsert("y", intRow(2)) })
	if _, err := tb.Changes(3, 4); err != nil {
		t.Errorf("post-overwrite interval should work: %v", err)
	}
}

func TestDataEquivalentVersionsSkipped(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) { cs.AddInsert("a", intRow(1)) })
	if _, err := tb.AppendDataEquivalent(ts(15)); err != nil {
		t.Fatal(err)
	}
	if tb.ChangedSince(2, 3) {
		t.Error("data-equivalent version must not count as change (§5.5.2)")
	}
	cs, err := tb.Changes(2, 3)
	if err != nil || !cs.Empty() {
		t.Errorf("data-equivalent interval must be empty: %v %v", cs.Changes, err)
	}
	// Contents survive.
	rows, _ := tb.Rows(3)
	if len(rows) != 1 {
		t.Errorf("contents after recluster: %v", rows)
	}
}

func TestSnapshotReplayCorrectness(t *testing.T) {
	tb := newTestTable()
	for i := int64(0); i < 20; i++ {
		commit := 10 + i
		apply(t, tb, commit, func(cs *delta.ChangeSet) {
			cs.AddInsert(tb.NextRowID(), intRow(i))
		})
	}
	// Every historical version must materialize with exactly i rows.
	for seq := int64(1); seq <= int64(tb.VersionCount()); seq++ {
		rows, err := tb.Rows(seq)
		if err != nil {
			t.Fatalf("rows at %d: %v", seq, err)
		}
		if int64(len(rows)) != seq-1 {
			t.Errorf("version %d: %d rows, want %d", seq, len(rows), seq-1)
		}
	}
}

func TestCloneSharesHistoryThenDiverges(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) { cs.AddInsert("a", intRow(1)) })
	clone, err := tb.Clone(ts(15))
	if err != nil {
		t.Fatal(err)
	}
	if clone.ID() == tb.ID() {
		t.Error("clone must have its own identity")
	}
	// Clone sees the original's data.
	rows, err := clone.Rows(int64(clone.VersionCount()))
	if err != nil || len(rows) != 1 {
		t.Fatalf("clone contents: %v %v", rows, err)
	}
	// Writes diverge.
	var cs delta.ChangeSet
	cs.AddInsert("b", intRow(2))
	if _, err := clone.Apply(cs, ts(20)); err != nil {
		t.Fatal(err)
	}
	origRows, _ := tb.Rows(int64(tb.VersionCount()))
	cloneRows, _ := clone.Rows(int64(clone.VersionCount()))
	if len(origRows) != 1 || len(cloneRows) != 2 {
		t.Errorf("divergence failed: orig %d, clone %d", len(origRows), len(cloneRows))
	}
}

func TestCloneAtHistoricalTimestamp(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) { cs.AddInsert("a", intRow(1)) })
	apply(t, tb, 20, func(cs *delta.ChangeSet) { cs.AddInsert("b", intRow(2)) })
	clone, err := tb.Clone(ts(15))
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := clone.Rows(int64(clone.VersionCount()))
	if len(rows) != 1 {
		t.Errorf("historical clone should have 1 row, got %d", len(rows))
	}
}

func TestRowCountTracked(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) {
		cs.AddInsert("a", intRow(1))
		cs.AddInsert("b", intRow(2))
	})
	if tb.RowCount() != 2 {
		t.Errorf("RowCount = %d", tb.RowCount())
	}
	apply(t, tb, 20, func(cs *delta.ChangeSet) { cs.AddDelete("a", intRow(1)) })
	if tb.RowCount() != 1 {
		t.Errorf("RowCount after delete = %d", tb.RowCount())
	}
}

func TestOverwriteSetsSnapshotAndRowCount(t *testing.T) {
	tb := newTestTable()
	apply(t, tb, 10, func(cs *delta.ChangeSet) { cs.AddInsert("a", intRow(1)) })
	v, err := tb.Overwrite(map[string]types.Row{"x": intRow(1), "y": intRow(2)}, ts(20))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Overwrite || v.RowCount != 2 {
		t.Errorf("overwrite version malformed: %+v", v)
	}
	rows, _ := tb.Rows(v.Seq)
	if len(rows) != 2 || !rows["x"].Equal(intRow(1)) || !rows["y"].Equal(intRow(2)) {
		t.Errorf("contents after overwrite: %v", rows)
	}
	// The overwrite starts a log of its own, in row ID order.
	b, _ := tb.Batch(v.Seq)
	if ids := b.IDs(); len(ids) != 2 || ids[0] != "x" || ids[1] != "y" {
		t.Errorf("overwrite scans %v, want [x y]", ids)
	}
	if rows, _ := tb.Rows(v.Seq - 1); len(rows) != 1 || !rows["a"].Equal(intRow(1)) {
		t.Errorf("version before the overwrite reads %v", rows)
	}
}

// TestRestoreRejectsRepeatedRowID feeds RestoreTable a checkpointed
// snapshot that lists one row ID twice: the log would keep both rows
// live, so the restore must fail instead.
func TestRestoreRejectsRepeatedRowID(t *testing.T) {
	st := newTestTable().State()
	st.Snapshots[0] = types.NewBatch(st.Schema, []string{"a", "a"}, []types.Row{intRow(1), intRow(2)})
	if _, err := RestoreTable(st); err == nil {
		t.Fatal("a snapshot repeating a row ID restored without error")
	}
}

func TestNextRowIDUniqueAndPrefixed(t *testing.T) {
	tb := newTestTable()
	a, b := tb.NextRowID(), tb.NextRowID()
	if a == b {
		t.Error("row IDs must be unique")
	}
	if a[0] != 't' {
		t.Errorf("row ID should carry plaintext table prefix: %q", a)
	}
}

// TestBatchSharedAcrossReadersAndCommits checks what the version memo is
// for: readers of one version share a single materialization, and the
// outgoing tip — the next refresh interval's start version — still reads
// from that materialization after a commit.
func TestBatchSharedAcrossReadersAndCommits(t *testing.T) {
	tb := newTestTable()
	for i := int64(0); i < 5; i++ {
		apply(t, tb, 10+i, func(cs *delta.ChangeSet) {
			cs.AddInsert(tb.NextRowID(), intRow(i))
		})
	}
	tipSeq := int64(tb.VersionCount())
	first, err := tb.Batch(tipSeq)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tb.Batch(tipSeq)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("repeated Batch(seq) rebuilt the version instead of sharing it")
	}
	apply(t, tb, 50, func(cs *delta.ChangeSet) {
		cs.AddInsert(tb.NextRowID(), intRow(99))
	})
	prev, err := tb.Batch(tipSeq)
	if err != nil {
		t.Fatal(err)
	}
	if prev != first || prev.Len() != 5 {
		t.Errorf("outgoing tip after a commit: shared=%v, %d rows (want 5)", prev == first, prev.Len())
	}
	rows, err := tb.Rows(tipSeq)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range prev.IDs() {
		if !rows[id].Equal(prev.Row(i)) {
			t.Errorf("Rows(%d)[%s] = %v, batch holds %v", tipSeq, id, rows[id], prev.Row(i))
		}
	}
}

// TestBatchConcurrentFirstReadersShareOnePass starts several readers of a
// version nobody has read yet at once: they must share one pass over the
// log, so they allocate about what one reader of a like version does.
func TestBatchConcurrentFirstReadersShareOnePass(t *testing.T) {
	tb := newTestTable()
	for round := int64(0); round < 2; round++ {
		apply(t, tb, 10+round, func(cs *delta.ChangeSet) {
			for i := int64(0); i < 20000; i++ {
				cs.AddInsert(tb.NextRowID(), intRow(i))
			}
		})
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one := allocated(func() {
		if _, err := tb.Batch(2); err != nil {
			t.Fatal(err)
		}
	})
	const readers = 8
	batches := make([]*types.Batch, readers)
	start := make(chan struct{})
	shared := allocated(func() {
		var wg sync.WaitGroup
		for g := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				b, err := tb.Batch(3)
				if err != nil {
					t.Error(err)
				}
				batches[g] = b
			}()
		}
		close(start)
		wg.Wait()
	})
	for _, b := range batches {
		if b != batches[0] || b.Len() != 40000 {
			t.Fatalf("concurrent readers of version 3 got different batches or %d rows", b.Len())
		}
	}
	// Version 3 has twice the rows of version 2, so one pass over it
	// allocates about 2x; eight separate passes would allocate about 16x.
	if shared > 4*one {
		t.Errorf("%d concurrent first readers allocated %d bytes, one reader of half the rows %d", readers, shared, one)
	}
}

func TestRowsMemoConcurrentReaders(t *testing.T) {
	tb := newTestTable()
	for i := int64(0); i < 30; i++ {
		apply(t, tb, 10+i, func(cs *delta.ChangeSet) {
			cs.AddInsert(tb.NextRowID(), intRow(i))
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				seq := int64(2 + (g+i)%6)
				rows, err := tb.Rows(seq)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rows) != int(seq-1) {
					t.Errorf("Rows(%d) has %d rows, want %d", seq, len(rows), seq-1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkOverwriteHeapPerRow reports the heap a table holds per row
// after a 100k-row Overwrite and four 10-row trickle commits: the row log
// and its live index. The rows and the map the caller overwrote with stay
// alive outside the measurement, so only the table's own memory counts.
func BenchmarkOverwriteHeapPerRow(b *testing.B) {
	const n, trickles, perTrickle = 100_000, 4, 10
	rows := make(map[string]types.Row, n)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "r" + strconv.Itoa(i)
		rows[ids[i]] = intRow(int64(i))
	}
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := int64(ms.HeapAlloc)
		tb := newTestTable()
		if _, err := tb.Overwrite(rows, ts(10)); err != nil {
			b.Fatal(err)
		}
		for v := 0; v < trickles; v++ {
			var cs delta.ChangeSet
			for _, id := range ids[v*perTrickle : (v+1)*perTrickle] {
				cs.AddDelete(id, rows[id])
				cs.AddInsert(id, intRow(-1))
			}
			if _, err := tb.Apply(cs, ts(int64(11+v))); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(int64(ms.HeapAlloc)-before)/n, "heap-B/row")
		runtime.KeepAlive(tb)
	}
	runtime.KeepAlive(rows)
}
