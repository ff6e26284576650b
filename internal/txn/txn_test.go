package txn

import (
	"errors"
	"testing"
	"time"

	"dyntables/internal/clock"
	"dyntables/internal/delta"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

func setup() (*Manager, *storage.Table, *clock.Virtual) {
	vc := clock.NewVirtual(time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC))
	m := NewManager(vc)
	schema := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	tb := storage.NewTable(schema, m.Now())
	return m, tb, vc
}

func intRow(v int64) types.Row { return types.Row{types.NewInt(v)} }

// read returns the contents tx sees of tb through ReadBatch, by row ID.
func read(t *testing.T, tx *Txn, tb *storage.Table) map[string]types.Row {
	t.Helper()
	b, err := tx.ReadBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]types.Row, b.Len())
	for i, id := range b.IDs() {
		out[id] = b.Rows()[i]
	}
	return out
}

func TestCommitVisibility(t *testing.T) {
	m, tb, vc := setup()
	vc.Advance(time.Second)

	w := m.Begin()
	var cs delta.ChangeSet
	cs.AddInsert("a", intRow(1))
	if err := w.Write(tb, cs); err != nil {
		t.Fatal(err)
	}
	commit, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if commit.IsZero() {
		t.Fatal("commit timestamp missing")
	}

	rows := read(t, m.Begin(), tb)
	if len(rows) != 1 || rows["a"][0].Int() != 1 {
		t.Errorf("read after commit: %v", rows)
	}
}

func TestSnapshotIsolationReadsPinnedVersion(t *testing.T) {
	m, tb, vc := setup()
	vc.Advance(time.Second)

	w1 := m.Begin()
	var cs delta.ChangeSet
	cs.AddInsert("a", intRow(1))
	_ = w1.Write(tb, cs)
	if _, err := w1.Commit(); err != nil {
		t.Fatal(err)
	}

	reader := m.Begin() // snapshot taken here
	vc.Advance(time.Second)

	w2 := m.Begin()
	var cs2 delta.ChangeSet
	cs2.AddInsert("b", intRow(2))
	_ = w2.Write(tb, cs2)
	if _, err := w2.Commit(); err != nil {
		t.Fatal(err)
	}

	if rows := read(t, reader, tb); len(rows) != 1 {
		t.Errorf("snapshot read must not see later commit: %v", rows)
	}
}

func TestWriteWriteConflictFirstCommitterWins(t *testing.T) {
	m, tb, vc := setup()
	vc.Advance(time.Second)

	seed := m.Begin()
	var cs delta.ChangeSet
	cs.AddInsert("a", intRow(1))
	_ = seed.Write(tb, cs)
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	vc.Advance(time.Second)

	t1 := m.Begin()
	t2 := m.Begin()

	var u1 delta.ChangeSet
	u1.AddDelete("a", intRow(1))
	u1.AddInsert("a", intRow(10))
	_ = t1.Write(tb, u1)

	var u2 delta.ChangeSet
	u2.AddDelete("a", intRow(1))
	u2.AddInsert("a", intRow(20))
	_ = t2.Write(tb, u2)

	if _, err := t1.Commit(); err != nil {
		t.Fatalf("first committer must win: %v", err)
	}
	_, err := t2.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer must conflict, got %v", err)
	}
}

func TestDisjointRowsDoNotConflict(t *testing.T) {
	m, tb, vc := setup()
	vc.Advance(time.Second)

	t1 := m.Begin()
	t2 := m.Begin()

	var u1 delta.ChangeSet
	u1.AddInsert("x", intRow(1))
	_ = t1.Write(tb, u1)
	var u2 delta.ChangeSet
	u2.AddInsert("y", intRow(2))
	_ = t2.Write(tb, u2)

	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Commit(); err != nil {
		t.Fatalf("disjoint writes must not conflict: %v", err)
	}
	rows := read(t, m.Begin(), tb)
	if len(rows) != 2 {
		t.Errorf("both writes should apply: %v", rows)
	}
}

func TestOverwriteConflictsWithAnyChange(t *testing.T) {
	m, tb, vc := setup()
	vc.Advance(time.Second)

	t1 := m.Begin() // will overwrite
	t2 := m.Begin() // inserts a disjoint row

	var u2 delta.ChangeSet
	u2.AddInsert("y", intRow(2))
	_ = t2.Write(tb, u2)
	if _, err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	_ = t1.Overwrite(tb, map[string]types.Row{"z": intRow(9)})
	if _, err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("overwrite after concurrent change must conflict, got %v", err)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	m, tb, vc := setup()
	vc.Advance(time.Second)

	w := m.Begin()
	var cs delta.ChangeSet
	cs.AddInsert("a", intRow(1))
	_ = w.Write(tb, cs)
	w.Abort()
	if _, err := w.Commit(); !errors.Is(err, ErrFinished) {
		t.Errorf("commit after abort: %v", err)
	}
	rows := read(t, m.Begin(), tb)
	if len(rows) != 0 {
		t.Errorf("aborted write leaked: %v", rows)
	}
}

func TestReadOnlyCommit(t *testing.T) {
	m, tb, _ := setup()
	r := m.Begin()
	read(t, r, tb)
	if _, err := r.Commit(); err != nil {
		t.Errorf("read-only commit should succeed: %v", err)
	}
}

func TestFinishedTxnRejectsOperations(t *testing.T) {
	m, tb, _ := setup()
	w := m.Begin()
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(tb, delta.ChangeSet{}); !errors.Is(err, ErrFinished) {
		t.Errorf("write after commit: %v", err)
	}
	if _, err := w.ReadBatch(tb); !errors.Is(err, ErrFinished) {
		t.Errorf("read after commit: %v", err)
	}
}

func TestBeginAtHistoricalSnapshot(t *testing.T) {
	m, tb, vc := setup()
	vc.Advance(time.Second)

	w := m.Begin()
	var cs delta.ChangeSet
	cs.AddInsert("a", intRow(1))
	_ = w.Write(tb, cs)
	commit1, _ := w.Commit()

	vc.Advance(time.Second)
	w2 := m.Begin()
	var cs2 delta.ChangeSet
	cs2.AddInsert("b", intRow(2))
	_ = w2.Write(tb, cs2)
	if _, err := w2.Commit(); err != nil {
		t.Fatal(err)
	}

	// A transaction pinned at the first commit sees only the first row.
	if rows := read(t, m.BeginAt(commit1), tb); len(rows) != 1 {
		t.Errorf("historical snapshot: %v", rows)
	}
}

func TestCommitTimestampsStrictlyIncrease(t *testing.T) {
	m, tb, vc := setup()
	vc.Advance(time.Second)
	var last = m.Now()
	for i := 0; i < 10; i++ {
		w := m.Begin()
		var cs delta.ChangeSet
		cs.AddInsert(tb.NextRowID(), intRow(int64(i)))
		_ = w.Write(tb, cs)
		commit, err := w.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if !last.Less(commit) {
			t.Fatalf("commit %v did not advance past %v", commit, last)
		}
		last = commit
	}
}
