package dyntables

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dyntables/internal/delta"
	"dyntables/internal/types"
)

// TestOpensPeriodicSnapshotCheckpoint opens a data directory written by
// the storage layer that kept a full snapshot every 32 versions:
// testdata/checkpoint-periodic-snapshots holds a checkpoint whose src
// chain carries such a snapshot at version 33, plus WAL commits made
// after it by a process that never closed the engine. The tables must
// come back with their contents, every retained version must equal the
// one before it plus its change set, and the engine must keep working.
func TestOpensPeriodicSnapshotCheckpoint(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "checkpoint-periodic-snapshots")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession()
	query := func(text string) string {
		t.Helper()
		r, err := s.Query(text)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(r.Rows)
	}
	// The values the writing process printed before it exited.
	if got, want := query(`SELECT id, v FROM src ORDER BY id`), "[[1 20] [2 5] [3 80] [4 50] [19 9] [29 19] [39 29] [49 39]]"; got != want {
		t.Errorf("src after reopen = %s, want %s", got, want)
	}
	if got, want := query(`SELECT k, total, n FROM agg ORDER BY k`), "[[0 55 2] [1 196 6]]"; got != want {
		t.Errorf("agg after reopen = %s, want %s", got, want)
	}

	_, tbl, err := e.baseTable("src")
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.VersionCount(); n < 40 {
		t.Fatalf("src reopened with %d versions; the fixture's chain has more than 40", n)
	}
	prev, err := tbl.Rows(tbl.CompactedThrough() + 1)
	if err != nil {
		t.Fatal(err)
	}
	for seq := tbl.CompactedThrough() + 2; seq <= int64(tbl.VersionCount()); seq++ {
		cs, err := tbl.Changes(seq-1, seq)
		if err != nil {
			t.Fatal(err)
		}
		want := applyChangeSet(prev, cs)
		got, err := tbl.Rows(seq)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("version %d: %d rows, version %d plus its changes has %d", seq, len(got), seq-1, len(want))
		}
		for id, r := range want {
			if !got[id].Equal(r) {
				t.Fatalf("version %d row %s = %v, version %d plus its changes has %v", seq, id, got[id], seq-1, r)
			}
		}
		prev = got
	}

	s.MustExec(`UPDATE src SET v = v + 1 WHERE id < 5`)
	s.MustExec(`DELETE FROM src WHERE id = 19`)
	e.AdvanceTime(time.Minute)
	if err := s.ManualRefresh("agg"); err != nil {
		t.Fatal(err)
	}
	if got, want := query(`SELECT k, total, n FROM agg ORDER BY k`), "[[0 57 2] [1 189 5]]"; got != want {
		t.Errorf("agg after new writes = %s, want %s", got, want)
	}
	if err := e.CheckDVS("agg"); err != nil {
		t.Error(err)
	}
}

// applyChangeSet returns rows with a change set applied: deletes first,
// then inserts.
func applyChangeSet(rows map[string]types.Row, cs delta.ChangeSet) map[string]types.Row {
	out := make(map[string]types.Row, len(rows))
	for id, r := range rows {
		out[id] = r
	}
	for _, c := range cs.Changes {
		if c.Action == delta.Delete {
			delete(out, c.RowID)
		}
	}
	for _, c := range cs.Changes {
		if c.Action == delta.Insert {
			out[c.RowID] = c.Row
		}
	}
	return out
}
