package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

func TestValueCodecRoundTrip(t *testing.T) {
	variant, err := types.ParseVariant(`{"a": [1, "two", null, true], "b": {"c": 2.5}}`)
	if err != nil {
		t.Fatal(err)
	}
	values := []types.Value{
		types.Null,
		types.NewInt(-42),
		types.NewFloat(3.5),
		types.NewString("héllo\x00world"),
		types.NewBool(true),
		types.NewBool(false),
		types.NewTimestamp(time.Date(2025, 4, 1, 12, 30, 0, 123456000, time.UTC)),
		types.NewInterval(90 * time.Second),
		variant,
	}
	for _, v := range values {
		st, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %s: %v", v, err)
		}
		got, err := DecodeValue(st)
		if err != nil {
			t.Fatalf("decode %s: %v", v, err)
		}
		if !types.Equal(v, got) {
			t.Fatalf("round trip %s -> %s", v, got)
		}
		if v.Kind() != got.Kind() {
			t.Fatalf("kind changed: %s -> %s", v.Kind(), got.Kind())
		}
	}
}

func TestChangeSetCodecRoundTrip(t *testing.T) {
	var cs delta.ChangeSet
	cs.AddInsert("r1", types.Row{types.NewInt(1), types.NewString("a")})
	cs.AddDelete("r2", types.Row{types.NewInt(2), types.Null})
	states, err := EncodeChangeSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeChangeSet(states)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Changes[0].RowID != "r1" || got.Changes[1].Action != delta.Delete {
		t.Fatalf("bad round trip: %+v", got)
	}
	if !got.Changes[0].Row.Equal(cs.Changes[0].Row) {
		t.Fatal("row contents changed")
	}
}

func TestWALAppendReopen(t *testing.T) {
	dir := t.TempDir()
	w, records, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh WAL has %d records", len(records))
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(&Record{Kind: KindClock, Clock: &ClockRecord{NowMicros: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, records, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(records) != 5 {
		t.Fatalf("want 5 records, got %d", len(records))
	}
	for i, rec := range records {
		if rec.Seq != int64(i+1) || rec.Clock.NowMicros != int64(i) {
			t.Fatalf("record %d corrupted: %+v", i, rec)
		}
	}
	// Appends continue the sequence.
	if err := w2.Append(&Record{Kind: KindClock, Clock: &ClockRecord{}}); err != nil {
		t.Fatal(err)
	}
	if got := w2.LastSeq(); got != 6 {
		t.Fatalf("want next seq 6, got %d", got)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(&Record{Kind: KindClock, Clock: &ClockRecord{NowMicros: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Tear the final record: chop a few bytes off the file.
	path := filepath.Join(dir, WALName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, records, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("want 2 surviving records, got %d", len(records))
	}
	// The torn bytes are gone and appends resume cleanly.
	if err := w2.Append(&Record{Kind: KindClock, Clock: &ClockRecord{NowMicros: 99}}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, records, err = OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || records[2].Clock.NowMicros != 99 {
		t.Fatalf("bad records after re-append: %+v", records)
	}
}

func TestWALCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.Append(&Record{Kind: KindClock, Clock: &ClockRecord{NowMicros: int64(i)}})
	}
	w.Close()
	path := filepath.Join(dir, WALName)
	data, _ := os.ReadFile(path)
	// Flip a payload byte inside the second record.
	data[len(data)/2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	_, records, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) >= 3 {
		t.Fatalf("corrupt record should stop replay, got %d records", len(records))
	}
}

func TestWALResetKeepsSequence(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(&Record{Kind: KindClock, Clock: &ClockRecord{}})
	w.Append(&Record{Kind: KindClock, Clock: &ClockRecord{}})
	if err := w.ResetUpTo(2); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Fatalf("reset left %d records", w.Records())
	}
	w.Append(&Record{Kind: KindClock, Clock: &ClockRecord{}})
	if got := w.LastSeq(); got != 3 {
		t.Fatalf("sequence reset: want 3, got %d", got)
	}
	w.Close()
	// Recovery with the snapshot watermark skips nothing from the live tail.
	_, records, err := OpenWAL(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Seq != 3 {
		t.Fatalf("want the one post-checkpoint record, got %+v", records)
	}
}

func TestWALResetUpToKeepsConcurrentRecords(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w.Append(&Record{Kind: KindClock, Clock: &ClockRecord{NowMicros: int64(i)}})
	}
	// A checkpoint that captured state through Seq 2 must preserve the
	// records appended after its capture (Seqs 3 and 4).
	if err := w.ResetUpTo(2); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 2 {
		t.Fatalf("want 2 surviving records, got %d", w.Records())
	}
	w.Close()
	_, records, err := OpenWAL(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].Seq != 3 || records[1].Seq != 4 {
		t.Fatalf("surviving records wrong: %+v", records)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if snap, err := ReadSnapshot(dir); err != nil || snap != nil {
		t.Fatalf("missing snapshot should be (nil, nil), got (%v, %v)", snap, err)
	}

	tbl := storage.NewTable(types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
	), hlc.Timestamp{WallMicros: 1000})
	var cs delta.ChangeSet
	cs.AddInsert(tbl.NextRowID(), types.Row{types.NewInt(1), types.NewString("a")})
	if _, err := tbl.Apply(cs, hlc.Timestamp{WallMicros: 2000}); err != nil {
		t.Fatal(err)
	}
	ts, err := EncodeTable(7, tbl.State())
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{WalSeq: 12, TableSeq: 7, Tables: []TableState{ts}}
	if err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}

	got, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.WalSeq != 12 || len(got.Tables) != 1 {
		t.Fatalf("bad snapshot: %+v", got)
	}
	restored, err := DecodeTable(got.Tables[0])
	if err != nil {
		t.Fatal(err)
	}
	if restored.VersionCount() != tbl.VersionCount() {
		t.Fatalf("version count: want %d, got %d", tbl.VersionCount(), restored.VersionCount())
	}
	want, _ := tbl.Rows(2)
	gotRows, err := restored.Rows(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != len(want) {
		t.Fatalf("rows: want %d, got %d", len(want), len(gotRows))
	}
	for id, row := range want {
		if !gotRows[id].Equal(row) {
			t.Fatalf("row %s differs", id)
		}
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	n, snap, err := Inspect(dir)
	if err != nil || n != 0 || snap {
		t.Fatalf("empty dir: got (%d, %v, %v)", n, snap, err)
	}
	w, _, _ := OpenWAL(dir, 0)
	w.Append(&Record{Kind: KindClock, Clock: &ClockRecord{}})
	w.Close()
	if err := WriteSnapshot(dir, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	n, snap, err = Inspect(dir)
	if err != nil || n != 1 || !snap {
		t.Fatalf("want (1, true), got (%d, %v, %v)", n, snap, err)
	}
}

// TestTableStateRoundTripKeepsLogOrder checkpoints a table through
// EncodeTable and DecodeTable after every step of a chain with a creation
// version, change sets, an INSERT OVERWRITE, a compaction fold, a
// data-equivalent version and a clone. The restored table must encode to
// the same bytes, and scan every retained version in the same order, as
// the table it came from.
func TestTableStateRoundTripKeepsLogOrder(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
	)
	at := func(n int64) hlc.Timestamp { return hlc.Timestamp{WallMicros: n * 1000} }
	row := func(id int64, name string) types.Row { return types.Row{types.NewInt(id), types.NewString(name)} }
	tbl := storage.NewTable(schema, at(1))
	apply := func(tb *storage.Table, commit int64, f func(cs *delta.ChangeSet)) {
		t.Helper()
		var cs delta.ChangeSet
		f(&cs)
		if _, err := tb.Apply(cs, at(commit)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, tb *storage.Table) {
		t.Helper()
		enc, err := EncodeTable(1, tb.State())
		if err != nil {
			t.Fatal(err)
		}
		restored, err := DecodeTable(enc)
		if err != nil {
			t.Fatalf("%s: DecodeTable: %v", label, err)
		}
		again, err := EncodeTable(1, restored.State())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(enc)
		got, _ := json.Marshal(again)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: restored table encodes differently:\n got %s\nwant %s", label, got, want)
		}
		for _, vs := range enc.Versions {
			b, err := tb.Batch(vs.Seq)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := restored.Batch(vs.Seq)
			if err != nil {
				t.Fatalf("%s: restored Batch(%d): %v", label, vs.Seq, err)
			}
			if fmt.Sprint(rb.IDs(), rb.Rows()) != fmt.Sprint(b.IDs(), b.Rows()) {
				t.Fatalf("%s: version %d scans %v %v restored, %v %v live",
					label, vs.Seq, rb.IDs(), rb.Rows(), b.IDs(), b.Rows())
			}
			if vs.HasSnapshot {
				ids := make([]string, len(vs.Snapshot))
				for i, e := range vs.Snapshot {
					ids[i] = e.ID
				}
				if fmt.Sprint(ids) != fmt.Sprint(b.IDs()) {
					t.Fatalf("%s: version %d's snapshot is written as %v, scans as %v", label, vs.Seq, ids, b.IDs())
				}
			}
		}
	}

	check("creation", tbl)
	apply(tbl, 2, func(cs *delta.ChangeSet) {
		cs.AddInsert("r5", row(5, "e"))
		cs.AddInsert("r3", row(3, "c"))
		cs.AddInsert("r9", row(9, "i"))
	})
	apply(tbl, 3, func(cs *delta.ChangeSet) {
		cs.AddDelete("r3", row(3, "c"))
		cs.AddDelete("r9", row(9, "i"))
		cs.AddInsert("r9", row(9, "I"))
		cs.AddInsert("r1", row(1, "a"))
	})
	check("changes", tbl)
	if _, err := tbl.Overwrite(map[string]types.Row{"o2": row(2, "y"), "o1": row(1, "x"), "o3": row(3, "z")}, at(4)); err != nil {
		t.Fatal(err)
	}
	apply(tbl, 5, func(cs *delta.ChangeSet) {
		cs.AddDelete("o2", row(2, "y"))
		cs.AddInsert("a1", row(7, "g"))
	})
	check("overwrite", tbl)
	if _, err := tbl.AppendDataEquivalent(at(6)); err != nil {
		t.Fatal(err)
	}
	apply(tbl, 7, func(cs *delta.ChangeSet) { cs.AddInsert("a0", row(8, "h")) })
	// The fold at 5 keeps log order o1, o3, a1, which is not row ID order.
	if _, folded, err := tbl.Compact(5); err != nil || folded != 4 {
		t.Fatalf("Compact(5) folded %d versions, %v", folded, err)
	}
	check("fold", tbl)
	enc, _ := EncodeTable(1, tbl.State())
	if fold := enc.Versions[0]; !fold.HasSnapshot || len(fold.Snapshot) != 3 || fold.Snapshot[0].ID != "o1" || fold.Snapshot[2].ID != "a1" {
		t.Fatalf("fold version encoded as %+v", fold)
	}

	clone, err := tbl.Clone(at(7))
	if err != nil {
		t.Fatal(err)
	}
	check("clone", clone)
	apply(clone, 8, func(cs *delta.ChangeSet) {
		cs.AddDelete("o3", row(3, "z"))
		cs.AddInsert("c1", row(4, "d"))
	})
	apply(tbl, 8, func(cs *delta.ChangeSet) { cs.AddDelete("a1", row(7, "g")) })
	check("clone after its first write", clone)
	check("origin after the clone wrote", tbl)
}
