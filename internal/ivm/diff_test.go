package ivm

import (
	"bytes"
	"reflect"
	"testing"

	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/types"
)

// diffIDs are the row IDs the fuzzer draws from: few, so that the old and
// new sides share them, and some prefixes of others.
var diffIDs = []string{"t:1", "t:10", "t:2", "g:ff", "a", "ab", "(t:1*t:2)", ""}

// diffValues are the values the fuzzer draws from: INT 1 beside an
// integral FLOAT, 0.0 beside -0.0, NULL, strings (empty too), and kinds
// that share a payload.
var diffValues = []types.Value{
	types.NewInt(1),
	types.NewFloat(1),
	types.NewInt(2),
	types.NewFloat(1.5),
	types.Null,
	types.NewString("x"),
	types.NewString(""),
	types.NewFloat(0),
	types.NewFloat(negZero()),
	types.NewBool(true),
	types.NewBool(false),
	types.NewTimestampMicros(1),
	types.NewInterval(1000),
	types.NewVariant(map[string]any{"a": 1.0}),
	types.NewString("1"),
	types.NewInt(0),
}

func negZero() float64 {
	z := 0.0
	return -z
}

// diffSides decodes fuzz input into a DT's stored version and a rule's new
// rows, three bytes a row: the side, row ID and whether a stored row is of
// an affected key, the key value, and one or two more values. A row's key
// is its first value as AppendKey encodes it, so INT 1 and FLOAT 1.0 share
// a key. old lists the stored rows of affected keys, in the version's
// order, and repeats reports whether a side repeats a row ID within a key.
func diffSides(data []byte) (version *storedRows, old, cur []exec.TRow, curAt []int32, repeats bool) {
	var ids []string
	var rows []types.Row
	var keys []int32
	at := map[string]int32{}
	type sideID struct {
		side int
		key  int32
		id   string
	}
	seen := map[sideID]bool{}
	for ; len(data) >= 3; data = data[3:] {
		a, b, c := data[0], data[1], data[2]
		row := types.Row{diffValues[int(b)%len(diffValues)], diffValues[int(c)%len(diffValues)]}
		if c >= 128 {
			row = append(row, diffValues[int(c>>4)%len(diffValues)])
		}
		key := string(exec.NormalizeKeyValue(row[0]).EncodeKey(nil))
		g, ok := at[key]
		if !ok {
			g = int32(len(at))
			at[key] = g
		}
		tr := exec.TRow{ID: diffIDs[int(a>>1)%len(diffIDs)], Row: row}
		side := int(a & 1)
		if side == 0 && a&0x10 != 0 {
			// A stored row of a key Δ does not touch.
			ids, rows, keys = append(ids, tr.ID), append(rows, row), append(keys, -1)
			continue
		}
		if k := (sideID{side, g, tr.ID}); seen[k] {
			repeats = true
		} else {
			seen[k] = true
		}
		if side == 0 {
			ids, rows, keys = append(ids, tr.ID), append(rows, row), append(keys, g)
			old = append(old, tr)
		} else {
			cur, curAt = append(cur, tr), append(curAt, g)
		}
	}
	return newStoredRows(ids, rows, keys, len(at)), old, cur, curAt, repeats
}

// FuzzRowDiff checks the stored rule's diff against the consolidation it
// replaces: for any old and new rows, rowDiff's change set equals
// ConsolidateSigned(−old ++ new) exactly, in contents and in order; it
// falls back to that consolidation exactly when a side repeats a row ID
// within a key; and types.Row.KeyEqual agrees with comparing the rows'
// encodings.
func FuzzRowDiff(f *testing.F) {
	// INT 1 stored, integral FLOAT 1.0 new, under one row ID and key.
	f.Add([]byte{0, 0, 2, 1, 1, 2})
	// NULLs and strings, equal on both sides, and an empty new side.
	f.Add([]byte{2, 4, 5, 3, 4, 5, 4, 5, 6})
	// One ID whose contents differ; one ID on each side only.
	f.Add([]byte{0, 2, 0, 1, 2, 3, 4, 2, 0, 7, 2, 0})
	// A new row ID repeated within a key, and an old one.
	f.Add([]byte{1, 0, 0, 1, 0, 2, 0, 2, 2, 0, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The encodings are compared pair by pair: keep that quick.
		if len(data) > 3*128 {
			data = data[:3*128]
		}
		version, old, cur, curAt, repeats := diffSides(data)
		for _, o := range old {
			for _, c := range cur {
				if enc := bytes.Equal(o.Row.EncodeKey(nil), c.Row.EncodeKey(nil)); o.Row.KeyEqual(c.Row) != enc {
					t.Fatalf("KeyEqual(%v, %v) = %v, encodings equal %v", o.Row, c.Row, !enc, enc)
				}
			}
		}
		var d rowDiff
		d.rows(version, cur, curAt)
		if d.fallback != repeats {
			t.Fatalf("fallback = %v, want %v: old %v, new %v", d.fallback, repeats, old, cur)
		}
		var stats Stats
		got := d.changeSet(version, func(out []delta.Change) []delta.Change {
			return appendAs(out, cur, delta.Insert)
		}, &Env{Stats: &stats})
		all := appendAs(appendAs(nil, old, delta.Delete), cur, delta.Insert)
		want := delta.ChangeSet{Changes: all}.ConsolidateSigned()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("old %v\nnew %v\ndiff        %v\nconsolidate %v", old, cur, got.Changes, want.Changes)
		}
		if repeats {
			if stats.RowsDiffed != 0 || stats.RowsEmitted != int64(len(all)) {
				t.Fatalf("a fallback counted %d rows diffed and %d emitted, want 0 and %d",
					stats.RowsDiffed, stats.RowsEmitted, len(all))
			}
		} else if stats.RowsDiffed != int64(len(all)) || stats.RowsEmitted != int64(len(got.Changes)) {
			t.Fatalf("the diff counted %d rows diffed and %d emitted, want %d and %d",
				stats.RowsDiffed, stats.RowsEmitted, len(all), len(got.Changes))
		}
	})
}

// TestRowDiffRepeatedIDFallsBack drives the diff with a row ID repeated
// within a key on either side, which a well-formed DT never has: the
// refresh consolidates −old ++ new instead.
func TestRowDiffRepeatedIDFallsBack(t *testing.T) {
	row := func(vals ...int64) types.Row {
		r := make(types.Row, len(vals))
		for i, v := range vals {
			r[i] = types.NewInt(v)
		}
		return r
	}
	for _, tc := range []struct {
		name     string
		old, cur []exec.TRow
	}{
		{"old", []exec.TRow{{ID: "a", Row: row(1, 1)}, {ID: "a", Row: row(1, 2)}, {ID: "b", Row: row(1, 3)}},
			[]exec.TRow{{ID: "a", Row: row(1, 1)}}},
		{"new", []exec.TRow{{ID: "a", Row: row(1, 1)}},
			[]exec.TRow{{ID: "a", Row: row(1, 1)}, {ID: "a", Row: row(1, 1)}}},
		{"new only", nil,
			[]exec.TRow{{ID: "c", Row: row(1, 1)}, {ID: "c", Row: row(1, 1)}, {ID: "d", Row: row(1, 2)}}},
	} {
		ids := make([]string, len(tc.old))
		rows := make([]types.Row, len(tc.old))
		for i, o := range tc.old {
			ids[i], rows[i] = o.ID, o.Row
		}
		version := newStoredRows(ids, rows, make([]int32, len(tc.old)), 1)
		var d rowDiff
		d.rows(version, tc.cur, make([]int32, len(tc.cur)))
		if !d.fallback {
			t.Errorf("%s: a repeated row ID did not fall back", tc.name)
		}
		var stats Stats
		got := d.changeSet(version, func(out []delta.Change) []delta.Change {
			return appendAs(out, tc.cur, delta.Insert)
		}, &Env{Stats: &stats})
		all := appendAs(appendAs(nil, tc.old, delta.Delete), tc.cur, delta.Insert)
		if want := (delta.ChangeSet{Changes: all}).ConsolidateSigned(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", tc.name, got.Changes, want.Changes)
		}
		if stats.RowsDiffed != 0 {
			t.Errorf("%s: a fallback counted %d rows diffed", tc.name, stats.RowsDiffed)
		}
	}
}
