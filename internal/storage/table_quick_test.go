package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dyntables/internal/delta"
	"dyntables/internal/types"
)

// TestTimeTravelQuick is a property test over random change histories:
// materializing any historical version must equal replaying the change log
// up to that version.
func TestTimeTravelQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := newTestTable()

		// Reference model: full contents per version.
		reference := []map[string]int64{{}}
		live := map[string]int64{}

		commit := int64(10)
		for step := 0; step < 25; step++ {
			var cs delta.ChangeSet
			// Random deletes of existing rows.
			for id, v := range live {
				if rng.Intn(5) == 0 {
					cs.AddDelete(id, intRow(v))
				}
			}
			// Random inserts.
			for i := 0; i < rng.Intn(4); i++ {
				cs.AddInsert(tb.NextRowID(), intRow(rng.Int63n(100)))
			}
			commit++
			if _, err := tb.Apply(cs, ts(commit)); err != nil {
				t.Logf("apply: %v", err)
				return false
			}
			// Update the reference model.
			for _, c := range cs.Changes {
				if c.Action == delta.Delete {
					delete(live, c.RowID)
				}
			}
			for _, c := range cs.Changes {
				if c.Action == delta.Insert {
					live[c.RowID] = c.Row[0].Int()
				}
			}
			snap := make(map[string]int64, len(live))
			for id, v := range live {
				snap[id] = v
			}
			reference = append(reference, snap)
		}

		// Every version materializes to its reference contents.
		for seq := int64(1); seq <= int64(tb.VersionCount()); seq++ {
			rows, err := tb.Rows(seq)
			if err != nil {
				t.Logf("rows(%d): %v", seq, err)
				return false
			}
			ref := reference[seq-1]
			if len(rows) != len(ref) {
				return false
			}
			for id, v := range ref {
				row, ok := rows[id]
				if !ok || row[0].Int() != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestChangesComposeQuick checks that Changes(a, c) equals the composition
// of Changes(a, b) and Changes(b, c) applied in sequence.
func TestChangesComposeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := newTestTable()
		commit := int64(10)
		live := map[string]int64{}
		for step := 0; step < 15; step++ {
			var cs delta.ChangeSet
			for id, v := range live {
				if rng.Intn(4) == 0 {
					cs.AddDelete(id, intRow(v))
					delete(live, id)
				}
			}
			for i := 0; i < 1+rng.Intn(3); i++ {
				id := tb.NextRowID()
				v := rng.Int63n(50)
				cs.AddInsert(id, intRow(v))
				live[id] = v
			}
			commit++
			if _, err := tb.Apply(cs, ts(commit)); err != nil {
				return false
			}
		}
		total := int64(tb.VersionCount())
		a, b, c := int64(1), total/2, total
		if b < a {
			b = a
		}

		direct, err := tb.Changes(a, c)
		if err != nil {
			return false
		}
		first, err := tb.Changes(a, b)
		if err != nil {
			return false
		}
		second, err := tb.Changes(b, c)
		if err != nil {
			return false
		}
		var composed delta.ChangeSet
		composed.Append(first)
		composed.Append(second)
		composed = composed.Consolidate()

		// Applying either to version a's contents yields version c's.
		base, err := tb.Rows(a)
		if err != nil {
			return false
		}
		apply := func(cs delta.ChangeSet) map[string]types.Row {
			out := make(map[string]types.Row, len(base))
			for id, r := range base {
				out[id] = r
			}
			for _, ch := range cs.Changes {
				if ch.Action == delta.Delete {
					delete(out, ch.RowID)
				}
			}
			for _, ch := range cs.Changes {
				if ch.Action == delta.Insert {
					out[ch.RowID] = ch.Row
				}
			}
			return out
		}
		got1, got2 := apply(direct), apply(composed)
		want, err := tb.Rows(c)
		if err != nil {
			return false
		}
		if len(got1) != len(want) || len(got2) != len(want) {
			return false
		}
		for id, r := range want {
			g1, ok1 := got1[id]
			g2, ok2 := got2[id]
			if !ok1 || !ok2 || !g1.Equal(r) || !g2.Equal(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
