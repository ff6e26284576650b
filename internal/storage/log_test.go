package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"dyntables/internal/delta"
	"dyntables/internal/types"
)

// logModel is the reference for one table: its contents at every version
// sequence, computed by replaying change sets on plain maps, and the scan
// order each version showed the first time it was read.
type logModel struct {
	tb       *Table
	contents map[int64]map[string]int64 // seq -> row ID -> value
	order    map[int64][]string         // seq -> row IDs in scan order
	pins     []int64
}

func copyContents(c map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(c))
	for id, v := range c {
		out[id] = v
	}
	return out
}

// checkRetained compares Rows, Batch and RowCount of every retained
// version against the reference replay, and checks that each version
// scans in the order it first showed, here and in a table restored from
// this one's state.
func (m *logModel) checkRetained(t *testing.T, label string) {
	t.Helper()
	restored, err := RestoreTable(m.tb.State())
	if err != nil {
		t.Fatalf("%s: RestoreTable: %v", label, err)
	}
	for seq := m.tb.CompactedThrough() + 1; seq <= int64(m.tb.VersionCount()); seq++ {
		want := m.contents[seq]
		rows, err := m.tb.Rows(seq)
		if err != nil {
			t.Fatalf("%s: Rows(%d): %v", label, seq, err)
		}
		if len(rows) != len(want) {
			t.Fatalf("%s: Rows(%d) has %d rows, replay has %d", label, seq, len(rows), len(want))
		}
		for id, v := range want {
			if r, ok := rows[id]; !ok || r[0].Int() != v {
				t.Fatalf("%s: Rows(%d)[%s] = %v, replay has %d", label, seq, id, r, v)
			}
		}
		b, err := m.tb.Batch(seq)
		if err != nil {
			t.Fatalf("%s: Batch(%d): %v", label, seq, err)
		}
		if b.Len() != len(want) {
			t.Fatalf("%s: Batch(%d) has %d rows, replay has %d", label, seq, b.Len(), len(want))
		}
		m.tb.mu.RLock()
		entries := m.tb.segmentFor(seq).entries
		m.tb.mu.RUnlock()
		if order, _ := scan(entries, seq, len(want)); !slices.Equal(order, b.IDs()) {
			t.Fatalf("%s: Batch(%d) order %v, log order %v", label, seq, b.IDs(), order)
		}
		if first, ok := m.order[seq]; ok && !slices.Equal(first, b.IDs()) {
			t.Fatalf("%s: Batch(%d) order %v, earlier %v", label, seq, b.IDs(), first)
		}
		m.order[seq] = b.IDs()
		rb, err := restored.Batch(seq)
		if err != nil {
			t.Fatalf("%s: restored Batch(%d): %v", label, seq, err)
		}
		if !slices.Equal(rb.IDs(), b.IDs()) {
			t.Fatalf("%s: restored Batch(%d) order %v, live %v", label, seq, rb.IDs(), b.IDs())
		}
		col := b.Col(0)
		seen := make(map[string]bool, b.Len())
		for i, id := range b.IDs() {
			if v, ok := want[id]; seen[id] || !ok || b.Row(i)[0].Int() != v || col.Value(i).Int() != v {
				t.Fatalf("%s: Batch(%d) row %s = %v, column %v (duplicate=%v), replay has %d",
					label, seq, id, b.Row(i), col.Value(i), seen[id], v)
			}
			seen[id] = true
		}
		v, err := m.tb.VersionBySeq(seq)
		if err != nil {
			t.Fatal(err)
		}
		if v.RowCount != len(want) {
			t.Fatalf("%s: version %d RowCount %d, replay has %d", label, seq, v.RowCount, len(want))
		}
	}
}

// TestRowLogMatchesReplayProperty runs random interleavings of Apply,
// Overwrite, AppendDataEquivalent, Compact under random pins, and Clone
// (whose clones then take writes of their own), and checks that every
// retained version of every table reads the contents a replay of its
// change sets gives, in one scan order across compactions and restores.
func TestRowLogMatchesReplayProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			root := newTestTable()
			models := []*logModel{{tb: root, contents: map[int64]map[string]int64{1: {}}, order: map[int64][]string{}}}
			commit := int64(10)
			nextRow := 0
			for op := 0; op < 250; op++ {
				m := models[rng.Intn(len(models))]
				seq := int64(m.tb.VersionCount())
				commit += int64(1 + rng.Intn(3))
				switch r := rng.Intn(20); {
				case r < 10: // change set: deletes, updates, inserts, replacing inserts
					live := m.contents[seq]
					next := copyContents(live)
					ids := make([]string, 0, len(live))
					for id := range live {
						ids = append(ids, id)
					}
					sort.Strings(ids)
					var cs delta.ChangeSet
					for _, id := range ids {
						switch rng.Intn(8) {
						case 0:
							cs.AddDelete(id, intRow(live[id]))
							delete(next, id)
						case 1:
							v := rng.Int63n(1000)
							cs.AddDelete(id, intRow(live[id]))
							cs.AddInsert(id, intRow(v))
							next[id] = v
						case 2:
							v := rng.Int63n(1000)
							cs.AddInsert(id, intRow(v))
							next[id] = v
						}
					}
					for i := rng.Intn(5); i > 0; i-- {
						id := fmt.Sprintf("r%d", nextRow)
						nextRow++
						v := rng.Int63n(1000)
						cs.AddInsert(id, intRow(v))
						next[id] = v
					}
					if _, err := m.tb.Apply(cs, ts(commit)); err != nil {
						t.Fatalf("op %d: Apply: %v", op, err)
					}
					m.contents[seq+1] = next
				case r < 12: // overwrite
					next := map[string]int64{}
					rows := map[string]types.Row{}
					for i := rng.Intn(6); i > 0; i-- {
						id := fmt.Sprintf("r%d", nextRow)
						nextRow++
						v := rng.Int63n(1000)
						next[id], rows[id] = v, intRow(v)
					}
					if _, err := m.tb.Overwrite(rows, ts(commit)); err != nil {
						t.Fatalf("op %d: Overwrite: %v", op, err)
					}
					m.contents[seq+1] = next
				case r < 13: // data-equivalent maintenance
					if _, err := m.tb.AppendDataEquivalent(ts(commit)); err != nil {
						t.Fatalf("op %d: AppendDataEquivalent: %v", op, err)
					}
					m.contents[seq+1] = m.contents[seq]
				case r < 15: // pin or unpin
					if len(m.pins) > 0 && rng.Intn(2) == 0 {
						m.tb.Unpin(m.pins[0])
						m.pins = m.pins[1:]
						break
					}
					lo := m.tb.CompactedThrough() + 1
					p := lo + rng.Int63n(seq-lo+1)
					m.tb.Pin(p)
					m.pins = append(m.pins, p)
				case r < 18: // compact
					h := m.tb.CompactedThrough() + 1 + rng.Int63n(seq-m.tb.CompactedThrough()+1)
					eff, _, err := m.tb.Compact(h)
					if err != nil {
						t.Fatalf("op %d: Compact(%d): %v", op, h, err)
					}
					for _, p := range m.pins {
						if p < eff {
							t.Fatalf("op %d: Compact(%d) folded pinned version %d (effective %d)", op, h, p, eff)
						}
					}
				default: // clone at a random retained commit time
					lo := m.tb.CompactedThrough() + 1
					at := lo + rng.Int63n(seq-lo+1)
					v, err := m.tb.VersionBySeq(at)
					if err != nil {
						t.Fatal(err)
					}
					clone, err := m.tb.Clone(v.Commit)
					if err != nil {
						t.Fatalf("op %d: Clone: %v", op, err)
					}
					cm := &logModel{tb: clone, contents: map[int64]map[string]int64{}, order: map[int64][]string{}}
					for s := lo; s <= at; s++ {
						cm.contents[s] = m.contents[s]
						if o, ok := m.order[s]; ok {
							cm.order[s] = o
						}
					}
					models = append(models, cm)
				}
				if op%10 == 9 {
					for i, m := range models {
						m.checkRetained(t, fmt.Sprintf("op %d table %d", op, i))
					}
				}
			}
			for i, m := range models {
				m.checkRetained(t, fmt.Sprintf("end table %d", i))
			}
		})
	}
}

// TestPinnedReadersRaceApply reads several pinned old versions — more
// than the batch memo holds, so most reads scan the log — while a writer
// commits deletes and updates of the very rows those versions hold and
// compacts up to the pins. Run it under -race: scans run without the
// table lock beside commits that stamp deletes in place.
func TestPinnedReadersRaceApply(t *testing.T) {
	tb := newTestTable()
	var cs delta.ChangeSet
	for i := 0; i < 200; i++ {
		cs.AddInsert(fmt.Sprintf("r%d", i), intRow(int64(i)))
	}
	if _, err := tb.Apply(cs, ts(10)); err != nil {
		t.Fatal(err)
	}
	live := map[string]int64{}
	for i := 0; i < 200; i++ {
		live[fmt.Sprintf("r%d", i)] = int64(i)
	}
	commit := int64(10)
	step := func(i int) {
		var cs delta.ChangeSet
		id := fmt.Sprintf("r%d", i%200)
		if v, ok := live[id]; ok {
			cs.AddDelete(id, intRow(v))
			if i%3 != 0 {
				cs.AddInsert(id, intRow(v+1000))
				live[id] = v + 1000
			} else {
				delete(live, id)
			}
		} else {
			cs.AddInsert(id, intRow(int64(i)))
			live[id] = int64(i)
		}
		commit++
		if _, err := tb.Apply(cs, ts(commit)); err != nil {
			t.Error(err)
		}
	}
	// Pin 2*memoSize versions spread over some history.
	var pinned []int64
	want := map[int64]string{}
	for p := 0; p < 2*memoSize; p++ {
		for i := 0; i < 7; i++ {
			step(p*7 + i)
		}
		seq := int64(tb.VersionCount())
		tb.Pin(seq)
		pinned = append(pinned, seq)
		want[seq] = snapshotKey(t, tb, seq)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 400; i++ {
			step(i)
			if i%50 == 0 {
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
			for i := 0; i < 40; i++ {
				seq := pinned[(r+i)%len(pinned)]
				if got := snapshotKey(t, tb, seq); got != want[seq] {
					t.Errorf("pinned version %d changed under concurrent commits", seq)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if floor := tb.CompactedThrough() + 1; floor > pinned[0] {
		t.Errorf("compaction folded past the oldest pin: readable from %d, pinned %d", floor, pinned[0])
	}
}

// applyBytes returns the median heap bytes allocated by one 10-row Apply
// (four inserts, four deletes, two updates) on a table of n rows.
func applyBytes(t *testing.T, n int) uint64 {
	t.Helper()
	tb := newTestTable()
	var cs delta.ChangeSet
	for i := 0; i < n; i++ {
		cs.AddInsert(fmt.Sprintf("r%d", i), intRow(int64(i)))
	}
	if _, err := tb.Apply(cs, ts(10)); err != nil {
		t.Fatal(err)
	}
	lo, next := 0, n
	var samples []uint64
	var ms runtime.MemStats
	for round := 0; round < 21; round++ {
		var cs delta.ChangeSet
		for i := 0; i < 4; i++ {
			cs.AddInsert(fmt.Sprintf("r%d", next), intRow(int64(next)))
			next++
			cs.AddDelete(fmt.Sprintf("r%d", lo), intRow(int64(lo)))
			lo++
		}
		for i := 0; i < 2; i++ {
			id := fmt.Sprintf("r%d", lo+10+i)
			cs.AddDelete(id, intRow(int64(lo+10+i)))
			cs.AddInsert(id, intRow(int64(lo+10+i)))
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := tb.Apply(cs, ts(int64(11+round))); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		samples = append(samples, ms.TotalAlloc-before)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// TestApplyAllocationIndependentOfTableSize is the O(|Δ|) guard that does
// not depend on timing: a 10-row commit allocates about the same on a
// 200k-row table as on a 10k-row one. Copying the tip would allocate 20x
// more.
func TestApplyAllocationIndependentOfTableSize(t *testing.T) {
	small, large := applyBytes(t, 10_000), applyBytes(t, 200_000)
	if large >= 2*small {
		t.Errorf("10-row Apply allocates %d B on 200k rows vs %d B on 10k rows; want < 2x", large, small)
	}
}
