package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dyntables/internal/delta"
)

// errorsAs aliases errors.As for brevity in the hot assertion path.
func errorsAs(err error, target any) bool { return errors.As(err, target) }

// snapshotKey renders Rows(seq) output in a canonical comparable form.
func snapshotKey(t *testing.T, tb *Table, seq int64) string {
	t.Helper()
	rows, err := tb.Rows(seq)
	if err != nil {
		t.Fatalf("Rows(%d): %v", seq, err)
	}
	lines := make([]string, 0, len(rows))
	for id, r := range rows {
		lines = append(lines, id+"\x00"+r.Key())
	}
	sort.Strings(lines)
	return fmt.Sprint(lines)
}

// TestCompactRespectsPinsProperty is the pin-safety property test: over
// random interleavings of commits, pins, unpins and compactions, the
// effective horizon never climbs above the oldest pin, every pinned
// sequence stays readable and byte-stable from pin to unpin, and every
// surviving sequence reads the same bytes as the uncompacted model.
func TestCompactRespectsPinsProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tb := newTestTable()

			// model[seq] = canonical contents at seq, maintained from the
			// uncompacted history.
			model := map[int64]string{1: snapshotKey(t, tb, 1)}
			// pinned[seq] = contents captured at pin time.
			pinned := map[int64]string{}
			commit := int64(10)
			nextRow := 0

			for op := 0; op < 300; op++ {
				switch r := rng.Intn(10); {
				case r < 4: // commit a change set
					var cs delta.ChangeSet
					n := 1 + rng.Intn(3)
					for i := 0; i < n; i++ {
						cs.AddInsert(fmt.Sprintf("r%d", nextRow), intRow(int64(nextRow)))
						nextRow++
					}
					commit += int64(1 + rng.Intn(5))
					if _, err := tb.Apply(cs, ts(commit)); err != nil {
						t.Fatal(err)
					}
					seq := int64(tb.VersionCount())
					model[seq] = snapshotKey(t, tb, seq)
				case r < 6: // pin a random live sequence
					lo := tb.CompactedThrough() + 1
					hi := int64(tb.VersionCount())
					seq := lo + rng.Int63n(hi-lo+1)
					tb.Pin(seq)
					if _, dup := pinned[seq]; !dup {
						pinned[seq] = snapshotKey(t, tb, seq)
					}
				case r < 7: // unpin one
					for seq := range pinned {
						tb.Unpin(seq)
						delete(pinned, seq)
						break
					}
				default: // compact at a random horizon
					h := 1 + rng.Int63n(int64(tb.VersionCount())+2)
					eff, _, err := tb.Compact(h)
					if err != nil {
						t.Fatalf("Compact(%d): %v", h, err)
					}
					if floor := tb.PinnedFloor(); floor > 0 && eff > floor {
						t.Fatalf("compaction folded past the pinned floor: effective %d > floor %d", eff, floor)
					}
					if eff != tb.CompactedThrough()+1 {
						t.Fatalf("effective horizon %d disagrees with CompactedThrough %d",
							eff, tb.CompactedThrough())
					}
				}

				// Pin stability holds after every op; the full live-chain
				// sweep against the model is O(versions), so it runs
				// periodically and at the end.
				for seq, want := range pinned {
					if got := snapshotKey(t, tb, seq); got != want {
						t.Fatalf("op %d: pinned seq %d not byte-stable", op, seq)
					}
				}
				if op%16 == 15 || op == 299 {
					for seq := tb.CompactedThrough() + 1; seq <= int64(tb.VersionCount()); seq++ {
						if want, ok := model[seq]; ok {
							if got := snapshotKey(t, tb, seq); got != want {
								t.Fatalf("op %d: live seq %d diverged from uncompacted model", op, seq)
							}
						}
					}
				}
				if lv, total := tb.LiveVersions(), tb.VersionCount(); int64(lv) != int64(total)-tb.CompactedThrough() {
					t.Fatalf("op %d: LiveVersions %d != VersionCount %d - CompactedThrough %d",
						op, lv, total, tb.CompactedThrough())
				}
			}
		})
	}
}

// TestCompactConcurrentReaders hammers one table with concurrent
// committers, compactors and pinned readers under the race detector:
// pinned sequences must stay readable and byte-stable no matter how the
// sweep interleaves.
func TestCompactConcurrentReaders(t *testing.T) {
	tb := newTestTable()
	var wg sync.WaitGroup

	// Writer: 200 committed versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			var cs delta.ChangeSet
			cs.AddInsert(fmt.Sprintf("w%d", i), intRow(int64(i)))
			if _, err := tb.Apply(cs, ts(int64(10+i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Compactor: keep folding to the last 4 versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			h := int64(tb.VersionCount()) - 3
			if _, _, err := tb.Compact(h); err != nil {
				t.Errorf("Compact(%d): %v", h, err)
				return
			}
		}
	}()

	// Readers: pin the then-latest version, capture it, re-read it many
	// times while churn and compaction race on, then unpin.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				seq := int64(tb.VersionCount())
				tb.Pin(seq)
				first, err := tb.Rows(seq)
				if err != nil {
					// The fold can land between reading VersionCount and
					// taking the pin; that interleaving legitimately loses
					// the version. (The engine prevents it by taking pins
					// under the statement lock the sweep excludes.) Once a
					// pinned read has succeeded, stability is mandatory.
					var gone *ErrCompacted
					if errorsAs(err, &gone) {
						tb.Unpin(seq)
						continue
					}
					t.Errorf("pinned Rows(%d): %v", seq, err)
					tb.Unpin(seq)
					return
				}
				want := len(first)
				for k := 0; k < 20; k++ {
					rows, err := tb.Rows(seq)
					if err != nil {
						t.Errorf("pinned re-read Rows(%d): %v", seq, err)
						tb.Unpin(seq)
						return
					}
					if len(rows) != want {
						t.Errorf("pinned seq %d changed size: %d -> %d", seq, want, len(rows))
						tb.Unpin(seq)
						return
					}
				}
				tb.Unpin(seq)
			}
		}()
	}
	wg.Wait()
}
