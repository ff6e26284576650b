package ivm_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"dyntables/internal/delta"
	"dyntables/internal/ivm"
	"dyntables/internal/types"
)

// TestStoredRefreshSkipsConsolidation pins the stored rule's fast path: a
// refresh diffs the DT's rows of Δ's keys against the rule's new rows and
// emits the consolidated change set itself. Its RowsDiffed equals the
// rows the recompute rule emits for consolidation, and it emits exactly
// the rows of its change set, so ConsolidateSigned did not run on them.
func TestStoredRefreshSkipsConsolidation(t *testing.T) {
	for qi, q := range storedQueries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + qi)))
			h := newHarness(t)
			h.table("t", "a INT, b INT, s STRING")
			var rows []types.Row
			for a := int64(0); a < 300; a++ {
				rows = append(rows, keyedRow(rng, a))
			}
			h.insert("t", rows...)
			d := newDT(h, h.bind(q.sql))
			diffed, cancelled := 0, 0
			for round := 0; round < 6; round++ {
				from := h.versions()
				h.mutate("t", func(live map[string]types.Row, cs *delta.ChangeSet) {
					for _, id := range slices.Sorted(maps.Keys(live)) {
						if r := live[id]; rng.Intn(40) == 0 {
							cs.AddDelete(id, r)
							cs.AddInsert(id, types.Row{r[0], keyedRow(rng, 0)[1], r[2]})
						}
					}
				})
				stored, recompute := d.refresh(ivm.Interval{From: from, To: h.versions()})
				if recompute.stats.SubplanSnapshotEvals == 0 {
					continue
				}
				diffed++
				if stored.stats.RowsDiffed == 0 || stored.stats.RowsDiffed != recompute.stats.RowsEmitted {
					t.Errorf("round %d: the stored refresh diffed %d rows, the recompute rule emitted %d",
						round, stored.stats.RowsDiffed, recompute.stats.RowsEmitted)
				}
				if n := int64(stored.cs.Len()); stored.stats.RowsEmitted != n {
					t.Errorf("round %d: the stored refresh emitted %d rows for a change set of %d", round, stored.stats.RowsEmitted, n)
				}
				if recompute.stats.RowsDiffed != 0 {
					t.Errorf("round %d: the recompute rule diffed %d rows", round, recompute.stats.RowsDiffed)
				}
				if recompute.stats.RowsEmitted > int64(recompute.cs.Len()) {
					cancelled++
				}
			}
			if diffed == 0 || cancelled == 0 {
				t.Errorf("%d refreshes diffed, %d with unchanged rows; want both", diffed, cancelled)
			}
		})
	}
}
