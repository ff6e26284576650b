package ivm_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/ivm"
	"dyntables/internal/plan"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// storedQueries are DT shapes whose top affected-key rule reads its old
// side from the DT's stored rows, and whether the rule's key has an
// INT-family column among the DT's columns to look up (the others read the
// whole stored version).
var storedQueries = []struct {
	sql    string
	lookup bool
}{
	{`SELECT a, b, row_number() OVER (PARTITION BY b ORDER BY a) rn FROM t`, true},
	{`SELECT b, a, s, rank() OVER (PARTITION BY s, b ORDER BY a) r FROM t WHERE a % 5 <> 2`, true},
	{`SELECT a, s, sum(a) OVER (PARTITION BY s ORDER BY a) w FROM t`, false},
	{`SELECT b, min(a) lo, max(a) hi, count(*) c FROM t GROUP BY b`, true},
	{`SELECT max(a) hi, s, b FROM t GROUP BY s, b`, true},
	{`SELECT b + 1 k, max(a) hi FROM t GROUP BY b + 1`, true},
	{`SELECT s, avg(a) m FROM t GROUP BY s`, false},
	{`SELECT DISTINCT b, s FROM t`, true},
	{`SELECT DISTINCT s, a % 3 m FROM t WHERE a > 10`, false},
}

// fallbackQueries keep the recompute rule: the key is not among the DT's
// columns, or the rule is not the plan's top operator.
var fallbackQueries = []string{
	`SELECT a, row_number() OVER (PARTITION BY b ORDER BY a) rn FROM t`,
	`SELECT count(*) c, max(a) m FROM t GROUP BY b`,
	`SELECT b, m FROM (SELECT b, max(a) m FROM t GROUP BY b) x WHERE m > 3`,
	`SELECT b + 0 k, c FROM (SELECT b, count(*) c FROM t GROUP BY b) x`,
}

// dtHarness keeps a DT's stored table beside a harness: it holds the
// plan's result as of the last refresh, as the controller's DT does.
type dtHarness struct {
	*harness
	p  plan.Node
	st *storage.Table
}

func newDT(h *harness, p plan.Node) *dtHarness {
	h.t.Helper()
	d := &dtHarness{harness: h, p: p, st: storage.NewTable(p.Schema(), h.ts())}
	rows, err := ivm.EvalAsOf(p, h.versions(), &ivm.Env{Now: h.env.Now, Columnar: true})
	if err != nil {
		h.t.Fatal(err)
	}
	contents := make(map[string]types.Row, len(rows))
	for _, tr := range rows {
		contents[tr.ID] = tr.Row
	}
	if _, err := d.st.Overwrite(contents, h.ts()); err != nil {
		h.t.Fatal(err)
	}
	return d
}

// refresh differentiates the plan over iv with and without the DT's table
// in Env, checks that both give the same change set byte for byte, applies
// it to the DT, and checks the DT against the query at the interval's end.
func (d *dtHarness) refresh(iv ivm.Interval) (stored, recompute pathResult) {
	d.t.Helper()
	run := func(st *storage.Table) pathResult {
		var res pathResult
		counters := &exec.Counters{}
		env := &ivm.Env{Now: d.env.Now, Counters: counters, Stats: &res.stats, Columnar: true}
		if st != nil {
			env.Stored, env.StoredSeq = st, st.LatestVersion().Seq
		}
		cs, err := ivm.Delta(d.p, iv, env)
		if err != nil {
			d.t.Fatalf("delta (stored %v): %v", st != nil, err)
		}
		res.cs, res.scanRows = cs, counters.ScanRows
		return res
	}
	stored, recompute = run(d.st), run(nil)
	if !reflect.DeepEqual(stored.cs, recompute.cs) {
		d.t.Fatalf("the stored old side's change set differs from the recompute rule's\nstored:    %v\nrecompute: %v",
			stored.cs.Changes, recompute.cs.Changes)
	}
	if _, err := d.st.Apply(stored.cs, d.ts()); err != nil {
		d.t.Fatal(err)
	}
	want, err := ivm.EvalAsOf(d.p, iv.To, &ivm.Env{Now: d.env.Now, Columnar: true})
	if err != nil {
		d.t.Fatal(err)
	}
	got, err := d.st.Rows(d.st.LatestVersion().Seq)
	if err != nil {
		d.t.Fatal(err)
	}
	if len(got) != len(want) {
		d.t.Fatalf("the DT holds %d rows, the query %d", len(got), len(want))
	}
	for _, tr := range want {
		if g, ok := got[tr.ID]; !ok || g.Key() != tr.Row.Key() {
			d.t.Fatalf("the DT holds %v for %s, the query %v", g, tr.ID, tr.Row)
		}
	}
	return stored, recompute
}

// TestStoredOldSideMatchesRecompute refreshes a DT of every stored shape
// over random histories, reading the old side from the DT's rows and
// recomputing it; the change sets must be identical, byte for byte. The
// histories carry NULL and FLOAT keys (integral or not), STRING keys, empty
// whole groups, move rows between groups, fold the source's log by
// compaction, and change over half the rows in one interval so that the
// lookups on the DT decline.
func TestStoredOldSideMatchesRecompute(t *testing.T) {
	for qi, q := range storedQueries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(qi)))
			h := newHarness(t)
			h.table("t", "a INT, b INT, s STRING")
			nextA := int64(0)
			var rows []types.Row
			for ; nextA < 400; nextA++ {
				rows = append(rows, keyedRow(rng, nextA))
			}
			h.insert("t", rows...)
			d := newDT(h, h.bind(q.sql))
			looked, declined := 0, 0
			for round := 0; round < 16; round++ {
				from := h.versions()
				big := round%8 == 5
				h.mutate("t", func(live map[string]types.Row, cs *delta.ChangeSet) {
					emptied := rng.Int63n(60)
					for _, id := range slices.Sorted(maps.Keys(live)) {
						r := live[id]
						switch x := rng.Intn(400); {
						case round%8 == 2 && r[1].Kind() == types.KindInt && r[1].Int() == emptied:
							cs.AddDelete(id, r)
						case big && x < 240, x < 2:
							cs.AddDelete(id, r)
							cs.AddInsert(id, types.Row{r[0], keyedRow(rng, 0)[1], r[2]})
						case x < 4:
							cs.AddDelete(id, r)
						}
					}
					for i := rng.Intn(3); i > 0; i-- {
						cs.AddInsert(fmt.Sprintf("n%d", nextA), keyedRow(rng, nextA))
						nextA++
					}
				})
				if round%4 == 3 {
					tb := h.tables["T"]
					if _, _, err := tb.Compact(from[tb.ID()]); err != nil {
						t.Fatal(err)
					}
				}
				dtRows := d.st.RowCount()
				stored, recompute := d.refresh(ivm.Interval{From: from, To: h.versions()})
				if recompute.stats.SubplanSnapshotEvals == 0 {
					continue // the rule's input did not change
				}
				if stored.stats.OldSidesStored != 1 || recompute.stats.OldSidesStored != 0 {
					t.Fatalf("round %d: %d old sides read from the DT with its table, %d without",
						round, stored.stats.OldSidesStored, recompute.stats.OldSidesStored)
				}
				if stored.stats.SubplanSnapshotEvals >= recompute.stats.SubplanSnapshotEvals {
					t.Errorf("round %d: the stored path evaluated %d boundaries, the recompute rule %d",
						round, stored.stats.SubplanSnapshotEvals, recompute.stats.SubplanSnapshotEvals)
				}
				switch read := int(stored.stats.StoredRowsRead); {
				case read == dtRows:
					declined++
				case q.lookup && read < dtRows:
					looked++
				default:
					t.Fatalf("round %d: read %d of the DT's %d rows", round, read, dtRows)
				}
			}
			if q.lookup && (looked == 0 || declined == 0) {
				t.Errorf("the DT lookup served %d rounds and declined %d; want both", looked, declined)
			}
		})
	}
}

// TestStoredOldSideFallsBack checks that shapes whose key the DT does not
// store, or whose rule is not the top operator, keep the recompute rule
// with the DT's table in Env, and that an aggregate with stored
// accumulators keeps folding them.
func TestStoredOldSideFallsBack(t *testing.T) {
	for _, q := range fallbackQueries {
		h := newHarness(t)
		h.table("t", "a INT, b INT, s STRING")
		rng := rand.New(rand.NewSource(1))
		var rows []types.Row
		for a := int64(0); a < 200; a++ {
			rows = append(rows, keyedRow(rng, a))
		}
		h.insert("t", rows...)
		d := newDT(h, h.bind(q))
		from := h.versions()
		h.insert("t", keyedRow(rng, 1), keyedRow(rng, 2))
		stored, _ := d.refresh(ivm.Interval{From: from, To: h.versions()})
		if stored.stats.OldSidesStored != 0 {
			t.Errorf("%s: read its old side from the DT", q)
		}
	}

	h := newHarness(t)
	h.table("t", "a INT, b INT, s STRING")
	h.insert("t", ints(1, 2, 0), ints(2, 2, 0))
	p := h.bind(`SELECT b, count(*) c, sum(a) s FROM t GROUP BY b`)
	d := newDT(h, p)
	store := &ivm.AggStore{}
	for round := int64(0); round < 3; round++ {
		from := h.versions()
		h.insert("t", ints(round, round%2, 0))
		var stats ivm.Stats
		env := &ivm.Env{Now: h.env.Now, Stats: &stats, Columnar: true, Accumulators: store,
			Stored: d.st, StoredSeq: d.st.LatestVersion().Seq}
		cs, err := ivm.Delta(p, ivm.Interval{From: from, To: h.versions()}, env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.st.Apply(cs, h.ts()); err != nil {
			t.Fatal(err)
		}
		if stats.OldSidesStored != 0 || (round > 0 && stats.AccumulatorFolds != 1) {
			t.Fatalf("round %d: an accumulator aggregate read %d old sides from the DT and folded %d times",
				round, stats.OldSidesStored, stats.AccumulatorFolds)
		}
	}
}
