package ivm_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/ivm"
	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// keyedQueries are the shapes whose boundaries take the keyed path: a
// group, partition or DISTINCT key that is a column of the input's one
// scan, over a bare scan and through Filter and Project, with one key
// column or with an INT column beside a STRING one. oneColumn marks a one-column PARTITION BY,
// whose keyed partition count bounds the scanned count from above.
var keyedQueries = []struct {
	sql       string
	oneColumn bool
}{
	{`SELECT b, count(*) c, sum(a) s FROM t GROUP BY b`, false},
	{`SELECT s, b, count(*) c, min(a) m FROM t GROUP BY s, b`, false},
	{`SELECT k, count(*) c, max(v) m FROM (SELECT b k, a v FROM t WHERE a % 4 <> 1) x GROUP BY k`, false},
	{`SELECT a, b, row_number() OVER (PARTITION BY b ORDER BY a) rn FROM t`, true},
	{`SELECT a, s, sum(a) OVER (PARTITION BY s, b ORDER BY a) w FROM t WHERE a > 20`, false},
	{`SELECT id, k, rank() OVER (PARTITION BY k ORDER BY v) r FROM (SELECT a id, b k, a % 7 v FROM t) x`, true},
	{`SELECT DISTINCT s, b, a % 3 m FROM t WHERE a > 10`, false},
}

// keyedRow draws a row of t: b is mostly one of 60 INTs, sometimes NULL or
// a FLOAT (integral, so that it groups with the INT of its value, or not),
// both of which the b run leaves unkeyed.
func keyedRow(rng *rand.Rand, a int64) types.Row {
	var b types.Value
	switch r := rng.Intn(100); {
	case r < 3:
		b = types.Null
	case r < 4:
		b = types.NewFloat(float64(rng.Intn(60)))
	case r < 5:
		b = types.NewFloat(float64(rng.Intn(60)) + 0.5)
	default:
		b = types.NewInt(rng.Int63n(60))
	}
	return types.Row{types.NewInt(a), b, types.NewString([]string{"x", "y"}[rng.Intn(2)])}
}

// pathResult is one differentiation: its change set, the rows its scans
// read, and its stats.
type pathResult struct {
	cs       delta.ChangeSet
	scanRows int64
	stats    ivm.Stats
}

// deltaWith differentiates p over iv on the columnar path, with the keyed
// boundary path on or off.
func (h *harness) deltaWith(p plan.Node, iv ivm.Interval, keyed bool) pathResult {
	h.t.Helper()
	defer ivm.SetKeyedLookups(ivm.SetKeyedLookups(keyed))
	var res pathResult
	counters := &exec.Counters{}
	env := &ivm.Env{Now: h.env.Now, Counters: counters, Stats: &res.stats, Columnar: true}
	cs, err := ivm.Delta(p, iv, env)
	if err != nil {
		h.t.Fatalf("delta (keyed %v): %v", keyed, err)
	}
	res.cs, res.scanRows = cs, counters.ScanRows
	return res
}

// keyedJoins are inner joins whose bilinear terms read the other side
// through a lookup of Δ's join keys: INT keys on both sides, whose rows
// also hold NULLs and FLOATs; a second, STRING key beside the INT one;
// each side under a Filter and a Project; a join under an aggregate. The
// computed keys of the last one leave both sides to the scan (computed).
var keyedJoins = []struct {
	sql      string
	computed bool
}{
	{`SELECT t.a, t.b, u.k, u.name FROM t JOIN u ON t.b = u.k`, false},
	{`SELECT t.a, u.name FROM t JOIN u ON t.b = u.k AND t.s = u.name`, false},
	{`SELECT x.id, x.k, v.name FROM (SELECT a id, b k FROM t WHERE a % 4 <> 1) x
	    JOIN (SELECT name, k kk FROM u WHERE name <> 'y') v ON x.k = v.kk`, false},
	{`SELECT u.name, count(*) c, sum(t.a) total FROM t JOIN u ON u.k = t.b GROUP BY u.name`, false},
	{`SELECT t.a, u.name FROM t JOIN u ON t.b + 1 = u.k + 1`, true},
}

// joinRow draws a row of u: k is mostly one of 150 INTs, 60 of which t's
// b holds, sometimes NULL or an integral FLOAT, which joins the INT of its
// value.
func joinRow(rng *rand.Rand) types.Row {
	k := types.NewInt(rng.Int63n(150))
	switch r := rng.Intn(100); {
	case r < 3:
		k = types.Null
	case r < 5:
		k = types.NewFloat(float64(rng.Intn(60)))
	}
	return types.Row{k, types.NewString([]string{"x", "y", "z"}[rng.Intn(3)])}
}

// TestKeyedBoundariesMatchScanPath differentiates every keyed shape over
// random histories with the keyed boundary path and without it; the change
// sets must be identical, byte for byte. The histories insert NULL and FLOAT keys, empty
// whole groups, move rows between groups (to and from NULL), fold the log
// by compaction between refreshes (the new segment has no runs), switch
// the source to a clone, and change over half the rows in one interval so
// that the lookups decline. The inner joins run the same way over
// histories that change t, u or both in one interval.
func TestKeyedBoundariesMatchScanPath(t *testing.T) {
	for ji, q := range keyedJoins {
		t.Run(fmt.Sprintf("join%d", ji), func(t *testing.T) { keyedJoinHistory(t, int64(ji), q.sql, q.computed) })
	}
	for qi, q := range keyedQueries {
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
			p := h.bind(q.sql)
			fewer := 0
			for round := 0; round < 16; round++ {
				if round == 8 {
					// Refresh a clone of t from here on: its first write
					// copies its live rows into a row log of its own.
					tb := h.tables["T"]
					clone, err := tb.Clone(tb.LatestVersion().Commit)
					if err != nil {
						t.Fatal(err)
					}
					h.tables["T"] = clone
					p = h.bind(q.sql)
				}
				from := h.versions()
				big := round%8 == 5
				h.mutate("t", func(live map[string]types.Row, cs *delta.ChangeSet) {
					emptied := rng.Int63n(60)
					ids := slices.Sorted(maps.Keys(live))
					for _, id := range ids {
						r := live[id]
						switch x := rng.Intn(400); {
						case round%8 == 2 && r[1].Kind() == types.KindInt && r[1].Int() == emptied:
							cs.AddDelete(id, r) // empties the group
						case big && x < 240, x < 2:
							// Moves the row to another group.
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
					// Fold the log up to the interval's start.
					tb := h.tables["T"]
					if _, _, err := tb.Compact(from[tb.ID()]); err != nil {
						t.Fatal(err)
					}
				}
				iv := ivm.Interval{From: from, To: h.versions()}
				keyed, scan := h.deltaWith(p, iv, true), h.deltaWith(p, iv, false)
				if !reflect.DeepEqual(keyed.cs, scan.cs) {
					t.Fatalf("round %d: keyed change set differs from the scan path's\nkeyed: %v\nscan:  %v",
						round, keyed.cs.Changes, scan.cs.Changes)
				}
				if keyed.stats.SubplanSnapshotEvals != scan.stats.SubplanSnapshotEvals {
					t.Errorf("round %d: keyed path counted %d snapshot evaluations, scan path %d",
						round, keyed.stats.SubplanSnapshotEvals, scan.stats.SubplanSnapshotEvals)
				}
				if keyed.stats.PartitionsRecomputed != scan.stats.PartitionsRecomputed {
					t.Errorf("round %d: keyed path recomputed %d partitions, scan path %d",
						round, keyed.stats.PartitionsRecomputed, scan.stats.PartitionsRecomputed)
				}
				if q.oneColumn && keyed.stats.PartitionsTotal < scan.stats.PartitionsTotal {
					t.Errorf("round %d: keyed partition count %d is below the %d partitions at the end",
						round, keyed.stats.PartitionsTotal, scan.stats.PartitionsTotal)
				}
				switch {
				case keyed.scanRows > scan.scanRows:
					t.Errorf("round %d: keyed path read %d rows, scan path %d", round, keyed.scanRows, scan.scanRows)
				case big && keyed.scanRows != scan.scanRows:
					t.Errorf("round %d: a delta over most groups read %d rows keyed, %d scanned; the lookups should decline",
						round, keyed.scanRows, scan.scanRows)
				case keyed.scanRows < scan.scanRows:
					fewer++
				}
			}
			if fewer < 8 {
				t.Errorf("the keyed path read fewer rows than the scan in %d rounds of 16", fewer)
			}
		})
	}
}

// keyedJoinHistory differentiates the join query over a random history of
// t and u with the keyed path on and off. The change sets must be
// identical, and non-empty in most rounds; the keyed path must read no
// more rows, and fewer in most rounds unless the keys are computed, when
// it must read as many.
func keyedJoinHistory(t *testing.T, seed int64, query string, computed bool) {
	rng := rand.New(rand.NewSource(seed))
	h := newHarness(t)
	h.table("t", "a INT, b INT, s STRING")
	h.table("u", "k INT, name STRING")
	nextA := int64(0)
	var rows []types.Row
	for ; nextA < 400; nextA++ {
		rows = append(rows, keyedRow(rng, nextA))
	}
	h.insert("t", rows...)
	rows = nil
	for i := 0; i < 300; i++ {
		rows = append(rows, joinRow(rng))
	}
	h.insert("u", rows...)
	p := h.bind(query)
	fewer, changed := 0, 0
	for round := 0; round < 16; round++ {
		if round == 8 {
			// Refresh clones of t and u from here on.
			for _, name := range []string{"T", "U"} {
				tb := h.tables[name]
				clone, err := tb.Clone(tb.LatestVersion().Commit)
				if err != nil {
					t.Fatal(err)
				}
				h.tables[name] = clone
			}
			p = h.bind(query)
		}
		from := h.versions()
		big := round%8 == 5
		if round%3 != 1 {
			h.mutate("t", func(live map[string]types.Row, cs *delta.ChangeSet) {
				for _, id := range slices.Sorted(maps.Keys(live)) {
					r := live[id]
					switch x := rng.Intn(400); {
					case big && x < 240, x < 2:
						cs.AddDelete(id, r)
						cs.AddInsert(id, types.Row{r[0], keyedRow(rng, 0)[1], r[2]})
					case x < 4:
						cs.AddDelete(id, r)
					}
				}
				// A FLOAT 3.0 joins u's INT 3; a NULL joins nothing.
				for _, b := range []types.Value{types.NewFloat(float64(rng.Intn(60))), types.Null, types.NewInt(rng.Int63n(60))} {
					cs.AddInsert(fmt.Sprintf("n%d", nextA), types.Row{types.NewInt(nextA), b, types.NewString("x")})
					nextA++
				}
			})
		}
		if round%3 != 0 {
			h.mutate("u", func(live map[string]types.Row, cs *delta.ChangeSet) {
				for _, id := range slices.Sorted(maps.Keys(live)) {
					switch x := rng.Intn(300); {
					case x < 2:
						cs.AddDelete(id, live[id])
						cs.AddInsert(id, joinRow(rng))
					case x < 3:
						cs.AddDelete(id, live[id])
					}
				}
				cs.AddInsert(fmt.Sprintf("u%d", round), types.Row{types.NewFloat(float64(rng.Intn(60))), types.NewString("z")})
			})
		}
		if round%4 == 3 {
			// Fold both logs up to the interval's start.
			for _, tb := range h.tables {
				if _, _, err := tb.Compact(from[tb.ID()]); err != nil {
					t.Fatal(err)
				}
			}
		}
		iv := ivm.Interval{From: from, To: h.versions()}
		keyed, scan := h.deltaWith(p, iv, true), h.deltaWith(p, iv, false)
		if !reflect.DeepEqual(keyed.cs, scan.cs) {
			t.Fatalf("round %d: keyed change set differs from the scan path's\nkeyed: %v\nscan:  %v",
				round, keyed.cs.Changes, scan.cs.Changes)
		}
		if len(scan.cs.Changes) > 0 {
			changed++
		}
		if keyed.stats.SubplanSnapshotEvals != scan.stats.SubplanSnapshotEvals {
			t.Errorf("round %d: keyed path counted %d snapshot evaluations, scan path %d",
				round, keyed.stats.SubplanSnapshotEvals, scan.stats.SubplanSnapshotEvals)
		}
		switch {
		case keyed.scanRows > scan.scanRows:
			t.Errorf("round %d: keyed path read %d rows, scan path %d", round, keyed.scanRows, scan.scanRows)
		case computed && keyed.scanRows != scan.scanRows:
			t.Errorf("round %d: computed join keys read %d rows keyed, %d scanned; they should scan", round, keyed.scanRows, scan.scanRows)
		case keyed.scanRows < scan.scanRows:
			fewer++
		}
	}
	if !computed && fewer < 12 {
		t.Errorf("the keyed path read fewer rows than the scan in %d rounds of 16", fewer)
	}
	if changed < 12 {
		t.Errorf("the join changed rows in %d rounds of 16; the test wants changes to compare", changed)
	}
}

// TestKeyedPathAppliesOnlyToScanColumns checks that shapes outside the
// keyed path keep reading whole versions: a computed group key, a key over
// a STRING column, and an aggregate over a join.
func TestKeyedPathAppliesOnlyToScanColumns(t *testing.T) {
	for _, q := range []string{
		`SELECT b + 1 k, count(*) c FROM t GROUP BY b + 1`,
		`SELECT s, count(*) c FROM t GROUP BY s`,
		`SELECT t.b, count(*) c FROM t JOIN u ON t.a = u.a GROUP BY t.b`,
	} {
		h := newHarness(t)
		h.table("t", "a INT, b INT, s STRING")
		h.table("u", "a INT")
		rng := rand.New(rand.NewSource(1))
		var rows []types.Row
		for a := int64(0); a < 200; a++ {
			rows = append(rows, keyedRow(rng, a))
		}
		h.insert("t", rows...)
		h.insert("u", ints(1), ints(2))
		p := h.bind(q)
		from := h.versions()
		h.insert("t", keyedRow(rng, 1))
		iv := ivm.Interval{From: from, To: h.versions()}
		keyed, scan := h.deltaWith(p, iv, true), h.deltaWith(p, iv, false)
		if !reflect.DeepEqual(keyed.cs, scan.cs) || keyed.scanRows != scan.scanRows {
			t.Errorf("%s: keyed path read %d rows for %v, scan %d for %v",
				q, keyed.scanRows, keyed.cs.Changes, scan.scanRows, scan.cs.Changes)
		}
	}
}

// TestKeyedBoundariesConcurrentOnOneSource differentiates an aggregate
// keyed on b and a window keyed on a, over one source, from several
// goroutines at once, so that they build and merge the runs of two columns
// of one row-log segment concurrently. Run it under -race. Each change set
// must equal the scan path's.
func TestKeyedBoundariesConcurrentOnOneSource(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a INT, b INT, s STRING")
	rng := rand.New(rand.NewSource(3))
	var rows []types.Row
	for a := int64(0); a < 600; a++ {
		rows = append(rows, keyedRow(rng, a%150))
	}
	h.insert("t", rows...)
	plans := []plan.Node{
		h.bind(`SELECT b, count(*) c, sum(a) s FROM t GROUP BY b`),
		h.bind(`SELECT a, b, row_number() OVER (PARTITION BY a ORDER BY b) rn FROM t`),
	}
	for round := int64(0); round < 6; round++ {
		from := h.versions()
		h.insert("t", keyedRow(rng, round), keyedRow(rng, 149-round))
		h.mutate("t", func(live map[string]types.Row, cs *delta.ChangeSet) {
			for _, id := range slices.Sorted(maps.Keys(live))[round*7 : round*7+3] {
				cs.AddDelete(id, live[id])
				cs.AddInsert(id, keyedRow(rng, round+20))
			}
		})
		iv := ivm.Interval{From: from, To: h.versions()}
		want := make([]pathResult, len(plans))
		for i, p := range plans {
			want[i] = h.deltaWith(p, iv, false)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				p := plans[g%len(plans)]
				cs, err := ivm.Delta(p, iv, &ivm.Env{Now: h.env.Now, Columnar: true})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(cs, want[g%len(plans)].cs) {
					t.Errorf("round %d: goroutine %d's keyed change set differs from the scan path's", round, g)
				}
			}(g)
		}
		wg.Wait()
	}
}
