package dyntables

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dyntables/internal/core"
)

// accumQuery is an aggregate whose refreshes fold Δ into stored
// accumulators: COUNT(*), COUNT, COUNT_IF and SUM over a nullable INT.
const accumQuery = `SELECT k, count(*) n, count(c) nc, count_if(c > 0) p, sum(c) s FROM src GROUP BY k`

// accumChurn runs one batch of random DML on src: inserts (some with a
// NULL c, some with a c near an int64 bound, so that sums wrap), deletes,
// UPDATEs that NULL or wrap c, UPDATEs of the group key k, which move rows
// between groups, and, when empty ≥ 0, the deletion of group empty whole.
func accumChurn(t *testing.T, e *Engine, rng *rand.Rand, nextID *int, empty int) {
	t.Helper()
	var vals []string
	for i := 3 + rng.Intn(6); i > 0; i-- {
		c := fmt.Sprint(rng.Intn(41) - 20)
		switch rng.Intn(6) {
		case 0:
			c = "NULL"
		case 1:
			c = fmt.Sprint(int64(math.MaxInt64) - rng.Int63n(1<<40))
		}
		vals = append(vals, fmt.Sprintf("(%d, %d, %s)", *nextID, rng.Intn(8), c))
		*nextID++
	}
	e.MustExec(`INSERT INTO src VALUES ` + strings.Join(vals, ", "))
	lo := rng.Intn(*nextID)
	e.MustExec(fmt.Sprintf(`DELETE FROM src WHERE id >= %d AND id < %d`, lo, lo+2))
	lo = rng.Intn(*nextID)
	e.MustExec(fmt.Sprintf(`UPDATE src SET k = %d WHERE id >= %d AND id < %d`, rng.Intn(8), lo, lo+4))
	lo = rng.Intn(*nextID)
	e.MustExec(fmt.Sprintf(`UPDATE src SET c = NULL WHERE id = %d`, lo))
	lo = rng.Intn(*nextID)
	e.MustExec(fmt.Sprintf(`UPDATE src SET c = %d WHERE id = %d`, int64(math.MinInt64)+rng.Int63n(1<<40), lo))
	if empty >= 0 {
		e.MustExec(fmt.Sprintf(`DELETE FROM src WHERE k = %d`, empty))
	}
}

// dtContents returns a DT's stored rows by ID, each by its injective key,
// so that equal contents are byte-identical.
func dtContents(t *testing.T, e *Engine, name string) map[string]string {
	t.Helper()
	dt, err := e.DynamicTableHandle(name)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dt.Storage.Rows(int64(dt.Storage.VersionCount()))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(rows))
	for id, r := range rows {
		out[id] = r.Key()
	}
	return out
}

// TestAccumulatorBatchingInvariance maintains one aggregate four ways over
// the same random churn of its source: INCREMENTAL refreshed after every
// batch (every), INCREMENTAL refreshed after every second batch (pairs),
// AUTO refreshed after every batch (auto), and FULL (full). After each
// second batch all four refresh at one data timestamp, and their contents
// must be byte-identical: refresh(Δ₁∪Δ₂) ≡ refresh(Δ₁); refresh(Δ₂) ≡ a
// FULL recompute. The stored accumulators are lost on the way: by a crash
// and reopen, by FULL refreshes that AUTO chooses for batches that rewrite
// the whole source, and by CREATE OR REPLACE of the source.
func TestAccumulatorBatchingInvariance(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	createSrc := func(replace string) {
		e.MustExec(`CREATE ` + replace + `TABLE src (id INT, k INT, c INT)`)
		var vals []string
		for id := 0; id < 1200; id++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", id, id%8, id%23-11))
		}
		e.MustExec(`INSERT INTO src VALUES ` + strings.Join(vals, ", "))
	}
	e.MustExec(`CREATE WAREHOUSE wh`)
	createSrc("")
	names := []string{"every", "pairs", "auto", "full"}
	for i, mode := range []string{"INCREMENTAL", "INCREMENTAL", "AUTO", "FULL"} {
		e.MustExec(fmt.Sprintf(`CREATE DYNAMIC TABLE %s TARGET_LAG = '1 hour' WAREHOUSE = wh REFRESH_MODE = %s AS %s`,
			names[i], mode, accumQuery))
	}
	rng := rand.New(rand.NewSource(1))
	nextID := 1200
	folded, autoFull := 0, 0
	for batch := 0; batch < 40; batch++ {
		switch batch {
		case 14:
			if err := e.crash(); err != nil {
				t.Fatal(err)
			}
			if e, err = Open(dir); err != nil {
				t.Fatal(err)
			}
		case 28:
			createSrc("OR REPLACE ")
			nextID = 1200
		}
		empty := -1
		if batch%5 == 2 {
			empty = batch % 8
		}
		accumChurn(t, e, rng, &nextID, empty)
		if batch >= 20 && batch < 26 {
			// Rewrite every row: AUTO learns that a refresh costs about
			// what a recompute does and switches to FULL.
			e.MustExec(`UPDATE src SET c = c + 1`)
		}
		e.AdvanceTime(time.Minute)
		refresh := []string{"every", "auto"}
		if batch%2 == 1 {
			refresh = names
		}
		for _, name := range refresh {
			if err := e.ManualRefresh(name); err != nil {
				t.Fatalf("batch %d: refresh %s: %v", batch, name, err)
			}
			dt, _ := e.DynamicTableHandle(name)
			rec, _ := dt.LastRecord()
			switch {
			case name == "every" && rec.Action == core.ActionIncremental && rec.SourceRowsScanned == 0:
				folded++
			case name == "auto" && rec.Action == core.ActionFull:
				autoFull++
			}
		}
		if batch%2 == 0 {
			continue
		}
		want := dtContents(t, e, "full")
		for _, name := range names {
			if err := e.CheckDVS(name); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			if got := dtContents(t, e, name); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d: %s's contents differ from the FULL refresh's\ngot:  %v\nwant: %v", batch, name, got, want)
			}
		}
	}
	t.Logf("every folded %d of 40 refreshes; auto ran FULL %d times", folded, autoFull)
	// every folds from stored accumulators in all but four refreshes: its
	// first and the first after recovery seed them, and so does the one
	// after the REINITIALIZE that the source's replacement forces.
	if folded != 36 {
		t.Errorf("every folded %d of 40 refreshes from stored accumulators, want 36", folded)
	}
	if autoFull == 0 {
		t.Error("auto never refreshed FULL, so no FULL refresh dropped its accumulators")
	}
}

// TestAccumulatorDTsRefreshInParallel refreshes two aggregate DTs that
// keep stored accumulators over one source on two workers, while CheckDVS
// evaluates both beside them. Run it under -race.
func TestAccumulatorDTsRefreshInParallel(t *testing.T) {
	e := New(WithConfig(Config{RefreshWorkers: 2}))
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE src (id INT, k INT, c INT)`)
	var vals []string
	for id := 0; id < 600; id++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", id, id%8, id%23-11))
	}
	s.MustExec(`INSERT INTO src VALUES ` + strings.Join(vals, ", "))
	s.MustExec(`CREATE DYNAMIC TABLE by_k TARGET_LAG = '1 minute' WAREHOUSE = wh AS ` + accumQuery)
	s.MustExec(`CREATE DYNAMIC TABLE by_c TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT c, count(*) n, sum(k) s FROM src GROUP BY c`)
	rng := rand.New(rand.NewSource(2))
	nextID := 600
	for round := 0; round < 10; round++ {
		accumChurn(t, e, rng, &nextID, -1)
		e.AdvanceTime(time.Minute)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range []string{"by_k", "by_c"} {
				// A DT not yet initialized has nothing to check.
				if err := e.CheckDVS(name); err != nil && !strings.Contains(err.Error(), "not initialized") {
					t.Errorf("round %d: %v", round, err)
				}
			}
		}()
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for _, name := range []string{"by_k", "by_c"} {
			if err := e.CheckDVS(name); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

// TestDistinctSumAndAvg pins SUM and AVG(DISTINCT) to each distinct
// non-NULL value once: over v = {5, 5, 7, NULL} they give 12 and 6, and
// COUNT(DISTINCT v) gives 2. A DT over them refreshes INCREMENTAL by
// recomputing the affected groups from the source, never by folding Δ
// into stored accumulators (a DISTINCT value cannot be taken back), and
// passes CheckDVS after DML.
func TestDistinctSumAndAvg(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (id INT, g INT, v INT)`)
	e.MustExec(`INSERT INTO t VALUES (1, 1, 5), (2, 1, 5), (3, 1, 7), (4, 1, NULL), (5, 2, 3)`)
	expectQuery(t, e, `SELECT sum(DISTINCT v), avg(DISTINCT v), count(DISTINCT v) FROM t WHERE g = 1`, "[12 6 2]")
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh REFRESH_MODE = INCREMENTAL
	            AS SELECT g, sum(DISTINCT v) s, avg(DISTINCT v) a, count(*) n FROM t GROUP BY g`)
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		t.Fatal(err)
	}
	for i, dml := range []string{
		`INSERT INTO t VALUES (6, 1, 7), (7, 2, 3), (8, 2, 4)`,
		`DELETE FROM t WHERE id = 1`,
		`UPDATE t SET v = 9 WHERE id = 2`,
		`UPDATE t SET g = 2 WHERE id = 3`,
	} {
		e.MustExec(dml)
		e.AdvanceTime(time.Minute)
		if err := e.ManualRefresh("d"); err != nil {
			t.Fatal(err)
		}
		dt, _ := e.DynamicTableHandle("d")
		rec, _ := dt.LastRecord()
		if rec.Action != core.ActionIncremental || rec.SourceRowsScanned == 0 {
			t.Fatalf("refresh %d: action %v scanning %d source rows; want an INCREMENTAL recompute of the affected groups",
				i, rec.Action, rec.SourceRowsScanned)
		}
		if err := e.CheckDVS("d"); err != nil {
			t.Fatalf("refresh %d: %v", i, err)
		}
	}
	// g = 1 holds 9, NULL and 7; g = 2 holds 3, 3, 4 and 7.
	expectQuery(t, e, `SELECT g, s, a, n FROM d`, "[1 16 8 3]", "[2 14 4.666666666666667 4]")
}
