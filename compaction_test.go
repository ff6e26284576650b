package dyntables

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenCursorsStableUnderCompaction is the cursor-safety property for
// version-chain compaction: cursors opened before and during concurrent
// churn, parallel refreshes and aggressive compaction sweeps must serve
// exactly the rows of their pinned snapshot, byte-for-byte, no matter
// when the sweep runs relative to their drain. Runs in CI under -race.
func TestOpenCursorsStableUnderCompaction(t *testing.T) {
	e := New(WithConfig(Config{
		RefreshWorkers:    4,
		CompactionHorizon: 3,
	}))
	defer e.Close()
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE src (id INT, grp INT, v INT)`)
	for w := 0; w < 4; w++ {
		s.MustExec(fmt.Sprintf(
			`CREATE DYNAMIC TABLE agg%d TARGET_LAG = '1 minute' WAREHOUSE = wh
			 AS SELECT grp, count(*) n, sum(v) sv FROM src WHERE grp %% 4 = %d GROUP BY grp`, w, w))
	}
	var batch []string
	for i := 0; i < 400; i++ {
		batch = append(batch, fmt.Sprintf("(%d, %d, %d)", i, i%16, i%7))
	}
	s.MustExec(`INSERT INTO src VALUES ` + strings.Join(batch, ", "))
	e.AdvanceTime(2 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}

	// canonical drains a fresh materialized query — the expected bytes
	// for any cursor pinned at the current version.
	canonical := func(q string) string {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			lines = append(lines, strings.Join(parts, "|"))
		}
		return strings.Join(lines, "\n")
	}

	const q = `SELECT id, grp, v FROM src ORDER BY id`
	want := canonical(q)

	// Open several cursors pinned to the current version, then unleash
	// churn + scheduler ticks (parallel refreshes + compaction sweeps)
	// while the cursors drain slowly.
	const cursors = 6
	open := make([]*Rows, cursors)
	for i := range open {
		c, err := s.QueryContext(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		open[i] = c
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Churn + tick driver. Engine statements are internally synchronized;
	// the scheduler tick runs parallel refreshes and the sweep.
	wg.Add(1)
	go func() {
		defer wg.Done()
		id := 1000
		for i := 0; i < 30; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d, %d)`, id, id%16, id%7))
			s.MustExec(fmt.Sprintf(`UPDATE src SET v = v + 1 WHERE id %% 13 = %d`, i%13))
			s.MustExec(fmt.Sprintf(`DELETE FROM src WHERE id %% 31 = %d AND id < 400`, i%31))
			id++
			e.AdvanceTime(2 * time.Minute)
			if err := e.RunScheduler(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Drain every cursor concurrently and compare bytes.
	for i, c := range open {
		wg.Add(1)
		go func(i int, c *Rows) {
			defer wg.Done()
			defer c.Close()
			var lines []string
			for c.Next() {
				row := c.Row()
				parts := make([]string, len(row))
				for j, v := range row {
					parts[j] = v.String()
				}
				lines = append(lines, strings.Join(parts, "|"))
				if len(lines)%50 == 0 {
					time.Sleep(time.Millisecond) // let sweeps interleave
				}
			}
			if err := c.Err(); err != nil {
				t.Errorf("cursor %d failed mid-drain: %v", i, err)
				return
			}
			if got := strings.Join(lines, "\n"); got != want {
				t.Errorf("cursor %d diverged from its pinned snapshot (%d rows vs %d)",
					i, len(lines), strings.Count(want, "\n")+1)
			}
		}(i, c)
	}
	wg.Wait()
	close(stop)

	if n := e.OpenCursors(); n != 0 {
		t.Fatalf("%d cursors leaked", n)
	}
	// With every cursor closed and frontiers advanced, the next sweep
	// may fold history; chains must have actually been compacted by now.
	if _, err := e.CompactNow(); err != nil {
		t.Fatal(err)
	}
	_, tbl, err := e.baseTable("src")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.CompactedThrough() == 0 {
		t.Fatal("src chain was never compacted despite horizon 3 and 30 ticks")
	}
	if lv := tbl.LiveVersions(); lv > 8 {
		t.Errorf("src retains %d live versions; horizon 3 should bound the chain", lv)
	}
}

// TestFootprintPlateauUnderCompaction drives long steady churn through
// scheduler ticks with a compaction horizon and requires the footprint —
// live versions, pending chain rows, bytes — to plateau instead of
// growing with history, while the same churn without compaction grows
// without bound.
func TestFootprintPlateauUnderCompaction(t *testing.T) {
	run := func(horizon int) (mid, end int64, versions int) {
		cfg := Config{CompactionHorizon: horizon}
		e := New(WithConfig(cfg))
		defer e.Close()
		s := e.NewSession()
		s.MustExec(`CREATE WAREHOUSE wh`)
		s.MustExec(`CREATE TABLE src (id INT, v INT)`)
		s.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
		            AS SELECT id % 8 grp, count(*) n FROM src GROUP BY ALL`)
		// Fixed live set: churn rewrites rows in place so live data stays
		// constant and only version-chain history accumulates.
		var seedRows []string
		for i := 0; i < 24; i++ {
			seedRows = append(seedRows, fmt.Sprintf("(%d, 0)", i))
		}
		s.MustExec(`INSERT INTO src VALUES ` + strings.Join(seedRows, ", "))
		churn := func(rounds int) {
			for i := 0; i < rounds; i++ {
				s.MustExec(fmt.Sprintf(`UPDATE src SET v = v + 1 WHERE id %% 6 = %d`, i%6))
				e.AdvanceTime(2 * time.Minute)
				if err := e.RunScheduler(); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, tbl, err := e.baseTable("src")
		if err != nil {
			t.Fatal(err)
		}
		churn(40)
		mid = tbl.FootprintStats().Bytes
		churn(40)
		fp := tbl.FootprintStats()
		return mid, fp.Bytes, fp.Versions
	}

	midC, endC, versC := run(4)
	_, endU, versU := run(0)

	if versC >= versU {
		t.Errorf("live versions did not shrink under compaction: %d vs %d uncompacted", versC, versU)
	}
	if endU <= endC {
		t.Errorf("uncompacted footprint (%d bytes) should exceed compacted (%d bytes)", endU, endC)
	}
	// Plateau: doubling the history must not double the compacted
	// footprint. Allow slack for snapshot placement wobble.
	if endC > midC*3/2 {
		t.Errorf("compacted footprint kept growing: %d bytes after 40 rounds, %d after 80", midC, endC)
	}
}

// TestScanOrderSurvivesCompactionAndRecovery pins scan order across
// compaction and recovery. A LIMIT without ORDER BY keeps whichever rows
// its source scans first, so a FULL refresh of such a DT picks the same
// rows in a live engine and in one recovered from its checkpoint only if
// a retained version scans in the same order after a compaction fold and
// after a restart. Updates move rows to the end of the source's log, so
// its scan order is not row ID order.
func TestScanOrderSurvivesCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := WithConfig(Config{CompactionHorizon: 1})
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE src (id INT, v INT)`)
	for i := 0; i < 40; i++ {
		s.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d)`, i, i))
	}
	s.MustExec(`CREATE DYNAMIC TABLE lim TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT id, v FROM src LIMIT 7`)
	for round := 0; round < 3; round++ {
		s.MustExec(fmt.Sprintf(`UPDATE src SET v = v + 100 WHERE id %% 4 = %d`, round))
		s.MustExec(fmt.Sprintf(`DELETE FROM src WHERE id = %d`, 10+round))
		e.AdvanceTime(2 * time.Minute)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	query := func(s *Session, q string) string {
		t.Helper()
		r, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(r.Rows)
	}
	before := query(s, `SELECT id, v FROM src`)
	if _, err := e.CompactNow(); err != nil {
		t.Fatal(err)
	}
	_, tbl, err := e.baseTable("src")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.CompactedThrough() == 0 {
		t.Fatal("src was not compacted")
	}
	if got := query(s, `SELECT id, v FROM src`); got != before {
		t.Fatalf("src scans in another order after compaction:\n%s\nbefore:\n%s", got, before)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Recover a copy of the data directory beside the live engine, and
	// run the same write and refresh on both.
	copyDir := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, ent.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Open(copyDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	if got := query(rs, `SELECT id, v FROM src`); got != before {
		t.Fatalf("recovered src scans in another order:\n%s\nlive:\n%s", got, before)
	}
	for _, eng := range []*Engine{e, r} {
		sess := eng.NewSession()
		sess.MustExec(`UPDATE src SET v = v + 1000 WHERE id % 5 = 0`)
		eng.AdvanceTime(2 * time.Minute)
		if err := eng.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	live, recovered := query(s, `SELECT id, v FROM lim ORDER BY id`), query(rs, `SELECT id, v FROM lim ORDER BY id`)
	if live != recovered {
		t.Errorf("LIMIT DT refreshed after recovery holds %s, live engine %s", recovered, live)
	}
}
