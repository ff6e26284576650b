package dyntables

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/persist"
)

func TestAlterSystemKnobs(t *testing.T) {
	e := New()
	if got := e.RefreshWorkers(); got != 1 {
		t.Fatalf("default RefreshWorkers = %d, want 1 (serial)", got)
	}

	res := e.MustExec(`ALTER SYSTEM SET REFRESH_WORKERS = 4`)
	if res.Kind != "ALTER SYSTEM" || !strings.Contains(res.Message, "4") {
		t.Errorf("unexpected result: %+v", res)
	}
	if got := e.RefreshWorkers(); got != 4 {
		t.Errorf("RefreshWorkers = %d after ALTER, want 4", got)
	}
	// 0 restores the serial default, mirroring Config.RefreshWorkers.
	e.MustExec(`ALTER SYSTEM SET REFRESH_WORKERS = 0`)
	if got := e.RefreshWorkers(); got != 1 {
		t.Errorf("RefreshWorkers = %d after SET 0, want 1 (serial)", got)
	}

	if _, err := e.Exec(`ALTER SYSTEM SET REFRESH_WORKERS = -1`); err == nil {
		t.Error("negative REFRESH_WORKERS should fail")
	}
	if _, err := e.Exec(`ALTER SYSTEM SET NO_SUCH_KNOB = 1`); err == nil {
		t.Error("unknown system parameter should fail")
	}
}

func TestWithConfigWorkerResolution(t *testing.T) {
	if got := New(WithConfig(Config{RefreshWorkers: 3})).RefreshWorkers(); got != 3 {
		t.Errorf("explicit RefreshWorkers = %d, want 3", got)
	}
	if got := New(WithConfig(Config{RefreshWorkers: -1})).RefreshWorkers(); got < 1 {
		t.Errorf("host-derived RefreshWorkers = %d, want >= 1", got)
	}
}

// TestParallelSchedulerUpholdsDVS runs a mixed DAG under a wide worker
// pool and re-checks delayed view semantics for every DT — the §6.1 oracle under concurrency. The same
// script on a serial refresher must store exactly the same rows.
func TestParallelSchedulerUpholdsDVS(t *testing.T) {
	names := []string{"agg", "flt", "joined"}
	run := func(cfg Config) string {
		e := New(WithConfig(cfg))
		s := e.NewSession()
		s.MustExec(`CREATE WAREHOUSE wh`)
		s.MustExec(`CREATE TABLE ev (k INT, grp INT, v INT)`)
		s.MustExec(`INSERT INTO ev VALUES (1, 1, 10), (2, 2, 20), (3, 1, 30)`)
		s.MustExec(`CREATE DYNAMIC TABLE agg TARGET_LAG = '2 minutes' WAREHOUSE = wh
		            AS SELECT grp, count(*) c, sum(v) total FROM ev GROUP BY grp`)
		s.MustExec(`CREATE DYNAMIC TABLE flt TARGET_LAG = '2 minutes' WAREHOUSE = wh
		            AS SELECT k, v FROM ev WHERE v > 10`)
		s.MustExec(`CREATE DYNAMIC TABLE joined TARGET_LAG = DOWNSTREAM WAREHOUSE = wh
		            AS SELECT f.k, a.total FROM flt f JOIN agg a ON f.k = a.grp`)

		for i := 0; i < 6; i++ {
			s.MustExec(`INSERT INTO ev VALUES (4, 2, 40), (5, 3, 50)`)
			e.AdvanceTime(2 * time.Minute)
			if err := e.RunScheduler(); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			if err := e.CheckDVS(name); err != nil {
				t.Errorf("DVS violated for %s with %d workers: %v", name, cfg.RefreshWorkers, err)
			}
		}
		return storedRows(t, e, names...)
	}
	parallel := run(Config{RefreshWorkers: 4})
	if serial := run(Config{RefreshWorkers: 1}); parallel != serial {
		t.Errorf("parallel refresh stored different rows than serial:\nparallel:\n%s\nserial:\n%s", parallel, serial)
	}
}

// storedRows renders the latest stored rows of the named DTs, one
// "dt|row" line each, sorted, so two engines that refreshed alike render
// the same string. Row IDs are left out: they embed table IDs, which are
// unique per process, not per engine.
func storedRows(t *testing.T, e *Engine, names ...string) string {
	t.Helper()
	var lines []string
	for _, name := range names {
		dt, err := e.DynamicTableHandle(name)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := dt.Storage.Rows(int64(dt.Storage.VersionCount()))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			lines = append(lines, fmt.Sprintf("%s|%s", name, r))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestAlterSystemErrorPaths covers the rejection paths of every ALTER
// SYSTEM knob: unknown keys, malformed values, and out-of-range numbers
// must fail without mutating engine state.
func TestAlterSystemErrorPaths(t *testing.T) {
	e := New()
	t.Cleanup(func() { e.Close() })
	bad := []struct {
		stmt string
		why  string
	}{
		{`ALTER SYSTEM SET NO_SUCH_KNOB = 1`, "unknown key"},
		{`ALTER SYSTEM SET REFRESH_WORKERS = banana`, "non-integer value"},
		{`ALTER SYSTEM SET REFRESH_WORKERS = 'four'`, "string value"},
		{`ALTER SYSTEM SET REFRESH_WORKERS = -3`, "negative workers"},
		{`ALTER SYSTEM SET HISTORY_CAPACITY = 0`, "zero capacity"},
		{`ALTER SYSTEM SET HISTORY_CAPACITY = -10`, "negative capacity"},
		{`ALTER SYSTEM REFRESH_WORKERS = 1`, "missing SET"},
		{`ALTER SYSTEM SET COLUMNAR = 0`, "removed parameter"},
	}
	for _, tc := range bad {
		if _, err := e.Exec(tc.stmt); err == nil {
			t.Errorf("%s (%s): expected error", tc.stmt, tc.why)
		}
	}
	// Differentiation is sequential; its parallelism knob is gone.
	if _, err := e.Exec(`ALTER SYSTEM SET DELTA_PARALLELISM = 2`); err == nil ||
		!strings.Contains(err.Error(), "unknown system parameter") {
		t.Errorf("SET DELTA_PARALLELISM: err = %v, want unknown system parameter", err)
	}
	// Nothing changed.
	if got := e.RefreshWorkers(); got != 1 {
		t.Errorf("RefreshWorkers mutated to %d by failing statements", got)
	}
	if got := e.Observability().Capacity(); got != 1024 {
		t.Errorf("history capacity mutated to %d by failing statements", got)
	}
}

// TestConcurrentStatsReadersNoTornSnapshot drives the parallel refresher
// while monitoring goroutines hammer the scheduler's stats, each DT's
// lag series and the INFORMATION_SCHEMA query path. Run under -race: the
// defensive copies must keep every reader free of torn state.
func TestConcurrentStatsReadersNoTornSnapshot(t *testing.T) {
	e := New(WithConfig(Config{RefreshWorkers: 4}))
	t.Cleanup(func() { e.Close() })
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE ev (k INT, grp INT, v INT)`)
	var dts []*core.DynamicTable
	for i := 0; i < 4; i++ {
		s.MustExec(fmt.Sprintf(`CREATE DYNAMIC TABLE p_%d TARGET_LAG = '2 minutes' WAREHOUSE = wh
			AS SELECT grp, count(*) c FROM ev WHERE grp %% 4 = %d GROUP BY grp`, i, i))
		dts = append(dts, mustDT(t, e, fmt.Sprintf("p_%d", i)))
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			sess := e.NewSession()
			for {
				select {
				case <-done:
					return
				default:
				}
				stats := e.Scheduler().Stats()
				tallied := stats.NoData + stats.Incremental + stats.Full +
					stats.Reinit + stats.Initialize + stats.Skips + stats.Errors
				if tallied > stats.Scheduled {
					t.Errorf("torn Stats snapshot: tallied %d > scheduled %d", tallied, stats.Scheduled)
					return
				}
				for _, dt := range dts {
					series := dt.LagSeries()
					for i := 1; i < len(series); i++ {
						if series[i].At.Before(series[i-1].At) {
							t.Error("torn LagSeries snapshot: out-of-order points")
							return
						}
					}
				}
				rows, err := sess.QueryContext(context.Background(),
					`SELECT dt_name, action FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY`)
				if err != nil {
					t.Error(err)
					return
				}
				for rows.Next() {
				}
				rows.Close()
			}
		}()
	}

	for i := 0; i < 8; i++ {
		s.MustExec(`INSERT INTO ev VALUES (1, 0, 1), (2, 1, 2), (3, 2, 3), (4, 3, 4)`)
		e.AdvanceTime(2 * time.Minute)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
}

// TestParallelKeyedRefreshesShareOneSource refreshes, in each wave on two
// workers, two DTs whose boundaries look up different columns of one
// source: the aggregate its grp column and the window its dim column, so
// both build and merge lookup runs on the same row-log segment at once.
// Run it under -race. The refreshes must be incremental, every DT must
// uphold DVS, and the source must end up indexing both columns.
func TestParallelKeyedRefreshesShareOneSource(t *testing.T) {
	e := New(WithConfig(Config{RefreshWorkers: 2}))
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE facts (id INT, grp INT, dim INT, v INT)`)
	const n = 2000
	for lo := 0; lo < n; lo += 500 {
		var vals []string
		for id := lo; id < lo+500; id++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d)", id, id%50, id%200, id%97))
		}
		s.MustExec(`INSERT INTO facts VALUES ` + strings.Join(vals, ", "))
	}
	s.MustExec(`CREATE DYNAMIC TABLE dt_agg TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT grp, count(*) c, sum(v) total FROM facts GROUP BY grp`)
	s.MustExec(`CREATE DYNAMIC TABLE dt_win TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT id, dim, v, row_number() OVER (PARTITION BY dim ORDER BY v, id) rn FROM facts`)
	for round := 0; round < 8; round++ {
		s.MustExec(fmt.Sprintf(`UPDATE facts SET v = v + 1, grp = %d WHERE id = %d`, round%50, round*37))
		s.MustExec(fmt.Sprintf(`DELETE FROM facts WHERE id = %d`, round*41+1))
		s.MustExec(fmt.Sprintf(`INSERT INTO facts VALUES (%d, %d, %d, %d)`, n+round, round, round*3, round))
		e.AdvanceTime(time.Minute)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"dt_agg", "dt_win"} {
		dt, err := e.DynamicTableHandle(name)
		if err != nil {
			t.Fatal(err)
		}
		incremental := 0
		for _, rec := range dt.History() {
			switch rec.Action {
			case core.ActionIncremental:
				incremental++
			case core.ActionInitialize, core.ActionNoData:
			default:
				t.Errorf("%s refreshed with %v, want INCREMENTAL", name, rec.Action)
			}
		}
		if incremental != 8 {
			t.Errorf("%s refreshed incrementally %d times in 8 rounds", name, incremental)
		}
		if err := e.CheckDVS(name); err != nil {
			t.Errorf("DVS violated for %s: %v", name, err)
		}
	}
	// Two runs of 12 B over at least the n loaded entries.
	var indexBytes int64
	prefix := `dyntables_table_index_bytes{table="facts"} `
	for _, line := range strings.Split(e.MetricsText(), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			fmt.Sscan(rest, &indexBytes)
		}
	}
	if indexBytes < 2*12*n {
		t.Errorf("facts indexes %d B, want the grp and dim runs of at least %d B each", indexBytes, 12*n)
	}
}

// serialWaveScript runs a fixed script on a durable engine in dir with one
// refresh worker: three sibling DTs share every wave. It then crashes the
// engine, which leaves the WAL as written (a clean close would checkpoint
// it away), and checks that every wave committed its siblings in name
// order, which is also their creation order.
func serialWaveScript(t *testing.T, dir string) {
	e, err := Open(dir, WithConfig(Config{RefreshWorkers: 1}), WithCheckpointEvery(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE src (k INT, v INT)`)
	for _, name := range []string{"sib_a", "sib_b", "sib_c"} {
		e.MustExec(fmt.Sprintf(`CREATE DYNAMIC TABLE %s TARGET_LAG = '1 minute' WAREHOUSE = wh
			REFRESH_MODE = INCREMENTAL AS SELECT k, sum(v) s FROM src GROUP BY k`, name))
	}
	for round := 0; round < 6; round++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d), (%d, 1)`, round%3, round, round+10))
		e.AdvanceTime(time.Minute)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.crash(); err != nil {
		t.Fatal(err)
	}
	w, recs, err := persist.OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	// The frontier records come three at a time, one per sibling: their
	// creations, then the waves.
	var ids []int64
	for _, rec := range recs {
		if rec.Frontier != nil {
			ids = append(ids, rec.Frontier.EntryID)
		}
	}
	if len(ids) < 3*7 || len(ids)%3 != 0 {
		t.Fatalf("the WAL holds %d frontier records, want 3 per creation wave and round", len(ids))
	}
	for i := 0; i < len(ids); i += 3 {
		if wave := ids[i : i+3]; !sort.SliceIsSorted(wave, func(a, b int) bool { return wave[a] < wave[b] }) {
			t.Fatalf("a wave committed its siblings in entry order %v, not in name order", wave)
		}
	}
}

// TestSerialWaveWALIsReproducible runs serialWaveScript twice, each time
// in a fresh process (row IDs carry process-wide table numbers) and into a
// fresh directory; both runs must write the same wal.log, byte for byte.
func TestSerialWaveWALIsReproducible(t *testing.T) {
	if dir := os.Getenv("DYNTABLES_SERIAL_WAVE_DIR"); dir != "" {
		serialWaveScript(t, dir) // the child process
		return
	}
	var wals [2][]byte
	for i := range wals {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestSerialWaveWALIsReproducible$")
		cmd.Env = append(os.Environ(), "DYNTABLES_SERIAL_WAVE_DIR="+dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, out)
		}
		var err error
		if wals[i], err = os.ReadFile(filepath.Join(dir, persist.WALName)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(wals[0], wals[1]) {
		t.Fatalf("two runs of one script wrote different wal.log files (%d and %d bytes)", len(wals[0]), len(wals[1]))
	}
}
