package dyntables

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dyntables/internal/persist"
)

// historyScript runs obsScript on eng, then one manual refresh, and
// returns the session it used.
func historyScript(t *testing.T, eng *Engine) *Session {
	t.Helper()
	sess := obsScript(t, eng)
	sess.MustExec(`INSERT INTO events VALUES (5, 50)`)
	eng.AdvanceTime(time.Minute)
	if err := sess.ManualRefresh("grand"); err != nil {
		t.Fatal(err)
	}
	return sess
}

// historyRound inserts into events and runs one scheduler pass.
func historyRound(t *testing.T, eng *Engine, sess *Session) {
	t.Helper()
	sess.MustExec(`INSERT INTO events VALUES (1, 10), (2, 20)`)
	eng.AdvanceTime(2 * time.Minute)
	if err := eng.RunScheduler(); err != nil {
		t.Fatal(err)
	}
}

// checkHistoryMatchesDescribe checks that REFRESH_HISTORY lists exactly
// the records Describe returns, as (dt_name, data_ts, action) in DT name,
// then recording order; that DYNAMIC_TABLES.refreshes counts them; and
// that seq increases within each DT and is never repeated.
func checkHistoryMatchesDescribe(t *testing.T, sess *Session) {
	t.Helper()
	dts, err := sess.Query(`SELECT name, refreshes FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, row := range dts.Rows {
		name := row[0].Str()
		st, err := sess.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := row[1].Int(); got != int64(len(st.History)) {
			t.Errorf("DYNAMIC_TABLES.refreshes(%s) = %d, Describe has %d records", name, got, len(st.History))
		}
		for _, r := range st.History {
			want = append(want, fmt.Sprintf("%s %s %s", name, r.DataTS.UTC().Format(time.RFC3339Nano), r.Action))
		}
	}
	hist, err := sess.Query(`SELECT dt_name, data_ts, action, seq
		FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	seen := make(map[int64]bool)
	last := make(map[string]int64)
	for _, row := range hist.Rows {
		name, seq := row[0].Str(), row[3].Int()
		got = append(got, fmt.Sprintf("%s %s %s", name, row[1].Time().UTC().Format(time.RFC3339Nano), row[2].Str()))
		if seen[seq] || seq <= last[name] {
			t.Errorf("seq %d of %s repeats or does not increase (previous %d)", seq, name, last[name])
		}
		seen[seq], last[name] = true, seq
	}
	if len(want) == 0 {
		t.Fatal("no DT has refresh history")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("REFRESH_HISTORY:\n%s\nDescribe:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// historyColumns reads every REFRESH_HISTORY column but root_id, whose
// traces a reopened engine does not keep.
func historyColumns(t *testing.T, sess *Session) string {
	t.Helper()
	res, err := sess.Query(`SELECT dt_name, data_ts, action, incremental, inserted, deleted,
		rows_after, scanned, effective_mode, mode_reason, changed_rows, full_scan_rows,
		start_ts, end_ts, duration, wave, worker, error, seq
		FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY`)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(res.Rows)
}

// lagColumns reads the DYNAMIC_TABLES lag-SLO columns and every DT's lag
// series, which both derive from the DTs' refresh records.
func lagColumns(t *testing.T, eng *Engine, sess *Session) string {
	t.Helper()
	res, err := sess.Query(`SELECT name, slo_attainment, lag_p50, lag_p95
		FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`)
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprint(res.Rows)
	for _, row := range res.Rows {
		out += fmt.Sprintf("\n%s %v", row[0].Str(), mustDT(t, eng, row[0].Str()).LagSeries())
	}
	return out
}

// TestRefreshHistoryMatchesDescribeAcrossReopen checks that
// REFRESH_HISTORY and Describe read one store of refresh records: they
// agree after a RENAME, after Close + Open of a durable engine (which
// also keeps every column, and the lag signals derived from them), after
// ALTER SYSTEM SET HISTORY_CAPACITY and with recording disabled.
func TestRefreshHistoryMatchesDescribeAcrossReopen(t *testing.T) {
	t.Run("rename", func(t *testing.T) {
		eng, sess := obsFixture(t)
		sess.MustExec(`ALTER DYNAMIC TABLE grand RENAME TO grand2`)
		checkHistoryMatchesDescribe(t, sess)
		historyRound(t, eng, sess)
		checkHistoryMatchesDescribe(t, sess)
	})
	t.Run("reopen", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess := historyScript(t, eng)
		checkHistoryMatchesDescribe(t, sess)
		before := historyColumns(t, sess)
		lagBefore := lagColumns(t, eng, sess)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}

		eng, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		sess = eng.NewSession()
		checkHistoryMatchesDescribe(t, sess)
		if after := historyColumns(t, sess); after != before {
			t.Errorf("REFRESH_HISTORY changed across Close + Open:\nbefore %s\nafter  %s", before, after)
		}
		if after := lagColumns(t, eng, sess); after != lagBefore {
			t.Errorf("lag signals changed across Close + Open:\nbefore %s\nafter  %s", lagBefore, after)
		}
		// Records made after the reopen continue the numbering.
		historyRound(t, eng, sess)
		checkHistoryMatchesDescribe(t, sess)
	})
	t.Run("history_capacity", func(t *testing.T) {
		eng, sess := obsFixture(t)
		sess.MustExec(`ALTER SYSTEM SET HISTORY_CAPACITY = 2`)
		checkHistoryMatchesDescribe(t, sess)
		historyRound(t, eng, sess)
		checkHistoryMatchesDescribe(t, sess)
	})
	t.Run("disabled", func(t *testing.T) {
		_, sess := obsFixture(t, WithConfig(Config{HistoryCapacity: -1}))
		checkHistoryMatchesDescribe(t, sess)
	})
}

// TestReopenLegacyHistoryReadsNullPlacement opens a data directory whose
// checkpoint predates placed and numbered refresh records: its records
// read NULL in every execution column, are numbered in restore order,
// and the first refresh after the reopen continues the numbering.
func TestReopenLegacyHistoryReadsNullPlacement(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "checkpoint-periodic-snapshots")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession()
	const placement = `SELECT start_ts, end_ts, duration, wave, worker, seq
		FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY WHERE dt_name = 'agg'`
	res, err := s.Query(placement)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("the fixture's DT has no refresh history")
	}
	var top int64
	for i, row := range res.Rows {
		for j, v := range row[:5] {
			if !v.IsNull() {
				t.Errorf("legacy record %d column %d = %v, want NULL", i, j, v)
			}
		}
		if seq := row[5].Int(); seq <= top {
			t.Errorf("legacy record %d has seq %d after %d", i, seq, top)
		} else {
			top = seq
		}
	}
	checkHistoryMatchesDescribe(t, s)

	s.MustExec(`INSERT INTO src VALUES (7, 7)`)
	e.AdvanceTime(time.Minute)
	if err := s.ManualRefresh("agg"); err != nil {
		t.Fatal(err)
	}
	res, err = s.Query(placement)
	if err != nil {
		t.Fatal(err)
	}
	newest := res.Rows[len(res.Rows)-1]
	if newest[0].IsNull() || newest[2].IsNull() || !newest[3].IsNull() || !newest[4].IsNull() {
		t.Errorf("manual refresh after the reopen reads %v, want a start, a duration and no wave or worker", newest)
	}
	if seq := newest[5].Int(); seq <= top {
		t.Errorf("refresh after the reopen has seq %d, not past the restored %d", seq, top)
	}
}

// TestRefreshDurationCounterMatchesHistory checks that each DT's
// dyntables_refresh_duration_seconds_total sums the duration of its
// REFRESH_HISTORY rows, and dyntables_refreshes_total counts them, while
// its ring has not wrapped.
func TestRefreshDurationCounterMatchesHistory(t *testing.T) {
	eng, sess := obsFixture(t)
	if err := sess.ManualRefresh("totals"); err != nil {
		t.Fatal(err)
	}
	metrics := eng.MetricsText()
	metric := func(family, dt string) float64 {
		t.Helper()
		prefix := family + `{dt="` + dt + `"} `
		for _, line := range strings.Split(metrics, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("no %s sample for %s", family, dt)
		return 0
	}
	for _, dt := range []string{"grand", "totals"} {
		res, err := sess.Query(`SELECT duration FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY
			WHERE dt_name = ?`, dt)
		if err != nil {
			t.Fatal(err)
		}
		var want time.Duration
		for _, row := range res.Rows {
			if !row[0].IsNull() {
				want += row[0].Interval()
			}
		}
		if want <= 0 {
			t.Fatalf("%s's history has no refresh time", dt)
		}
		if got := metric("dyntables_refresh_duration_seconds_total", dt); math.Abs(got-want.Seconds()) > 1e-6 {
			t.Errorf("duration counter of %s = %v s, REFRESH_HISTORY sums %v s", dt, got, want.Seconds())
		}
		if got := metric("dyntables_refreshes_total", dt); got != float64(len(res.Rows)) {
			t.Errorf("refresh counter of %s = %v, REFRESH_HISTORY has %d rows", dt, got, len(res.Rows))
		}
	}
}

// TestSerialWaveWALIsReproducibleInProcess runs serialWaveScript twice in
// one process, into two fresh directories: row IDs depend only on each
// table's own sequence, so the second engine writes the same wal.log as
// the first, byte for byte.
func TestSerialWaveWALIsReproducibleInProcess(t *testing.T) {
	var wals [2][]byte
	for i := range wals {
		dir := t.TempDir()
		serialWaveScript(t, dir)
		var err error
		if wals[i], err = os.ReadFile(filepath.Join(dir, persist.WALName)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(wals[0], wals[1]) {
		t.Fatalf("two runs of one script in one process wrote different wal.log files (%d and %d bytes)", len(wals[0]), len(wals[1]))
	}
}

// TestReopenAfterCrashMintsFreshRowIDs crashes an engine whose inserts
// live only in the WAL, reopens it, and inserts again: the replayed
// inserts move each table's row sequence past their IDs, so the new rows
// join the old ones instead of replacing them.
func TestReopenAfterCrashMintsFreshRowIDs(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCheckpointEvery(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE src (k INT)`)
	e.MustExec(`INSERT INTO src VALUES (1), (2), (3)`)
	if err := e.crash(); err != nil {
		t.Fatal(err)
	}
	if e, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`INSERT INTO src VALUES (4), (5)`)
	res := e.MustExec(`SELECT count(*) FROM src`)
	if n := res.Rows[0][0].Int(); n != 5 {
		t.Fatalf("src holds %d rows after the reopen's inserts, want 5", n)
	}
}
