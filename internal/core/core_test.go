package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dyntables"
	"dyntables/internal/core"
	"dyntables/internal/obs"
	"dyntables/internal/sql"
)

func newEngine(t *testing.T) *dyntables.Engine {
	t.Helper()
	e := dyntables.New()
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE src (a INT, b INT)`)
	e.MustExec(`INSERT INTO src VALUES (1, 1), (2, 1), (3, 2)`)
	return e
}

func TestRefreshActionsSequence(t *testing.T) {
	e := newEngine(t)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT b, count(*) c FROM src GROUP BY b`)
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}

	// 1. Creation produced an INITIALIZE.
	hist := dt.History()
	if len(hist) != 1 || hist[0].Action != core.ActionInitialize {
		t.Fatalf("history after create: %+v", hist)
	}

	// 2. Manual refresh with no changes: NO_DATA.
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		t.Fatal(err)
	}
	if rec, _ := dt.LastRecord(); rec.Action != core.ActionNoData {
		t.Errorf("expected NO_DATA, got %s", rec.Action)
	}

	// 3. Change + manual refresh: INCREMENTAL.
	e.MustExec(`INSERT INTO src VALUES (4, 2)`)
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		t.Fatal(err)
	}
	if rec, _ := dt.LastRecord(); rec.Action != core.ActionIncremental {
		t.Errorf("expected INCREMENTAL, got %s", rec.Action)
	}

	// 4. Overwrite the source: REINITIALIZE.
	e.MustExec(`INSERT OVERWRITE INTO src VALUES (9, 9)`)
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		t.Fatal(err)
	}
	if rec, _ := dt.LastRecord(); rec.Action != core.ActionReinitialize {
		t.Errorf("expected REINITIALIZE after INSERT OVERWRITE, got %s", rec.Action)
	}
	if err := e.CheckDVS("d"); err != nil {
		t.Errorf("DVS: %v", err)
	}
}

func TestRefreshIdempotentAtSameTimestamp(t *testing.T) {
	e := newEngine(t)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a FROM src`)
	dt, _ := e.DynamicTableHandle("d")
	ts := dt.DataTimestamp()
	rec, err := e.Controller().Refresh(dt, ts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Action != core.ActionNoData {
		t.Errorf("re-refresh at same timestamp should be NO_DATA, got %s", rec.Action)
	}
}

func TestFrontierMappingGrows(t *testing.T) {
	e := newEngine(t)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a FROM src`)
	dt, _ := e.DynamicTableHandle("d")

	ts1 := dt.DataTimestamp()
	if _, ok := dt.VersionAtDataTS(ts1); !ok {
		t.Fatal("mapping missing for initialization timestamp")
	}
	// NO_DATA refresh at a later timestamp maps to the same version.
	seq1, _ := dt.VersionAtDataTS(ts1)
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		t.Fatal(err)
	}
	ts2 := dt.DataTimestamp()
	seq2, ok := dt.VersionAtDataTS(ts2)
	if !ok {
		t.Fatal("mapping missing after NO_DATA")
	}
	if seq1 != seq2 {
		t.Errorf("NO_DATA must map to the existing version: %d vs %d", seq1, seq2)
	}
}

func TestSuspendBlocksRefresh(t *testing.T) {
	e := newEngine(t)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a FROM src`)
	dt, _ := e.DynamicTableHandle("d")
	dt.Suspend()
	e.AdvanceTime(time.Minute)
	_, err := e.Controller().Refresh(dt, e.Now())
	if !errors.Is(err, core.ErrSuspended) {
		t.Errorf("want ErrSuspended, got %v", err)
	}
	dt.Resume()
	if _, err := e.Controller().Refresh(dt, e.Now()); err != nil {
		t.Errorf("refresh after resume: %v", err)
	}
}

func TestBuildResolvesEffectiveMode(t *testing.T) {
	e := newEngine(t)
	cases := []struct {
		query string
		want  sql.RefreshMode
	}{
		{`SELECT a FROM src`, sql.RefreshIncremental},
		{`SELECT b, count(*) c FROM src GROUP BY b`, sql.RefreshIncremental},
		{`SELECT count(*) c FROM src`, sql.RefreshFull},           // scalar aggregate
		{`SELECT a FROM src ORDER BY a LIMIT 3`, sql.RefreshFull}, // order/limit
	}
	for i, tc := range cases {
		name := string(rune('p' + i))
		e.MustExec(`CREATE DYNAMIC TABLE ` + name + ` TARGET_LAG = '1 minute' WAREHOUSE = wh AS ` + tc.query)
		dt, _ := e.DynamicTableHandle(name)
		if dt.EffectiveMode != tc.want {
			t.Errorf("%s: mode %s, want %s", tc.query, dt.EffectiveMode, tc.want)
		}
	}
}

func TestChooseInitTimestampWithinLag(t *testing.T) {
	e := newEngine(t)
	e.MustExec(`CREATE DYNAMIC TABLE up TARGET_LAG = '10 minutes' WAREHOUSE = wh AS SELECT a FROM src`)
	up, _ := e.DynamicTableHandle("up")
	upTS := up.DataTimestamp()

	// Within the target lag: reuse the upstream timestamp.
	e.AdvanceTime(5 * time.Minute)
	e.MustExec(`CREATE DYNAMIC TABLE down1 TARGET_LAG = '10 minutes' WAREHOUSE = wh AS SELECT a FROM up`)
	d1, _ := e.DynamicTableHandle("down1")
	if !d1.DataTimestamp().Equal(upTS) {
		t.Errorf("init should reuse upstream ts: %v vs %v", d1.DataTimestamp(), upTS)
	}

	// Outside the target lag: use creation time (and refresh upstream).
	e.AdvanceTime(20 * time.Minute)
	e.MustExec(`CREATE DYNAMIC TABLE down2 TARGET_LAG = '10 minutes' WAREHOUSE = wh AS SELECT a FROM up`)
	d2, _ := e.DynamicTableHandle("down2")
	if d2.DataTimestamp().Equal(upTS) {
		t.Error("init must not reuse a timestamp older than the target lag")
	}
	if !d2.DataTimestamp().Equal(up.DataTimestamp()) {
		t.Errorf("upstream must be refreshed to the init timestamp: %v vs %v",
			d2.DataTimestamp(), up.DataTimestamp())
	}
}

func TestUpstreamVersionMissingValidation(t *testing.T) {
	e := newEngine(t)
	e.MustExec(`CREATE DYNAMIC TABLE up TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM src`)
	e.MustExec(`CREATE DYNAMIC TABLE down TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT a FROM up`)
	down, _ := e.DynamicTableHandle("down")
	// Refreshing `down` at a timestamp `up` never refreshed at must fail
	// with the §6.1 validation error.
	e.AdvanceTime(time.Minute)
	_, err := e.Controller().Refresh(down, e.Now())
	if !errors.Is(err, core.ErrUpstreamVersionMissing) {
		t.Errorf("want ErrUpstreamVersionMissing, got %v", err)
	}
}

func TestSchemaChangeTriggersReinitialize(t *testing.T) {
	e := newEngine(t)
	e.MustExec(`CREATE TABLE wide (a INT, b INT, c INT)`)
	e.MustExec(`INSERT INTO wide VALUES (1, 2, 3)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT * FROM wide`)
	// Replace upstream with a different shape: SELECT * now yields
	// different columns → reinitialize with the new schema (§5.4).
	e.MustExec(`CREATE OR REPLACE TABLE wide (a INT, z TEXT)`)
	e.MustExec(`INSERT INTO wide VALUES (7, 'x')`)
	e.AdvanceTime(2 * time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`SELECT z FROM d`)
	if err != nil {
		t.Fatalf("new column not queryable: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "x" {
		t.Errorf("contents after schema evolution: %+v", res.Rows)
	}
}

func TestRefreshRecordCounts(t *testing.T) {
	e := newEngine(t)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a FROM src WHERE a > 1`)
	e.MustExec(`INSERT INTO src VALUES (10, 5)`)
	e.MustExec(`DELETE FROM src WHERE a = 2`)
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		t.Fatal(err)
	}
	dt, _ := e.DynamicTableHandle("d")
	rec, _ := dt.LastRecord()
	if rec.Inserted != 1 || rec.Deleted != 1 {
		t.Errorf("counts: +%d -%d, want +1 -1", rec.Inserted, rec.Deleted)
	}
	if rec.RowsAfter != dt.Storage.RowCount() {
		t.Errorf("RowsAfter mismatch: %d vs %d", rec.RowsAfter, dt.Storage.RowCount())
	}
}

func TestActionAndStateStrings(t *testing.T) {
	if core.ActionNoData.String() != "NO_DATA" || core.ActionReinitialize.String() != "REINITIALIZE" {
		t.Error("action names")
	}
	if core.StateActive.String() != "ACTIVE" || core.StateSuspended.String() != "SUSPENDED" {
		t.Error("state names")
	}
}

func TestConcurrentDistinctDTRefreshes(t *testing.T) {
	// Refresh must be safe for concurrent distinct-DT callers: the
	// parallel refresher runs a whole dependency wave this way. Shared
	// controller state (registry, frontier emission, storage reads,
	// commit path) is audited by the -race build.
	e := newEngine(t)
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	for _, name := range names {
		e.MustExec(`CREATE DYNAMIC TABLE ` + name + ` TARGET_LAG = '1 minute' WAREHOUSE = wh
		            AS SELECT b, count(*) c, sum(a) s FROM src GROUP BY b`)
	}
	ctrl := e.Controller()
	for round := 0; round < 5; round++ {
		e.MustExec(`INSERT INTO src VALUES (100, 3), (101, 4)`)
		at := e.AdvanceTime(time.Minute)
		var wg sync.WaitGroup
		for _, name := range names {
			dt, err := e.DynamicTableHandle(name)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(dt *core.DynamicTable) {
				defer wg.Done()
				if _, err := ctrl.Refresh(dt, at); err != nil {
					t.Errorf("refresh %s: %v", dt.Name, err)
				}
			}(dt)
		}
		wg.Wait()
	}
	for _, name := range names {
		if err := e.CheckDVS(name); err != nil {
			t.Errorf("DVS violated after concurrent refreshes: %v", err)
		}
	}
}

func TestConcurrentSameDTRefreshSkips(t *testing.T) {
	// Concurrent refreshes of the *same* DT serialize through the per-DT
	// refresh lock: exactly one caller wins any overlapping pair, the
	// loser reports ErrSkipped (§3.3.3) and never corrupts state.
	e := newEngine(t)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT b, count(*) c FROM src GROUP BY b`)
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := e.Controller()
	for round := 0; round < 10; round++ {
		e.MustExec(`INSERT INTO src VALUES (200, 5)`)
		at := e.AdvanceTime(time.Minute)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ctrl.Refresh(dt, at); err != nil && !errors.Is(err, core.ErrSkipped) {
					t.Errorf("refresh: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	if err := e.CheckDVS("d"); err != nil {
		t.Errorf("DVS violated: %v", err)
	}
}

// TestCheckDVSLimitWithoutOrderBy checks a DT whose LIMIT has no ORDER
// BY. The refresh keeps the first rows in scan order, so the DVS oracle
// must evaluate the defining query in that same order; a row path that
// scanned an unordered map would pick other rows.
func TestCheckDVSLimitWithoutOrderBy(t *testing.T) {
	e := dyntables.New()
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE t (id INT, v INT)`)
	for i := 0; i < 50; i++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i*10))
	}
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT id, v FROM t LIMIT 5`)
	for round := 0; round < 5; round++ {
		if err := e.CheckDVS("d"); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		e.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 0)`, 100+round))
		e.AdvanceTime(time.Minute)
		if err := e.ManualRefresh("d"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlaceWritesNewestRecord checks that Place writes a refresh's
// execution onto the newest record at its data timestamp and adds its
// duration to the DT's counters, and that a data timestamp with no
// record places nothing.
func TestPlaceWritesNewestRecord(t *testing.T) {
	e := newEngine(t)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT b, count(*) c FROM src GROUP BY b`)
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}
	// The initialization ran outside a scheduler tick: no wave, no worker.
	first, _ := dt.LastRecord()
	if x := first.Exec; x == nil || x.Wave != -1 || x.Worker != -1 || x.Duration() <= 0 {
		t.Fatalf("initialization placed at %+v, want its warehouse job outside a tick", x)
	}
	initSecs := first.Exec.Duration().Seconds()
	if c := dt.Counts(); c.Attempts != 1 || c.Errors != 0 || c.Seconds != initSecs {
		t.Fatalf("counts after the initialization = %+v, want 1 attempt of %v s", c, initSecs)
	}

	// A manual NO_DATA refresh bills no warehouse job, so nothing places it.
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		t.Fatal(err)
	}
	rec, _ := dt.LastRecord()
	if rec.Action != core.ActionNoData || rec.Exec != nil {
		t.Fatalf("manual refresh without changes recorded %s placed at %+v, want an unplaced NO_DATA", rec.Action, rec.Exec)
	}
	start := rec.DataTS
	dt.Place(rec.DataTS, core.Execution{Wave: 2, Worker: 1, Start: start, End: start.Add(3 * time.Second)}, nil)
	rec, _ = dt.LastRecord()
	if x := rec.Exec; x == nil || x.Wave != 2 || x.Worker != 1 || x.Duration() != 3*time.Second {
		t.Fatalf("placement not written: %+v", x)
	}
	if c := dt.Counts(); c.Attempts != 2 || c.Seconds != initSecs+3 {
		t.Fatalf("counts after placing the NO_DATA = %+v, want 2 attempts of %v s", c, initSecs+3)
	}

	dt.Place(rec.DataTS.Add(time.Hour), core.Execution{Wave: 9, Worker: 9, Start: start, End: start.Add(time.Hour)}, nil)
	if rec, _ = dt.LastRecord(); rec.Exec.Wave != 2 {
		t.Fatalf("placing an unknown data timestamp changed the record: wave %d", rec.Exec.Wave)
	}
	if c := dt.Counts(); c.Seconds != initSecs+3 {
		t.Fatalf("placing an unknown data timestamp counted %v s, want %v", c.Seconds, initSecs+3)
	}
}

// TestLagSeriesDerivedFromHistory derives the Figure 4 sawtooth from a
// hand-built record sequence. Only a successful refresh a tick placed
// gives a sample; every successful refresh, placed or not, moves the base
// the next sample's peak is measured from.
func TestLagSeriesDerivedFromHistory(t *testing.T) {
	t0 := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(m int) time.Time { return t0.Add(time.Duration(m) * time.Minute) }
	tick := func(wave int, start time.Time, d time.Duration) *core.Execution {
		return &core.Execution{Wave: wave, Worker: 0, Start: start, End: start.Add(d)}
	}
	failed := errors.New("boom")
	dt := core.NewDynamicTable("d", "SELECT 1", sql.TargetLag{}, "wh", sql.RefreshAuto, sql.RefreshIncremental, nil)
	dt.RestoreState(core.DTCheckpoint{History: []core.RefreshRecord{
		// The first refresh has no predecessor: its peak is its trough.
		{Seq: 1, DataTS: at(1), Action: core.ActionFull, Exec: tick(0, at(1), 10*time.Second)},
		// NO_DATA is a success: it gives a sample and moves the base.
		{Seq: 2, DataTS: at(2), Action: core.ActionNoData, Exec: tick(0, at(2), 0)},
		// A skip and a failure give no sample and leave the base at 2.
		{Seq: 3, DataTS: at(3), Action: core.ActionSkip, Exec: tick(0, at(3), 0)},
		{Seq: 4, DataTS: at(4), Action: core.ActionError, Err: failed, Exec: tick(0, at(4), 0)},
		{Seq: 5, DataTS: at(5), Action: core.ActionIncremental, Exec: tick(1, at(5), 5*time.Second)},
		// A manual refresh between ticks gives no sample but moves the
		// base to 6.
		{Seq: 6, DataTS: at(6), Action: core.ActionIncremental, Exec: &core.Execution{Wave: -1, Worker: -1, Start: at(6), End: at(6).Add(time.Second)}},
		// A retried refresh: the failed first attempt, then the success.
		{Seq: 7, DataTS: at(8), Action: core.ActionError, Err: failed},
		{Seq: 8, DataTS: at(8), Action: core.ActionIncremental},
	}})
	// The refresher places the retried refresh once, on its newest record.
	usage := &obs.Usage{CPU: 2 * time.Second, AllocBytes: 100}
	dt.Place(at(8), core.Execution{Wave: 0, Worker: 1, Start: at(8), End: at(8).Add(3 * time.Second)}, usage)

	want := []obs.LagSample{
		{DTName: "d", At: at(1).Add(10 * time.Second), DataTS: at(1), Peak: 10 * time.Second, Trough: 10 * time.Second},
		{DTName: "d", At: at(2), DataTS: at(2), Peak: time.Minute, Trough: 0},
		{DTName: "d", At: at(5).Add(5 * time.Second), DataTS: at(5), Peak: 3*time.Minute + 5*time.Second, Trough: 5 * time.Second},
		{DTName: "d", At: at(8).Add(3 * time.Second), DataTS: at(8), Peak: 2*time.Minute + 3*time.Second, Trough: 3 * time.Second},
	}
	got := dt.LagSeries()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lag series:\n got %v\nwant %v", got, want)
	}
	hist := dt.History()
	if hist[6].Exec != nil || hist[6].Usage != nil || hist[7].Usage != usage {
		t.Errorf("the retry was not placed on its newest record: %+v %+v", hist[6], hist[7])
	}
	if c := dt.Counts(); c.CPUSeconds != 2 || c.AllocBytes != 100 || c.Seconds != 3 {
		t.Errorf("counts after placing the retry = %+v, want its 2 s CPU, 100 B and 3 s", c)
	}
}
