package dyntables

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/health"
)

// The catalog is the one registry of dynamic tables: the scheduler
// refreshes the live DTs it lists, and the compaction sweep keeps the
// change history that any DT in it, live or dropped, still reads from.
// The tests below pin how a DT leaves that registry and comes back.

// registryScript creates a base table src with twelve rows and an
// INCREMENTAL DT d over it, and runs d's first refresh.
func registryScript(t *testing.T, e *Engine) {
	t.Helper()
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE src (id INT, v INT)`)
	var rows []string
	for i := 0; i < 12; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 0)", i))
	}
	e.MustExec(`INSERT INTO src VALUES ` + strings.Join(rows, ", "))
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh REFRESH_MODE = INCREMENTAL
		AS SELECT id % 4 grp, count(*) n, sum(v) s FROM src GROUP BY ALL`)
	mustPass(t, e)
}

// registryChurn updates a third of src's rows per round and runs a
// scheduler pass, which ends with a compaction sweep.
func registryChurn(t *testing.T, e *Engine, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		e.MustExec(fmt.Sprintf(`UPDATE src SET v = v + 1 WHERE id %% 3 = %d`, i%3))
		mustPass(t, e)
	}
}

// droppedDT finds the dropped DT named name among the catalog's entries.
func droppedDT(t *testing.T, e *Engine, name string) *core.DynamicTable {
	t.Helper()
	for _, entry := range e.Catalog().Entries() {
		if dt, ok := entry.Payload.(*core.DynamicTable); ok && entry.Dropped && entry.Name == name {
			return dt
		}
	}
	t.Fatalf("no dropped dynamic table %s", name)
	return nil
}

// wantIncrementalAfterUndrop undrops d and checks that its first refresh
// after seq is INCREMENTAL: the sweeps that ran while d was dropped kept
// the change history from d's frontier on. d must then equal its query.
func wantIncrementalAfterUndrop(t *testing.T, e *Engine, seq int64) {
	t.Helper()
	e.MustExec(`UNDROP DYNAMIC TABLE d`)
	mustPass(t, e)
	recs := recordsAfter(mustDT(t, e, "d"), seq)
	if len(recs) == 0 {
		t.Fatal("d did not refresh after UNDROP")
	}
	if rec := recs[0]; rec.Action != core.ActionIncremental {
		t.Fatalf("d's first refresh after UNDROP is %s (%v), want INCREMENTAL", rec.Action, rec.Err)
	}
	if err := e.CheckDVS("d"); err != nil {
		t.Fatal(err)
	}
}

// wantNoRefreshes checks that dt recorded nothing after seq.
func wantNoRefreshes(t *testing.T, dt *core.DynamicTable, seq int64, why string) {
	t.Helper()
	if recs := recordsAfter(dt, seq); len(recs) > 0 {
		t.Fatalf("%s: %s recorded %d refreshes, first %s", why, dt.Name, len(recs), recs[0].Action)
	}
}

func TestRegistryUndropResumesIncrementally(t *testing.T) {
	e := New(WithConfig(Config{CompactionHorizon: 1}))
	t.Cleanup(func() { e.Close() })
	registryScript(t, e)
	dt := mustDT(t, e, "d")
	e.MustExec(`DROP DYNAMIC TABLE d`)
	seq := lastRecord(t, dt).Seq

	registryChurn(t, e, 6)
	wantNoRefreshes(t, dt, seq, "while dropped")
	wantIncrementalAfterUndrop(t, e, seq)
}

func TestRegistryUndropResumesIncrementallyAfterReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := WithConfig(Config{CompactionHorizon: 1})
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	registryScript(t, e)
	e.MustExec(`DROP DYNAMIC TABLE d`)
	registryChurn(t, e, 3)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	dt := droppedDT(t, e, "d")
	seq := lastRecord(t, dt).Seq
	registryChurn(t, e, 6)
	wantNoRefreshes(t, dt, seq, "while dropped, after reopen")
	wantIncrementalAfterUndrop(t, e, seq)
}

// TestRegistryReplacedDTStopsRefreshingAndPinning replaces d with a DT
// that also reads src. The replaced DT object never refreshes again, and
// its frozen frontier holds no compaction floor: src's change chain stays
// flat under churn instead of growing from that frontier.
func TestRegistryReplacedDTStopsRefreshingAndPinning(t *testing.T) {
	e := New(WithConfig(Config{CompactionHorizon: 1}))
	t.Cleanup(func() { e.Close() })
	registryScript(t, e)
	old := mustDT(t, e, "d")
	e.MustExec(`CREATE OR REPLACE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT id, v FROM src WHERE v > 0`)
	seq := lastRecord(t, old).Seq
	_, src, err := e.baseTable("src")
	if err != nil {
		t.Fatal(err)
	}

	registryChurn(t, e, 10)
	mid := src.FootprintStats().ChainRows
	registryChurn(t, e, 10)
	end := src.FootprintStats().ChainRows
	wantNoRefreshes(t, old, seq, "after OR REPLACE")
	if end > mid*3/2 {
		t.Errorf("src's change chain kept growing: %d rows after 10 rounds, %d after 20", mid, end)
	}
	if rec := lastRecord(t, mustDT(t, e, "d")); rec.Action == core.ActionError {
		t.Fatalf("the replacement DT fails to refresh: %v", rec.Err)
	}
}

// TestMetricsScrapeBesideDDL scrapes /metrics while DDL replaces and
// renames the upstreams of DTs the health evaluator blames, so the scrape
// walks their upstreams and rebinds their plans. Under -race it audits the
// scrape's reads of catalog entries and DT names against the DDL that
// writes them.
func TestMetricsScrapeBesideDDL(t *testing.T) {
	eng, sess := obsFixture(t)
	// Let the lag grow until grand is AT_RISK, so every scrape attributes
	// blame through its upstreams.
	atRisk := func() bool {
		for _, rep := range eng.healthReports() {
			if rep.Name == "grand" {
				return rep.Status == health.AtRisk
			}
		}
		return false
	}
	for i := 0; !atRisk(); i++ {
		if i == 600 {
			t.Fatal("grand never became AT_RISK")
		}
		eng.AdvanceTime(time.Second)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if out := eng.MetricsText(); !strings.Contains(out, "dyntables_dt_health_state") {
				t.Error("scrape lost its health family")
				return
			}
		}
	}()
	for i := 0; i < 25; i++ {
		sess.MustExec(`CREATE OR REPLACE TABLE events (id INT, v INT)`)
		sess.MustExec(`ALTER TABLE events RENAME TO events_b`)
		sess.MustExec(`ALTER TABLE events_b RENAME TO events`)
		sess.MustExec(`ALTER DYNAMIC TABLE totals RENAME TO totals_b`)
		sess.MustExec(`ALTER DYNAMIC TABLE totals_b RENAME TO totals`)
	}
	close(done)
	wg.Wait()
}
