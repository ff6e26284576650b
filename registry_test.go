package dyntables

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"dyntables/internal/core"
	"dyntables/internal/health"
	"dyntables/internal/sched"
	"dyntables/internal/warehouse"
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

// The catalog is the one registry of warehouses too: a warehouse is the
// payload of a warehouse entry, so CREATE, DROP, UNDROP, RENAME and SWAP
// follow the catalog's rules for it, and a DT refreshes in the live
// warehouse its WAREHOUSE names, if there is one.

// showWarehouses runs SHOW WAREHOUSES and returns each row's columns by
// name, keyed by the warehouse's name.
func showWarehouses(t *testing.T, e *Engine) map[string]map[string]string {
	t.Helper()
	res := e.MustExec(`SHOW WAREHOUSES`)
	out := make(map[string]map[string]string, len(res.Rows))
	for _, row := range res.Rows {
		cols := make(map[string]string, len(row))
		for i, v := range row {
			cols[res.Columns[i]] = v.String()
		}
		out[cols["name"]] = cols
	}
	return out
}

// wantJob checks whether dt's newest refresh billed a warehouse job, and
// that one without a job ran at XSMALL timing.
func wantJob(t *testing.T, e *Engine, dt *core.DynamicTable, want bool) {
	t.Helper()
	rec := lastRecord(t, dt)
	if rec.Err != nil || rec.Exec == nil {
		t.Fatalf("%s's last refresh: %s, placed %v, err %v", dt.Name, rec.Action, rec.Exec != nil, rec.Err)
	}
	if got := rec.Exec.Job != nil; got != want {
		t.Fatalf("%s's last refresh (%s) billed a job: %v, want %v", dt.Name, rec.Action, got, want)
	}
	if d := e.model.Duration(rec.SourceRowsScanned, warehouse.SizeXSmall); !want && rec.Exec.Duration() != d {
		t.Fatalf("%s's refresh without a warehouse took %v, want XSMALL's %v", dt.Name, rec.Exec.Duration(), d)
	}
}

func TestRegistryWarehouseDrop(t *testing.T) {
	e := New()
	t.Cleanup(func() { e.Close() })
	registryScript(t, e)
	dt := mustDT(t, e, "d")
	billed := showWarehouses(t, e)["wh"]["billed"]

	e.MustExec(`DROP WAREHOUSE wh`)
	if _, ok := showWarehouses(t, e)["wh"]; ok {
		t.Fatal("SHOW WAREHOUSES lists the dropped warehouse wh")
	}
	if _, err := e.Exec(`CREATE DYNAMIC TABLE d2 TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT id FROM src`); err == nil {
		t.Fatal("a DT was created on the dropped warehouse wh")
	}
	registryChurn(t, e, 1)
	wantJob(t, e, dt, false)

	// UNDROP needs the name free.
	e.MustExec(`CREATE TABLE wh (a INT)`)
	if _, err := e.Exec(`UNDROP WAREHOUSE wh`); err == nil {
		t.Fatal("UNDROP WAREHOUSE wh succeeded while a table holds the name")
	}
	e.MustExec(`ALTER TABLE wh RENAME TO t_wh`)
	e.MustExec(`UNDROP WAREHOUSE wh`)
	if got := showWarehouses(t, e)["wh"]["billed"]; got != billed {
		t.Fatalf("the undropped wh billed %s, want its %s from before DROP", got, billed)
	}
	registryChurn(t, e, 1)
	wantJob(t, e, dt, true)
}

func TestRegistryWarehouseRename(t *testing.T) {
	e := New()
	t.Cleanup(func() { e.Close() })
	registryScript(t, e)
	billed := showWarehouses(t, e)["wh"]["billed"]

	e.MustExec(`ALTER WAREHOUSE wh RENAME TO wh2`)
	whs := showWarehouses(t, e)
	if _, ok := whs["wh"]; ok || whs["wh2"]["billed"] != billed {
		t.Fatalf("after RENAME, SHOW WAREHOUSES lists %v; want wh2 alone, billed %s", whs, billed)
	}
	if _, err := e.Exec(`CREATE DYNAMIC TABLE d3 TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT id FROM src`); err == nil {
		t.Fatal("a DT was created on wh, renamed to wh2")
	}
	e.MustExec(`CREATE DYNAMIC TABLE d2 TARGET_LAG = '1 minute' WAREHOUSE = wh2 AS SELECT id, v FROM src`)

	// d still names wh, which no longer resolves; d2's jobs bill wh2
	// under its new name.
	registryChurn(t, e, 1)
	wantJob(t, e, mustDT(t, e, "d"), false)
	d2 := mustDT(t, e, "d2")
	wantJob(t, e, d2, true)
	if job := lastRecord(t, d2).Exec.Job; job.Warehouse != "wh2" {
		t.Fatalf("d2's job ran on %q, want wh2", job.Warehouse)
	}

	// SWAP exchanges the names; each warehouse takes its entry's.
	e.MustExec(`CREATE WAREHOUSE big WAREHOUSE_SIZE = LARGE`)
	e.MustExec(`ALTER WAREHOUSE wh2 SWAP WITH big`)
	whs = showWarehouses(t, e)
	if whs["wh2"]["size"] != "LARGE" || whs["big"]["size"] != "XSMALL" || whs["big"]["billed"] == "0s" {
		t.Fatalf("after SWAP, SHOW WAREHOUSES lists %v", whs)
	}
	registryChurn(t, e, 1)
	if job := lastRecord(t, d2).Exec.Job; job == nil || job.Warehouse != "wh2" || job.Size != warehouse.SizeLarge {
		t.Fatalf("after SWAP, d2's job is %+v, want one on the LARGE wh2", job)
	}
}

func TestRegistryWarehouseNameClash(t *testing.T) {
	e := New()
	t.Cleanup(func() { e.Close() })
	e.MustExec(`CREATE TABLE x (a INT)`)
	if _, err := e.Exec(`CREATE WAREHOUSE x`); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("CREATE WAREHOUSE on a table's name: %v, want an already-exists error", err)
	}
	if _, ok := showWarehouses(t, e)["x"]; ok {
		t.Fatal("SHOW WAREHOUSES lists x, a table")
	}
	if _, err := e.Exec(`CREATE DYNAMIC TABLE dx TARGET_LAG = '1 minute' WAREHOUSE = x AS SELECT a FROM x`); err == nil {
		t.Fatal("a DT was created on the table x as its warehouse")
	}

	registryScript(t, e)
	if _, err := e.Exec(`CREATE WAREHOUSE WH`); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("CREATE WAREHOUSE on a live warehouse's name, in other case: %v, want an already-exists error", err)
	}
	// OR REPLACE of a live warehouse resizes it in place, billing kept.
	billed := showWarehouses(t, e)["wh"]["billed"]
	e.MustExec(`CREATE OR REPLACE WAREHOUSE wh WAREHOUSE_SIZE = LARGE`)
	if wh := showWarehouses(t, e)["wh"]; wh["size"] != "LARGE" || wh["billed"] != billed {
		t.Fatalf("after OR REPLACE, wh is %v; want LARGE, billed %s", wh, billed)
	}
	registryChurn(t, e, 1)
	if job := lastRecord(t, mustDT(t, e, "d")).Exec.Job; job == nil || job.Size != warehouse.SizeLarge {
		t.Fatalf("d's job after OR REPLACE is %+v, want one on the LARGE wh", job)
	}
}

// TestRegistryDropChecksKind runs DROP and UNDROP of a kind other than the
// named entry's: a table, a warehouse and a DT share one namespace, and the
// statement must not reach an object of another kind through the name.
func TestRegistryDropChecksKind(t *testing.T) {
	e := New()
	t.Cleanup(func() { e.Close() })
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`DROP WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE wh (a INT)`)
	e.MustExec(`INSERT INTO wh VALUES (5)`)
	e.MustExec(`DROP TABLE wh`)
	// The most recently dropped wh is the table.
	if _, err := e.Exec(`UNDROP WAREHOUSE wh`); err == nil || !strings.Contains(err.Error(), "wh is a TABLE") {
		t.Fatalf("UNDROP WAREHOUSE wh with a dropped table on top: %v, want a kind error", err)
	}
	if _, err := e.Exec(`SELECT a FROM wh`); err == nil {
		t.Fatal("the rejected UNDROP WAREHOUSE restored the table wh")
	}
	e.MustExec(`UNDROP TABLE wh`)
	if _, err := e.Exec(`DROP WAREHOUSE wh`); err == nil || !strings.Contains(err.Error(), "wh is a TABLE") {
		t.Fatalf("DROP WAREHOUSE on the table wh: %v, want a kind error", err)
	}
	if _, err := e.Exec(`DROP DYNAMIC TABLE wh`); err == nil || !strings.Contains(err.Error(), "wh is a TABLE") {
		t.Fatalf("DROP DYNAMIC TABLE on the table wh: %v, want a kind error", err)
	}
	res := e.MustExec(`SELECT a FROM wh`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("the table wh holds %v after the rejected drops, want [[5]]", res.Rows)
	}

	e = New()
	t.Cleanup(func() { e.Close() })
	registryScript(t, e)
	if _, err := e.Exec(`DROP TABLE d`); err == nil || !strings.Contains(err.Error(), "d is a DYNAMIC TABLE") {
		t.Fatalf("DROP TABLE on the DT d: %v, want a kind error", err)
	}
	e.MustExec(`DROP DYNAMIC TABLE d`)
	if _, err := e.Exec(`UNDROP VIEW d`); err == nil || !strings.Contains(err.Error(), "d is a DYNAMIC TABLE") {
		t.Fatalf("UNDROP VIEW of the dropped DT d: %v, want a kind error", err)
	}
	e.MustExec(`UNDROP DYNAMIC TABLE d`)
	mustDT(t, e, "d")
}

// TestRegistryRenameAndSwapCheckKind runs ALTER ... RENAME and SWAP with a
// kind other than the named entry's, and SWAP with a target of another
// kind: each must fail and leave both names where they were.
func TestRegistryRenameAndSwapCheckKind(t *testing.T) {
	e := New()
	t.Cleanup(func() { e.Close() })
	registryScript(t, e)
	for _, tc := range []struct{ stmt, want string }{
		{`ALTER WAREHOUSE src RENAME TO src2`, "src is a TABLE"},
		{`ALTER DYNAMIC TABLE src RENAME TO src2`, "src is a TABLE"},
		{`ALTER TABLE d RENAME TO d2`, "d is a DYNAMIC TABLE"},
		{`ALTER TABLE wh SWAP WITH src`, "wh is a WAREHOUSE"},
		{`ALTER TABLE src SWAP WITH d`, "d is a DYNAMIC TABLE"},
		{`ALTER TABLE src SWAP WITH wh`, "wh is a WAREHOUSE"},
	} {
		if _, err := e.Exec(tc.stmt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a kind error naming %q", tc.stmt, err, tc.want)
		}
	}
	if res := e.MustExec(`SELECT count(*) FROM src`); res.Rows[0][0].Int() != 12 {
		t.Fatalf("src holds %v rows after the rejected ALTERs, want 12", res.Rows)
	}
	mustDT(t, e, "d")
	if _, err := e.Exec(`SELECT * FROM src2`); err == nil {
		t.Fatal("a rejected RENAME created src2")
	}
	if _, err := e.Warehouse("wh"); err != nil {
		t.Fatal("a rejected SWAP moved the warehouse wh")
	}

	e.MustExec(`CREATE TABLE src3 (id INT, v INT)`)
	e.MustExec(`ALTER TABLE src SWAP WITH src3`)
	e.MustExec(`ALTER TABLE src RENAME TO src4`)
	if res := e.MustExec(`SELECT count(*) FROM src3`); res.Rows[0][0].Int() != 12 {
		t.Fatalf("src3 holds %v rows after the swap, want 12", res.Rows)
	}
}

// TestRegistryWarehouseCheckpointKeepsDroppedAndLive checkpoints a dropped
// wh and a live wh created after it, and reopens: each comes back with its
// own size and billed time and bills again.
func TestRegistryWarehouseCheckpointKeepsDroppedAndLive(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	registryScript(t, e)
	registryChurn(t, e, 2)
	dropped := showWarehouses(t, e)["wh"]
	e.MustExec(`DROP WAREHOUSE wh`)
	e.MustExec(`CREATE WAREHOUSE wh WAREHOUSE_SIZE = SMALL`)
	registryChurn(t, e, 5)
	live := showWarehouses(t, e)["wh"]
	if live["billed"] == "0s" || live["billed"] == dropped["billed"] {
		t.Fatalf("the new wh billed %s; want its own billing, apart from the dropped wh's %s", live["billed"], dropped["billed"])
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if got := showWarehouses(t, e)["wh"]; got["size"] != "SMALL" || got["billed"] != live["billed"] {
		t.Fatalf("reopened live wh is %v, want SMALL billed %s", got, live["billed"])
	}
	registryChurn(t, e, 1)
	if got := showWarehouses(t, e)["wh"]["billed"]; got == live["billed"] {
		t.Fatal("the reopened live wh billed nothing more")
	}
	e.MustExec(`ALTER WAREHOUSE wh RENAME TO wh_live`)
	e.MustExec(`UNDROP WAREHOUSE wh`)
	if got := showWarehouses(t, e)["wh"]; got["size"] != "XSMALL" || got["billed"] != dropped["billed"] {
		t.Fatalf("undropped wh after reopen is %v, want XSMALL billed %s", got, dropped["billed"])
	}
	registryChurn(t, e, 1)
	if got := showWarehouses(t, e)["wh"]["billed"]; got == dropped["billed"] {
		t.Fatal("the undropped wh billed nothing more")
	}
}

// TestRegistryWarehouseOpensOlderDataDir opens
// testdata/checkpoint-warehouse-pool, written by an engine that kept
// warehouses in a pool beside the catalog and never closed: it ran
//
//	CREATE WAREHOUSE wh; CREATE TABLE src; a DT d on wh over src
//	CREATE TABLE x; CREATE WAREHOUSE x; a DT dx on WAREHOUSE = x
//	CREATE WAREHOUSE old WAREHOUSE_SIZE = SMALL; DROP WAREHOUSE old
//	three updates and scheduler passes; CHECKPOINT
//	CREATE TABLE y; CREATE WAREHOUSE y
//	CREATE OR REPLACE WAREHOUSE old WAREHOUSE_SIZE = LARGE
//	two inserts and scheduler passes
//
// so its snapshot has a warehouse row (x) that no entry names, and its
// WAL a CREATE WAREHOUSE record (y) with no entry ID and no OR REPLACE.
// Neither warehouse had a catalog entry, so neither comes back; the
// OR REPLACE of the dropped old installs nothing, and UNDROP restores
// old as it was dropped.
func TestRegistryWarehouseOpensOlderDataDir(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "checkpoint-warehouse-pool")
	for _, name := range []string{"snapshot.json", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	whs := showWarehouses(t, e)
	if len(whs) != 1 || whs["wh"]["billed"] == "0s" {
		t.Fatalf("SHOW WAREHOUSES after reopen lists %v, want wh alone, billed", whs)
	}
	// The values the writing process printed before it exited.
	if got, want := fmt.Sprint(e.MustExec(`SELECT k, s FROM d ORDER BY k`).Rows), "[[0 21] [1 222]]"; got != want {
		t.Errorf("d after reopen = %s, want %s", got, want)
	}
	if got := fmt.Sprint(e.MustExec(`SELECT a FROM x`).Rows); got != "[[7]]" {
		t.Errorf("table x after reopen = %s, want [[7]]", got)
	}
	e.MustExec(`SELECT a FROM y`)

	registryChurn(t, e, 1)
	wantJob(t, e, mustDT(t, e, "d"), true)
	wantJob(t, e, mustDT(t, e, "dx"), false)
	for _, name := range []string{"d", "dx"} {
		if err := e.CheckDVS(name); err != nil {
			t.Fatal(err)
		}
	}
	e.MustExec(`UNDROP WAREHOUSE old`)
	if got := showWarehouses(t, e)["old"]["size"]; got != "SMALL" {
		t.Fatalf("undropped old has size %s, want SMALL", got)
	}
}

// TestRegistryReplacedDTIsCollectable replaces d twenty times, with a
// scheduler pass after each: once replaced, a DT is reachable from
// nothing the engine keeps, the scheduler included.
func TestRegistryReplacedDTIsCollectable(t *testing.T) {
	e := New()
	t.Cleanup(func() { e.Close() })
	registryScript(t, e)
	var replaced []weak.Pointer[core.DynamicTable]
	for i := 0; i < 20; i++ {
		replaced = append(replaced, weak.Make(mustDT(t, e, "d")))
		e.MustExec(fmt.Sprintf(`CREATE OR REPLACE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
			AS SELECT id, v + %d w FROM src`, i))
		registryChurn(t, e, 1)
	}
	runtime.GC()
	live := 0
	for _, p := range replaced {
		if p.Value() != nil {
			live++
		}
	}
	if live > 0 {
		t.Fatalf("%d of %d replaced DTs are still reachable", live, len(replaced))
	}
}

// TestUndropKeepsBusyWindow checks that a DT's busy window (§3.3.3), which
// the scheduler reads from the DT's own refresh records, survives DROP and
// UNDROP: the next fire instant inside it is skipped, or under the
// skip-disabled ablation (E10) queues behind it. The warehouse is dropped
// too, so no warehouse queue delays the refresh in its place.
func TestUndropKeepsBusyWindow(t *testing.T) {
	for _, disableSkip := range []bool{false, true} {
		e := New(WithCostModel(warehouse.CostModel{Fixed: 150 * time.Second}))
		t.Cleanup(func() { e.Close() })
		e.MustExec(`CREATE WAREHOUSE wh`)
		e.MustExec(`CREATE TABLE src (a INT)`)
		e.MustExec(`INSERT INTO src VALUES (1)`)
		e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '2 minutes' WAREHOUSE = wh AS SELECT a FROM src`)
		e.Scheduler().DisableSkip = disableSkip
		dt := mustDT(t, e, "d")
		e.MustExec(`INSERT INTO src VALUES (2)`)
		mustPass(t, e)
		first := lastRecord(t, dt)
		if first.Err != nil || first.Exec == nil || first.Exec.Wave < 0 {
			t.Fatalf("d's first scheduled refresh: %+v", first)
		}

		e.MustExec(`DROP DYNAMIC TABLE d`)
		e.MustExec(`UNDROP DYNAMIC TABLE d`)
		e.MustExec(`DROP WAREHOUSE wh`)
		e.MustExec(`INSERT INTO src VALUES (3)`)
		mustPass(t, e)
		next := lastRecord(t, dt)
		if !first.Exec.End.After(next.DataTS) {
			t.Fatalf("the second fire instant %v is not inside the busy window ending %v", next.DataTS, first.Exec.End)
		}
		switch {
		case !disableSkip && next.Action != core.ActionSkip:
			t.Errorf("the fire instant inside the busy window ran %s, want SKIP", next.Action)
		case disableSkip && (next.Exec == nil || !next.Exec.Start.Equal(first.Exec.End)):
			t.Errorf("with skips disabled the refresh started at %+v, want at the busy window's end %v", next.Exec, first.Exec.End)
		}
	}
}

// TestBusyWindowOutlivesHistoryRing overloads a DT whose refresh takes
// twelve fire instants, with history rings of the default size, two
// records and one: the skip records push the refresh that opened the
// window out of a small ring, and the DT skips the same fire instants
// regardless.
func TestBusyWindowOutlivesHistoryRing(t *testing.T) {
	skips := make(map[int]int)
	for _, capacity := range []int{0, 2, 1} {
		e := New(WithConfig(Config{HistoryCapacity: capacity}),
			WithCostModel(warehouse.CostModel{Fixed: 10 * time.Minute}))
		t.Cleanup(func() { e.Close() })
		e.MustExec(`CREATE WAREHOUSE wh`)
		e.MustExec(`CREATE TABLE src (a INT)`)
		e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '2 minutes' WAREHOUSE = wh AS SELECT a FROM src`)
		for i := 0; i < 12; i++ {
			e.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d)`, i))
			e.AdvanceTime(sched.MinCanonicalPeriod)
			if err := e.RunScheduler(); err != nil {
				t.Fatal(err)
			}
		}
		skips[capacity] = e.Scheduler().Stats().Skips
	}
	if skips[0] == 0 || skips[1] != skips[0] || skips[2] != skips[0] {
		t.Fatalf("skips by history capacity: %v; want the default ring's count at every size", skips)
	}
}
