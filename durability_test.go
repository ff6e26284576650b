package dyntables

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dyntables/internal/catalog"
	"dyntables/internal/core"
	"dyntables/internal/hlc"
	"dyntables/internal/persist"
	"dyntables/internal/storage"
	"dyntables/internal/warehouse"
)

// ---------------------------------------------------------------------------
// state capture: byte-for-byte comparison of engines
// ---------------------------------------------------------------------------

type versionDump struct {
	Seq            int64
	Commit         hlc.Timestamp
	Overwrite      bool
	DataEquivalent bool
	HasSnapshot    bool
	RowCount       int
	Rows           []string // sorted "id\x00<injective row key>" entries
}

// dumpTable materializes every live version of a table into comparable
// form. On a compacted chain the dump starts at the oldest readable
// sequence; the folded prefix has no per-version state left to compare
// (and CompactedThrough itself is compared by the callers' metadata
// checks, since the first live version's Seq pins it).
func dumpTable(t *testing.T, tbl *storage.Table) []versionDump {
	t.Helper()
	var out []versionDump
	for seq := tbl.CompactedThrough() + 1; seq <= int64(tbl.VersionCount()); seq++ {
		v, err := tbl.VersionBySeq(seq)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := tbl.Rows(seq)
		if err != nil {
			t.Fatal(err)
		}
		entries := make([]string, 0, len(rows))
		for id, row := range rows {
			entries = append(entries, id+"\x00"+row.Key())
		}
		sort.Strings(entries)
		out = append(out, versionDump{
			Seq:            v.Seq,
			Commit:         v.Commit,
			Overwrite:      v.Overwrite,
			DataEquivalent: v.DataEquivalent,
			HasSnapshot:    seq == tbl.CompactedThrough()+1 || v.Overwrite,
			RowCount:       v.RowCount,
			Rows:           entries,
		})
	}
	return out
}

// dumpEngine captures every catalog-reachable table and DT, plus the DDL
// state of every catalog entry (live and dropped; warehouses among them)
// and alert.
// DDL state rides as one-version pseudo-chains whose rows are the
// compared fields, so every caller that walks dumps by version compares
// it too.
func dumpEngine(t *testing.T, e *Engine) map[string][]versionDump {
	t.Helper()
	out := make(map[string][]versionDump)
	for _, entry := range e.Catalog().List(catalog.KindTable) {
		out["table:"+entry.Name] = dumpTable(t, entry.Payload.(*tableObject).table)
	}
	for _, entry := range e.Catalog().List(catalog.KindDynamicTable) {
		out["dt:"+entry.Name] = dumpTable(t, entry.Payload.(*core.DynamicTable).Storage)
	}
	for _, entry := range e.Catalog().Entries() {
		fields := []string{
			"name=" + entry.Name,
			"kind=" + entry.Kind.String(),
			fmt.Sprintf("generation=%d", entry.Generation),
			"owner=" + entry.Owner,
			fmt.Sprintf("deps=%v", entry.DependsOn),
			fmt.Sprintf("dropped=%v", entry.Dropped),
		}
		switch p := entry.Payload.(type) {
		case *viewObject:
			fields = append(fields, "text="+p.text)
		case *warehouse.Warehouse:
			fields = append(fields,
				"wh.name="+p.Name,
				fmt.Sprintf("size=%v", p.Size),
				fmt.Sprintf("auto_suspend=%v", p.AutoSuspend))
		case *core.DynamicTable:
			fields = append(fields,
				"dt.name="+p.Name,
				fmt.Sprintf("lag=%+v", p.Lag),
				"declared="+p.DeclaredMode.String(),
				"effective="+p.EffectiveMode.String(),
				"state="+p.State().String())
		}
		out[fmt.Sprintf("entry:%d", entry.ID)] = stateDump(fields...)
	}
	for _, a := range e.alertSnapshots() {
		out["alert:"+a.def.Name] = stateDump(fmt.Sprintf("def=%+v", a.def), fmt.Sprintf("suspended=%v", a.suspended))
	}
	return out
}

// stateDump wraps compared DDL fields as a one-version pseudo-chain.
func stateDump(fields ...string) []versionDump {
	return []versionDump{{Seq: 1, RowCount: len(fields), Rows: fields}}
}

func compareDumps(t *testing.T, want, got map[string][]versionDump, context string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: object count differs: want %d, got %d", context, len(want), len(got))
	}
	for name, wantVersions := range want {
		gotVersions, ok := got[name]
		if !ok {
			t.Fatalf("%s: %s missing after recovery", context, name)
		}
		if len(wantVersions) != len(gotVersions) {
			t.Fatalf("%s: %s version count: want %d, got %d",
				context, name, len(wantVersions), len(gotVersions))
		}
		for i := range wantVersions {
			w, g := wantVersions[i], gotVersions[i]
			if w.Seq != g.Seq || w.Commit != g.Commit || w.Overwrite != g.Overwrite ||
				w.DataEquivalent != g.DataEquivalent || w.HasSnapshot != g.HasSnapshot ||
				w.RowCount != g.RowCount {
				t.Fatalf("%s: %s version %d metadata differs:\nwant %+v\ngot  %+v",
					context, name, w.Seq, w, g)
			}
			if len(w.Rows) != len(g.Rows) {
				t.Fatalf("%s: %s version %d rows: want %d, got %d",
					context, name, w.Seq, len(w.Rows), len(g.Rows))
			}
			for j := range w.Rows {
				if w.Rows[j] != g.Rows[j] {
					t.Fatalf("%s: %s version %d row %d differs byte-for-byte:\nwant %q\ngot  %q",
						context, name, w.Seq, j, w.Rows[j], g.Rows[j])
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// kill-and-reopen (acceptance criterion)
// ---------------------------------------------------------------------------

func TestKillAndReopenRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE orders (id INT, region STRING, amount INT)`)
	s.MustExec(`CREATE VIEW big_orders AS SELECT * FROM orders WHERE amount > 100`)
	s.MustExec(`CREATE DYNAMIC TABLE by_region TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT region, count(*) n, sum(amount) total FROM orders GROUP BY region`)
	s.MustExec(`CREATE DYNAMIC TABLE top_line TARGET_LAG = '2 minutes' WAREHOUSE = wh
	            AS SELECT sum(total) grand FROM by_region`)
	s.MustExec(`INSERT INTO orders VALUES (1, 'emea', 50), (2, 'emea', 200), (3, 'apac', 75)`)
	e.AdvanceTime(3 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	s.MustExec(`UPDATE orders SET amount = 60 WHERE id = 1`)
	s.MustExec(`DELETE FROM orders WHERE id = 3`)
	e.AdvanceTime(3 * time.Minute)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	e.Catalog().Grant(mustEntry(t, e, "by_region").ID, catalog.PrivMonitor, "analyst")

	want := dumpEngine(t, e)
	wantFrontier := mustDT(t, e, "by_region").Frontier()
	wantNow := e.Now()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}
	if _, err := s.Exec(`SELECT 1 FROM orders`); err == nil {
		t.Fatal("statements should fail after Close")
	}

	// Reopen: catalog, version chains and frontiers must be identical.
	e2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	compareDumps(t, want, dumpEngine(t, e2), "kill-and-reopen")
	if got := e2.Now(); !got.Equal(wantNow) {
		t.Fatalf("clock: want %v, got %v", wantNow, got)
	}
	dt2 := mustDT(t, e2, "by_region")
	gotFrontier := dt2.Frontier()
	if !gotFrontier.DataTS.Equal(wantFrontier.DataTS) {
		t.Fatalf("frontier data TS: want %v, got %v", wantFrontier.DataTS, gotFrontier.DataTS)
	}
	if len(gotFrontier.Versions) != len(wantFrontier.Versions) {
		t.Fatalf("frontier pins: want %d, got %d", len(wantFrontier.Versions), len(gotFrontier.Versions))
	}
	// The view survives.
	s2 := e2.NewSession()
	res, err := s2.Query(`SELECT count(*) FROM big_orders`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("view result: want 1, got %v", res.Rows[0][0])
	}
	// Grants survive.
	if !e2.Catalog().HasPrivilege(mustEntry(t, e2, "by_region").ID, catalog.PrivMonitor, "analyst") {
		t.Fatal("MONITOR grant lost in recovery")
	}

	// The next refresh after new data must be INCREMENTAL — recovery must
	// not force a full recompute (refresh continuity, §5.3).
	preHistory := len(dt2.History())
	s2.MustExec(`INSERT INTO orders VALUES (4, 'apac', 10)`)
	e2.AdvanceTime(90 * time.Second)
	if err := e2.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	var sawWork bool
	for _, rec := range dt2.History()[preHistory:] {
		switch rec.Action {
		case core.ActionIncremental, core.ActionNoData:
			if rec.Action == core.ActionIncremental {
				sawWork = true
			}
		default:
			t.Fatalf("post-recovery refresh took %s; want INCREMENTAL/NO_DATA only", rec.Action)
		}
	}
	if !sawWork {
		t.Fatal("no incremental refresh happened after recovery")
	}
	for _, name := range []string{"by_region", "top_line"} {
		if err := e2.CheckDVS(name); err != nil {
			t.Fatalf("DVS violated after recovery: %v", err)
		}
	}

	// Results identical to an uninterrupted run of the same script.
	ref := New()
	defer ref.Close()
	rs := ref.NewSession()
	rs.MustExec(`CREATE WAREHOUSE wh`)
	rs.MustExec(`CREATE TABLE orders (id INT, region STRING, amount INT)`)
	rs.MustExec(`CREATE VIEW big_orders AS SELECT * FROM orders WHERE amount > 100`)
	rs.MustExec(`CREATE DYNAMIC TABLE by_region TARGET_LAG = '1 minute' WAREHOUSE = wh
	             AS SELECT region, count(*) n, sum(amount) total FROM orders GROUP BY region`)
	rs.MustExec(`CREATE DYNAMIC TABLE top_line TARGET_LAG = '2 minutes' WAREHOUSE = wh
	             AS SELECT sum(total) grand FROM by_region`)
	rs.MustExec(`INSERT INTO orders VALUES (1, 'emea', 50), (2, 'emea', 200), (3, 'apac', 75)`)
	ref.AdvanceTime(3 * time.Minute)
	if err := ref.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	rs.MustExec(`UPDATE orders SET amount = 60 WHERE id = 1`)
	rs.MustExec(`DELETE FROM orders WHERE id = 3`)
	ref.AdvanceTime(3 * time.Minute)
	if err := ref.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	rs.MustExec(`INSERT INTO orders VALUES (4, 'apac', 10)`)
	ref.AdvanceTime(90 * time.Second)
	if err := ref.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT region, n, total FROM by_region ORDER BY region`,
		`SELECT grand FROM top_line`,
	} {
		wantRes := rs.MustExec(q)
		gotRes, err := e2.NewSession().Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(wantRes.Rows) != fmt.Sprint(gotRes.Rows) {
			t.Fatalf("query %q: uninterrupted %v, recovered %v", q, wantRes.Rows, gotRes.Rows)
		}
	}
}

func mustEntry(t *testing.T, e *Engine, name string) *catalog.Entry {
	t.Helper()
	entry, err := e.Catalog().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

func mustDT(t *testing.T, e *Engine, name string) *core.DynamicTable {
	t.Helper()
	dt, err := e.DynamicTableHandle(name)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

// ---------------------------------------------------------------------------
// simulated crash: torn WAL tail
// ---------------------------------------------------------------------------

func TestCrashMidWALTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	// Huge cadence so everything stays in the WAL (no snapshot).
	e, err := Open(dir, WithCheckpointEvery(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE ev (id INT, amt INT)`)
	s.MustExec(`CREATE DYNAMIC TABLE tot TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT id, sum(amt) s FROM ev GROUP BY id`)
	for i := 0; i < 10; i++ {
		s.MustExec(fmt.Sprintf(`INSERT INTO ev VALUES (%d, %d)`, i%3, i))
		e.AdvanceTime(time.Minute)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no checkpoint (crash releases the dir lock but keeps the
	// WAL as written). Tear the last frame mid-record.
	if err := e.crash(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, persist.WALName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	before, _, err := persist.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery from torn WAL failed: %v", err)
	}
	defer e2.Close()
	after, _, err := persist.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("torn tail not truncated consistently: %d readable before, %d after", before, after)
	}
	// The recovered prefix is a consistent engine: catalog intact, tables
	// queryable, and the engine keeps accepting work.
	s2 := e2.NewSession()
	res, err := s2.Query(`SELECT count(*) FROM ev`)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Rows[0][0].Int()
	if n < 1 || n > 10 {
		t.Fatalf("recovered row count %d outside the possible prefix range", n)
	}
	s2.MustExec(`INSERT INTO ev VALUES (99, 1)`)
	e2.AdvanceTime(2 * time.Minute)
	if err := e2.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	if err := e2.CheckDVS("tot"); err != nil {
		t.Fatalf("DVS after healing refresh: %v", err)
	}
}

// ---------------------------------------------------------------------------
// recovery equivalence: property test over random DML+refresh histories
// ---------------------------------------------------------------------------

func TestRecoveryEquivalenceProperty(t *testing.T) {
	cadences := []int{3, 17, 1 << 20}
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			e, err := Open(dir, WithCheckpointEvery(cadences[seed%int64(len(cadences))]))
			if err != nil {
				t.Fatal(err)
			}
			s := e.NewSession()
			s.MustExec(`CREATE WAREHOUSE wh`)
			s.MustExec(`CREATE TABLE ta (id INT, v INT, s STRING)`)
			s.MustExec(`CREATE DYNAMIC TABLE d1 TARGET_LAG = '1 minute' WAREHOUSE = wh
			            AS SELECT id, count(*) c, sum(v) sv FROM ta GROUP BY id`)
			s.MustExec(`CREATE DYNAMIC TABLE d2 TARGET_LAG = '2 minutes' WAREHOUSE = wh
			            AS SELECT sum(sv) total FROM d1`)

			nextID := 0
			for op := 0; op < 50; op++ {
				switch rng.Intn(12) {
				case 0, 1, 2, 3:
					s.MustExec(fmt.Sprintf(`INSERT INTO ta VALUES (%d, %d, 's%d')`,
						nextID%7, rng.Intn(100), rng.Intn(5)))
					nextID++
				case 4:
					s.MustExec(fmt.Sprintf(`UPDATE ta SET v = v + %d WHERE id = %d`,
						rng.Intn(10), rng.Intn(7)))
				case 5:
					s.MustExec(fmt.Sprintf(`DELETE FROM ta WHERE id = %d AND v < %d`,
						rng.Intn(7), rng.Intn(30)))
				case 6, 7:
					e.AdvanceTime(time.Duration(30+rng.Intn(120)) * time.Second)
					if err := e.RunScheduler(); err != nil {
						t.Fatal(err)
					}
				case 8:
					if err := s.ManualRefresh("d1"); err != nil {
						t.Fatal(err)
					}
				case 9:
					if err := e.Recluster("ta"); err != nil {
						t.Fatal(err)
					}
				case 10, 11:
					// Version-chain compaction: the fold is write-ahead-
					// logged, so the recovered engine must reproduce the
					// compacted chain exactly — including which sequences
					// are readable.
					s.MustExec(fmt.Sprintf(`ALTER SYSTEM SET COMPACTION_HORIZON = %d`,
						2+rng.Intn(6)))
					if _, err := e.CompactNow(); err != nil {
						t.Fatal(err)
					}
				}
			}

			want := dumpEngine(t, e)
			if seed%2 == 0 {
				// Clean shutdown: final checkpoint.
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				// Crash: no final checkpoint, recover from snapshot+WAL.
				if err := e.crash(); err != nil {
					t.Fatal(err)
				}
			}

			e2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			compareDumps(t, want, dumpEngine(t, e2), fmt.Sprintf("seed %d", seed))
			for _, name := range []string{"d1", "d2"} {
				if dt := mustDT(t, e2, name); dt.Initialized() {
					if err := e2.CheckDVS(name); err != nil {
						t.Fatalf("DVS after recovery: %v", err)
					}
				}
			}
		})
	}
}

// TestRecoveryEquivalenceCompactedMidSweep crashes an engine mid-
// compaction-sweep — after some tables' fold records reached the WAL but
// with the final one torn off — and requires that the recovered engine
// reproduces Rows(seq) byte-for-byte for every sequence that is readable
// after recovery. Compaction must never change the contents observable
// at any surviving sequence, no matter where the crash lands.
func TestRecoveryEquivalenceCompactedMidSweep(t *testing.T) {
	dir := t.TempDir()
	// Small checkpoint cadence: the history spans a snapshot plus WAL
	// tail, so the compact records replay over a restored chain.
	e, err := Open(dir, WithCheckpointEvery(9))
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE ta (id INT, v INT)`)
	s.MustExec(`CREATE DYNAMIC TABLE d1 TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT id, sum(v) sv FROM ta GROUP BY id`)
	s.MustExec(`CREATE DYNAMIC TABLE d2 TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT sum(sv) total FROM d1`)
	for i := 0; i < 12; i++ {
		s.MustExec(fmt.Sprintf(`INSERT INTO ta VALUES (%d, %d)`, i%5, i))
		e.AdvanceTime(90 * time.Second)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}

	// Full pre-compaction capture: every version of every chain.
	want := dumpEngine(t, e)

	s.MustExec(`ALTER SYSTEM SET COMPACTION_HORIZON = 3`)
	if folded, err := e.CompactNow(); err != nil {
		t.Fatal(err)
	} else if folded == 0 {
		t.Fatal("sweep folded nothing; history too short for the scenario")
	}
	if err := e.crash(); err != nil {
		t.Fatal(err)
	}
	// Tear the WAL tail: the sweep's last compact record is lost, so the
	// recovered engine comes up with some chains folded and (possibly)
	// the last one still full — exactly a crash between per-table folds.
	path := filepath.Join(dir, persist.WALName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery mid-sweep failed: %v", err)
	}
	defer e2.Close()

	got := dumpEngine(t, e2)
	for name, gotVersions := range got {
		wantVersions := want[name]
		if wantVersions == nil {
			t.Fatalf("%s appeared only after recovery", name)
		}
		for _, g := range gotVersions {
			if g.Seq < 1 || g.Seq > int64(len(wantVersions)) {
				t.Fatalf("%s: recovered sequence %d outside pre-crash chain of %d",
					name, g.Seq, len(wantVersions))
			}
			w := wantVersions[g.Seq-1]
			if w.Seq != g.Seq || w.Commit != g.Commit || w.RowCount != g.RowCount {
				t.Fatalf("%s: version %d metadata differs after mid-sweep recovery:\nwant %+v\ngot  %+v",
					name, g.Seq, w, g)
			}
			if len(w.Rows) != len(g.Rows) {
				t.Fatalf("%s: version %d rows: want %d, got %d", name, g.Seq, len(w.Rows), len(g.Rows))
			}
			for j := range w.Rows {
				if w.Rows[j] != g.Rows[j] {
					t.Fatalf("%s: version %d row %d differs byte-for-byte after mid-sweep recovery",
						name, g.Seq, j)
				}
			}
		}
	}
	// The recovered engine keeps working: more churn, refreshes, and a
	// fresh sweep on top of the recovered chains.
	s2 := e2.NewSession()
	s2.MustExec(`INSERT INTO ta VALUES (99, 7)`)
	e2.AdvanceTime(2 * time.Minute)
	if err := e2.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	s2.MustExec(`ALTER SYSTEM SET COMPACTION_HORIZON = 2`)
	if _, err := e2.CompactNow(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d1", "d2"} {
		if err := e2.CheckDVS(name); err != nil {
			t.Fatalf("DVS after post-recovery sweep: %v", err)
		}
	}
}

// TestDDLLiveEqualsRecovered runs DDL scripts — including rejected
// statements — on a durable engine and requires the live engine, a clean
// reopen and a crash reopen to agree on every object's DDL state and
// contents.
func TestDDLLiveEqualsRecovered(t *testing.T) {
	type step struct {
		sql     string
		wantErr bool
	}
	setup := []step{
		{sql: `CREATE WAREHOUSE wh`},
		{sql: `CREATE TABLE t (x INT)`},
		{sql: `INSERT INTO t VALUES (1), (2)`},
		{sql: `CREATE DYNAMIC TABLE a TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT x FROM t`},
		{sql: `CREATE DYNAMIC TABLE b TARGET_LAG = '2 minutes' WAREHOUSE = wh AS SELECT x FROM a`},
	}
	describeName := func(t *testing.T, e *Engine, name string) string {
		t.Helper()
		st, err := e.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		return st.Name
	}
	cases := []struct {
		name  string
		steps []step
		check func(t *testing.T, e *Engine)
	}{
		{
			// b reads a, so redefining a over b closes a cycle: the
			// statement fails and a keeps its definition and rows.
			name: "rejected replace keeps the DT",
			steps: []step{{sql: `CREATE OR REPLACE DYNAMIC TABLE a TARGET_LAG = '1 minute' WAREHOUSE = wh
				AS SELECT x FROM b`, wantErr: true}},
			check: func(t *testing.T, e *Engine) {
				expectQuery(t, e, `SELECT count(*) FROM a`, "[2]")
				if got := mustDT(t, e, "a").Text; !strings.Contains(got, "FROM t") {
					t.Fatalf("a's definition changed: %s", got)
				}
			},
		},
		{
			name:  "rejected rename keeps the DT name",
			steps: []step{{sql: `ALTER DYNAMIC TABLE a RENAME TO t`, wantErr: true}},
			check: func(t *testing.T, e *Engine) {
				if got := describeName(t, e, "a"); got != "a" {
					t.Fatalf(`Describe("a").Name = %q`, got)
				}
			},
		},
		{
			name:  "swap renames both DTs",
			steps: []step{{sql: `ALTER DYNAMIC TABLE a SWAP WITH b`}},
			check: func(t *testing.T, e *Engine) {
				for _, name := range []string{"a", "b"} {
					if got := describeName(t, e, name); got != name {
						t.Fatalf("Describe(%q).Name = %q", name, got)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/crash=%v", tc.name, crash), func(t *testing.T) {
				dir := t.TempDir()
				e, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range append(append([]step(nil), setup...), tc.steps...) {
					if _, err := e.Exec(st.sql); (err != nil) != st.wantErr {
						t.Fatalf("%s: err = %v, want error %v", st.sql, err, st.wantErr)
					}
				}
				tc.check(t, e)
				want := dumpEngine(t, e)
				if crash {
					err = e.crash()
				} else {
					err = e.Close()
				}
				if err != nil {
					t.Fatalf("shutdown: %v", err)
				}
				e2, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer e2.Close()
				compareDumps(t, want, dumpEngine(t, e2), "reopen")
				tc.check(t, e2)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Close lifecycle
// ---------------------------------------------------------------------------

func TestCloseRefusesOpenCursors(t *testing.T) {
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE TABLE tt (id INT)`)
	s.MustExec(`INSERT INTO tt VALUES (1), (2)`)
	rows, err := s.QueryContext(context.Background(), `SELECT * FROM tt`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err == nil {
		t.Fatal("Close should refuse while a cursor is open")
	}
	rows.Close()
	if err := e.Close(); err != nil {
		t.Fatalf("Close after cursor release: %v", err)
	}
	if _, err := s.Exec(`SELECT * FROM tt`); err == nil {
		t.Fatal("statements should fail after Close")
	}
}

func TestForceCloseWithOpenCursor(t *testing.T) {
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE TABLE tt (id INT)`)
	s.MustExec(`INSERT INTO tt VALUES (1)`)
	rows, err := s.QueryContext(context.Background(), `SELECT * FROM tt`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ForceClose(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if err := e.Close(); err != nil {
		t.Fatalf("Close after ForceClose should be a no-op: %v", err)
	}
}

func TestCheckpointBoundsWAL(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCheckpointEvery(5))
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	s.MustExec(`CREATE TABLE tt (id INT)`)
	for i := 0; i < 40; i++ {
		s.MustExec(fmt.Sprintf(`INSERT INTO tt VALUES (%d)`, i))
	}
	n, snapPresent, err := persist.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !snapPresent {
		t.Fatal("checkpoint cadence never produced a snapshot")
	}
	if n >= 40 {
		t.Fatalf("WAL not folded into checkpoints: %d records", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	res, err := e2.Query(`SELECT count(*) FROM tt`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 40 {
		t.Fatalf("want 40 rows after checkpointed recovery, got %v", res.Rows[0][0])
	}
}

func TestOpenLocksDataDir(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("second Open on a live data directory should fail")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close should succeed: %v", err)
	}
	e2.Close()
}

func TestReplaceDoesNotLeakTables(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	for i := 0; i < 10; i++ {
		s.MustExec(`CREATE OR REPLACE TABLE t (id INT)`)
		s.MustExec(`INSERT INTO t VALUES (1)`)
	}
	snap, err := e.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tables) != 1 {
		t.Fatalf("replaced chains leaked into the checkpoint: %d tables", len(snap.Tables))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	res, err := e2.Query(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("want 1 row in final replacement, got %v", res.Rows[0][0])
	}
}

// TestWindowDTReadsStoredRowsAfterReopen crashes a durable engine that
// keeps a window DT and reopens it: the DT's first changing refresh reads
// the old side of its window from the recovered DT rows, and the DT still
// equals its query.
func TestWindowDTReadsStoredRowsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCheckpointEvery(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE src (id INT, k INT, v INT)`)
	for i := 0; i < 40; i++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d, %d)`, i, i%5, i%7))
	}
	e.MustExec(`CREATE DYNAMIC TABLE w TARGET_LAG = '1 minute' WAREHOUSE = wh REFRESH_MODE = INCREMENTAL
		AS SELECT id, k, v, row_number() OVER (PARTITION BY k ORDER BY v, id) rn FROM src`)
	for round := 0; round < 3; round++ {
		e.MustExec(fmt.Sprintf(`UPDATE src SET v = v + 3 WHERE k = %d`, round))
		e.AdvanceTime(time.Minute)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.crash(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	stored := func() int {
		n := 0
		for _, rec := range e2.Tracer().Snapshot() {
			if rec.Name == "ivm.stored" {
				n++
			}
		}
		return n
	}
	if n := stored(); n != 0 {
		t.Fatalf("recovery read %d stored old sides", n)
	}
	dt := mustDT(t, e2, "w")
	before := len(dt.History())
	e2.MustExec(`UPDATE src SET v = v - 5 WHERE k = 4`)
	e2.MustExec(`DELETE FROM src WHERE id = 7`)
	e2.AdvanceTime(time.Minute)
	if err := e2.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	hist := dt.History()
	if len(hist) == before || hist[before].Action != core.ActionIncremental {
		t.Fatalf("the refreshes after reopen were %v, want INCREMENTAL first", hist[before:])
	}
	if n := stored(); n != 1 {
		t.Fatalf("the first refresh after reopen read %d old sides from the DT's rows, want 1", n)
	}
	if err := e2.CheckDVS("w"); err != nil {
		t.Fatal(err)
	}
}
