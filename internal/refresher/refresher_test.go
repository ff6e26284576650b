package refresher

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dyntables/internal/catalog"
	"dyntables/internal/clock"
	"dyntables/internal/core"
	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/txn"
	"dyntables/internal/types"
	"dyntables/internal/warehouse"
)

var t0 = time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC)

// harness wires a controller, a resolver and a warehouse without the
// full engine, mirroring how the scheduler drives the refresher.
type harness struct {
	t       *testing.T
	ctrl    *core.Controller
	txns    *txn.Manager
	wh      *warehouse.Warehouse
	model   warehouse.CostModel
	sources map[string]*plan.Source
	nextID  int64
	// byEntry maps each DT's entry ID to it, as the catalog would.
	byEntry map[int64]*core.DynamicTable
}

func newHarness(t *testing.T) *harness {
	h := &harness{
		t:       t,
		wh:      warehouse.New("wh", warehouse.SizeXSmall, time.Minute),
		model:   warehouse.CostModel{Fixed: 10 * time.Second, PerRow: 0},
		sources: map[string]*plan.Source{},
		byEntry: map[int64]*core.DynamicTable{},
	}
	h.txns = txn.NewManager(clock.NewVirtual(t0))
	h.ctrl = core.NewController(h.txns, h, h.entry, h.ddlSeq)
	return h
}

// warehouse stands in for the engine's warehouse lookup: every DT names
// the one warehouse wh.
func (h *harness) warehouse(name string) (*warehouse.Warehouse, error) {
	if name != h.wh.Name {
		return nil, fmt.Errorf("no such warehouse %q", name)
	}
	return h.wh, nil
}

// ddlSeq stands in for the catalog's DDL sequence: every source added is
// one DDL statement.
func (h *harness) ddlSeq() int64 { return h.nextID }

// entry stands in for the catalog's entry lookup.
func (h *harness) entry(id int64) (int64, *core.DynamicTable, error) {
	return 1, h.byEntry[id], nil
}

// ResolveTable implements plan.Resolver.
func (h *harness) ResolveTable(name string) (*plan.Source, error) {
	src, ok := h.sources[strings.ToUpper(name)]
	if !ok {
		return nil, fmt.Errorf("no such table %q", name)
	}
	return src, nil
}

func (h *harness) addSource(name string, kind catalog.ObjectKind, tb *storage.Table) *plan.Source {
	h.nextID++
	src := &plan.Source{EntryID: h.nextID, Generation: 1, Name: name, Kind: kind, Table: tb}
	h.sources[strings.ToUpper(name)] = src
	return src
}

func (h *harness) baseTable(name string, cols ...string) *storage.Table {
	var schema types.Schema
	for _, c := range cols {
		schema.Columns = append(schema.Columns, types.Column{Name: c, Kind: types.KindInt})
	}
	tb := storage.NewTable(schema, hlc.Timestamp{WallMicros: t0.UnixMicro()})
	h.addSource(name, catalog.KindTable, tb)
	return tb
}

func (h *harness) insert(tb *storage.Table, at time.Time, rows ...types.Row) {
	h.t.Helper()
	var cs delta.ChangeSet
	for _, r := range rows {
		cs.AddInsert(tb.NextRowID(), r)
	}
	if _, err := tb.Apply(cs, hlc.Timestamp{WallMicros: at.UnixMicro()}); err != nil {
		h.t.Fatal(err)
	}
}

func (h *harness) dt(name, text string) *core.DynamicTable {
	h.t.Helper()
	stmt := &sql.CreateDynamicTableStmt{
		Name: name, Text: text, Warehouse: "wh",
		Lag:  sql.TargetLag{Kind: sql.LagDuration, Duration: time.Minute},
		Mode: sql.RefreshAuto,
	}
	bound, mode, err := h.ctrl.Build(stmt)
	if err != nil {
		h.t.Fatalf("build %s: %v", name, err)
	}
	dt := core.NewDynamicTable(name, text, stmt.Lag, stmt.Warehouse, stmt.Mode, mode,
		storage.NewTable(bound.Plan.Schema(), hlc.Timestamp{WallMicros: t0.UnixMicro()}))
	h.ctrl.Adopt(dt)
	src := h.addSource(name, catalog.KindDynamicTable, dt.Storage)
	h.byEntry[src.EntryID] = dt
	return dt
}

func ints(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

func requests(at time.Time, dts ...*core.DynamicTable) []Request {
	out := make([]Request, len(dts))
	for i, dt := range dts {
		out[i] = Request{DT: dt, DataTS: at, Ready: at}
	}
	return out
}

func TestWavePartitioningAndExecution(t *testing.T) {
	h := newHarness(t)
	src := h.baseTable("src", "a", "b")
	h.insert(src, t0.Add(time.Second), ints(1, 10), ints(2, 20))

	a := h.dt("a", "SELECT a, b FROM src")
	b := h.dt("b", "SELECT b FROM src")
	c := h.dt("c", "SELECT x.a FROM a x JOIN b y ON x.b = y.b")

	r := New(h.ctrl, h.warehouse, h.model, 4)
	at := t0.Add(time.Minute)
	results, err := r.ExecuteTick(requests(at, c, b, a)) // intentionally unordered
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	// Results are (wave, name)-ordered: a and b in wave 0, c in wave 1.
	wantOrder := []struct {
		name string
		wave int
	}{{"a", 0}, {"b", 0}, {"c", 1}}
	for i, want := range wantOrder {
		if results[i].DT.Name != want.name || results[i].Wave != want.wave {
			t.Errorf("result %d = %s wave %d, want %s wave %d",
				i, results[i].DT.Name, results[i].Wave, want.name, want.wave)
		}
		if results[i].Err != nil {
			t.Errorf("refresh %s failed: %v", results[i].DT.Name, results[i].Err)
		}
	}
	if err := Errs(results); err != nil {
		t.Errorf("Errs = %v, want nil", err)
	}
	if got := c.Storage.RowCount(); got != 2 {
		t.Errorf("c has %d rows, want 2", got)
	}
	// c's join resolved both upstream versions at the shared data
	// timestamp — the wave barrier guarantees they exist (§5.3).
	if _, ok := a.VersionAtDataTS(at); !ok {
		t.Error("a has no version at the tick's data timestamp")
	}
}

func TestDownstreamWaveStartsAfterUpstreamEnds(t *testing.T) {
	h := newHarness(t)
	src := h.baseTable("src", "a")
	h.insert(src, t0.Add(time.Second), ints(1))
	up := h.dt("up", "SELECT a FROM src")
	down := h.dt("down", "SELECT a FROM up")

	r := New(h.ctrl, h.warehouse, h.model, 4)
	at := t0.Add(time.Minute)
	results, err := r.ExecuteTick(requests(at, down, up))
	if err != nil {
		t.Fatal(err)
	}
	var upEnd, downStart time.Time
	for _, res := range results {
		if res.DT == up {
			upEnd = res.End
		}
		if res.DT == down {
			downStart = res.Start
		}
	}
	if downStart.Before(upEnd) {
		t.Errorf("downstream started at %v before upstream finished at %v", downStart, upEnd)
	}
}

func TestWaveMakespanScalesWithWorkers(t *testing.T) {
	run := func(workers int) time.Duration {
		h := newHarness(t)
		src := h.baseTable("src", "a", "b")
		h.insert(src, t0.Add(time.Second), ints(1, 10))
		var dts []*core.DynamicTable
		for i := 0; i < 4; i++ {
			dts = append(dts, h.dt(fmt.Sprintf("s%d", i), "SELECT a, b FROM src"))
		}
		r := New(h.ctrl, h.warehouse, h.model, workers)
		at := t0.Add(time.Minute)
		results, err := r.ExecuteTick(requests(at, dts...))
		if err != nil {
			t.Fatal(err)
		}
		var last time.Time
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("refresh %s: %v", res.DT.Name, res.Err)
			}
			if res.End.After(last) {
				last = res.End
			}
		}
		return last.Sub(at)
	}
	serial := run(1)
	parallel := run(2)
	// Four 10s jobs: serial makespan 40s, two slots 20s.
	if serial != 40*time.Second {
		t.Errorf("serial makespan = %v, want 40s", serial)
	}
	if parallel != 20*time.Second {
		t.Errorf("two-worker makespan = %v, want 20s", parallel)
	}
}

func TestPanicIsolation(t *testing.T) {
	h := newHarness(t)
	src := h.baseTable("src", "a")
	h.insert(src, t0.Add(time.Second), ints(1))
	good := h.dt("good", "SELECT a FROM src")
	bad := h.dt("bad", "SELECT a FROM src")
	r := New(h.ctrl, h.warehouse, h.model, 2)
	if _, err := r.ExecuteTick(requests(t0.Add(time.Minute), good, bad)); err != nil {
		t.Fatal(err)
	}
	// A refresh that trips an internal invariant (corrupted plan state,
	// broken row encoding) panics; the worker must confine it to its DT.
	r.refreshFn = func(d *core.DynamicTable, ts time.Time) (core.RefreshRecord, error) {
		if d == bad {
			panic("invariant broken mid-refresh")
		}
		return h.ctrl.Refresh(d, ts)
	}

	h.insert(src, t0.Add(90*time.Second), ints(2))
	recorded := bad.HistoryLen()
	results, err := r.ExecuteTick(requests(t0.Add(2*time.Minute), good, bad))
	if err != nil {
		t.Fatal(err)
	}
	// The panic is recorded and counted like a returned error, so a DT
	// that panics on every tick reaches auto-suspension.
	hist := bad.History()
	if len(hist) != recorded+1 {
		t.Fatalf("the panicking refresh left %d records, want 1", len(hist)-recorded)
	}
	if last := hist[len(hist)-1]; last.Action != core.ActionError || last.Err == nil || last.Exec == nil || last.Usage == nil {
		t.Errorf("the panic's record is not a placed, metered ERROR: %+v", last)
	}
	if n := bad.ErrorCount(); n != 1 {
		t.Errorf("error streak after the panic = %d, want 1", n)
	}
	var goodRes, badRes *Result
	for i := range results {
		switch results[i].DT {
		case good:
			goodRes = &results[i]
		case bad:
			badRes = &results[i]
		}
	}
	if goodRes == nil || goodRes.Err != nil {
		t.Fatalf("sibling refresh should survive a panic next door: %+v", goodRes)
	}
	if badRes == nil || !badRes.Panicked || badRes.Err == nil {
		t.Fatalf("panicking refresh should surface as an isolated error: %+v", badRes)
	}
	if agg := Errs(results); agg == nil || !strings.Contains(agg.Error(), "bad") {
		t.Errorf("aggregated error should name the failed DT: %v", agg)
	}
}

func TestTransientFailureRetriesOnce(t *testing.T) {
	h := newHarness(t)
	src := h.baseTable("src", "a")
	h.insert(src, t0.Add(time.Second), ints(1))
	dt := h.dt("d", "SELECT a FROM src")

	r := New(h.ctrl, h.warehouse, h.model, 1)
	if _, err := r.ExecuteTick(requests(t0.Add(time.Minute), dt)); err != nil {
		t.Fatal(err)
	}

	var calls int
	r.refreshFn = func(d *core.DynamicTable, ts time.Time) (core.RefreshRecord, error) {
		calls++
		if calls == 1 {
			return core.RefreshRecord{DataTS: ts, Action: core.ActionError},
				fmt.Errorf("merge: %w", txn.ErrConflict)
		}
		return h.ctrl.Refresh(d, ts)
	}
	h.insert(src, t0.Add(90*time.Second), ints(2))
	results, err := r.ExecuteTick(requests(t0.Add(2*time.Minute), dt))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("expected exactly one retry, got %d calls", calls)
	}
	if !results[0].Retried || results[0].Err != nil {
		t.Fatalf("retried refresh should succeed: %+v", results[0])
	}

	// A persistent transient failure is retried once, then reported.
	calls = 0
	r.refreshFn = func(d *core.DynamicTable, ts time.Time) (core.RefreshRecord, error) {
		calls++
		return core.RefreshRecord{DataTS: ts, Action: core.ActionError},
			fmt.Errorf("merge: %w", txn.ErrConflict)
	}
	results, err = r.ExecuteTick(requests(t0.Add(3*time.Minute), dt))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("persistent failure should attempt exactly twice, got %d", calls)
	}
	if results[0].Err == nil || !results[0].Retried {
		t.Fatalf("persistent transient failure should surface after retry: %+v", results[0])
	}

	// Non-transient failures are not retried.
	calls = 0
	r.refreshFn = func(d *core.DynamicTable, ts time.Time) (core.RefreshRecord, error) {
		calls++
		return core.RefreshRecord{DataTS: ts, Action: core.ActionError}, errors.New("permanent")
	}
	if _, err := r.ExecuteTick(requests(t0.Add(4*time.Minute), dt)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("permanent failure should not retry, got %d calls", calls)
	}
}

func TestCycleDetection(t *testing.T) {
	h := newHarness(t)
	src := h.baseTable("src", "a")
	h.insert(src, t0.Add(time.Second), ints(1))
	h.baseTable("ta", "a")
	h.baseTable("tb", "a")
	a := h.dt("a", "SELECT a FROM ta")
	b := h.dt("b", "SELECT a FROM tb")
	// Rewire the resolver and the entries so a reads b and b reads a: a
	// dependency cycle the catalog would normally reject.
	h.sources["TA"].Table = b.Storage
	h.sources["TB"].Table = a.Storage
	h.byEntry[h.sources["TA"].EntryID] = b
	h.byEntry[h.sources["TB"].EntryID] = a

	r := New(h.ctrl, h.warehouse, h.model, 2)
	if _, err := r.ExecuteTick(requests(t0.Add(time.Minute), a, b)); err == nil {
		t.Fatal("expected cycle error")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestQuiesceBlocksTicksUntilResume(t *testing.T) {
	h := newHarness(t)
	src := h.baseTable("src", "a")
	h.insert(src, t0.Add(time.Second), ints(1))
	dt := h.dt("d", "SELECT a FROM src")

	r := New(h.ctrl, h.warehouse, h.model, 1)
	r.Quiesce()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := r.ExecuteTick(requests(t0.Add(time.Minute), dt)); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
		t.Fatal("tick ran while quiesced")
	case <-time.After(20 * time.Millisecond):
	}
	r.Resume()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tick did not resume")
	}
	if !dt.Initialized() {
		t.Error("refresh did not run after resume")
	}
}

func TestConcurrentTicksDistinctDTsUnderRace(t *testing.T) {
	h := newHarness(t)
	src := h.baseTable("src", "a", "b")
	h.insert(src, t0.Add(time.Second), ints(1, 10), ints(2, 20))
	var dts []*core.DynamicTable
	for i := 0; i < 6; i++ {
		dts = append(dts, h.dt(fmt.Sprintf("w%d", i), "SELECT a, b FROM src"))
	}
	r := New(h.ctrl, h.warehouse, h.model, 4)
	if _, err := r.ExecuteTick(requests(t0.Add(time.Minute), dts...)); err != nil {
		t.Fatal(err)
	}

	// Two concurrent ticks over disjoint DT sets: the -race build audits
	// controller registry, frontier and warehouse state.
	h.insert(src, t0.Add(90*time.Second), ints(3, 30))
	var wg sync.WaitGroup
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			var mine []*core.DynamicTable
			for i, dt := range dts {
				if i%2 == part {
					mine = append(mine, dt)
				}
			}
			results, err := r.ExecuteTick(requests(t0.Add(2*time.Minute), mine...))
			if err != nil {
				t.Error(err)
				return
			}
			if err := Errs(results); err != nil {
				t.Error(err)
			}
		}(part)
	}
	wg.Wait()
	for _, dt := range dts {
		if got := dt.Storage.RowCount(); got != 3 {
			t.Errorf("%s has %d rows, want 3", dt.Name, got)
		}
	}
}

func TestDeterministicVirtualTimes(t *testing.T) {
	run := func() []string {
		h := newHarness(t)
		src := h.baseTable("src", "a", "b")
		h.insert(src, t0.Add(time.Second), ints(1, 10))
		var dts []*core.DynamicTable
		for i := 0; i < 8; i++ {
			dts = append(dts, h.dt(fmt.Sprintf("s%d", i), "SELECT a, b FROM src"))
		}
		rollup := h.dt("zz_rollup", "SELECT a FROM s0")
		r := New(h.ctrl, h.warehouse, h.model, 3)
		results, err := r.ExecuteTick(requests(t0.Add(time.Minute), append(dts, rollup)...))
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, res := range results {
			lines = append(lines, fmt.Sprintf("%s wave=%d start=%s end=%s",
				res.DT.Name, res.Wave, res.Start.Format(time.RFC3339), res.End.Format(time.RFC3339)))
		}
		return lines
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); strings.Join(got, "\n") != strings.Join(first, "\n") {
			t.Fatalf("virtual-time accounting is nondeterministic:\n%v\nvs\n%v", first, got)
		}
	}
}
