package core

import (
	"errors"
	"testing"
	"time"

	"dyntables/internal/catalog"
	"dyntables/internal/clock"
	"dyntables/internal/hlc"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/trace"
	"dyntables/internal/txn"
	"dyntables/internal/types"
)

// planCacheFixture is a controller over one base table, src, whose
// resolver fails while fail is set, and a DT reading src.
type planCacheFixture struct {
	ctrl *Controller
	src  *storage.Table
	dt   *DynamicTable
	seq  int64
	fail bool
}

func newPlanCacheFixture(t *testing.T) *planCacheFixture {
	t0 := time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC)
	f := &planCacheFixture{}
	schema := types.Schema{Columns: []types.Column{{Name: "a", Kind: types.KindInt}}}
	f.src = storage.NewTable(schema, hlc.Timestamp{WallMicros: t0.UnixMicro()})
	resolve := plan.ResolverFunc(func(name string) (*plan.Source, error) {
		if f.fail {
			return nil, errors.New("src does not resolve")
		}
		return &plan.Source{EntryID: 1, Generation: 1, Name: name, Kind: catalog.KindTable, Table: f.src}, nil
	})
	f.ctrl = NewController(txn.NewManager(clock.NewVirtual(t0)), resolve,
		func(int64) (int64, *DynamicTable, error) { return 1, nil, nil }, func() int64 { return f.seq })
	f.ctrl.Tracer = trace.NewRecorder(0, 0)
	f.dt = NewDynamicTable("d", "SELECT a FROM src", sql.TargetLag{Kind: sql.LagDuration, Duration: time.Minute},
		"wh", sql.RefreshAuto, sql.RefreshIncremental, storage.NewTable(schema, hlc.Timestamp{}))
	return f
}

func (f *planCacheFixture) compiled(t *testing.T) *compiledPlan {
	t.Helper()
	cp, err := f.ctrl.compiled(f.dt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestPlanCacheRebuildsOnlyWhenStale(t *testing.T) {
	f := newPlanCacheFixture(t)
	first := f.compiled(t)
	if again := f.compiled(t); again != first {
		t.Fatal("an unchanged DDL sequence and schema rebuilt the plan")
	}
	if first.fingerprint != first.bound.Plan.Schema().String() {
		t.Fatalf("fingerprint %q is not the output schema", first.fingerprint)
	}

	f.seq++
	moved := f.compiled(t)
	if moved == first {
		t.Fatal("a moved DDL sequence kept the plan")
	}

	f.src.SetSchema(types.Schema{Columns: []types.Column{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}}})
	widened := f.compiled(t)
	if widened == moved {
		t.Fatal("a scanned table's schema change kept the plan")
	}
	if f.compiled(t) != widened {
		t.Fatal("the rebuilt plan was rebuilt again")
	}
}

func TestPlanCacheKeepsNoError(t *testing.T) {
	f := newPlanCacheFixture(t)
	f.fail = true
	if _, err := f.ctrl.compiled(f.dt, nil); err == nil {
		t.Fatal("bind over an unresolvable table succeeded")
	}
	if f.dt.compiled != nil {
		t.Fatal("a failed bind left a plan behind")
	}
	f.fail = false // resolves again, with no DDL
	if _, err := f.ctrl.compiled(f.dt, nil); err != nil {
		t.Fatalf("bind at the same DDL sequence returned the old error: %v", err)
	}
}

// TestPlanCacheBindSpans checks that each rebuild records one bind span,
// under the refresh root that asked for it or as a root of its own, and a
// reuse records none.
func TestPlanCacheBindSpans(t *testing.T) {
	f := newPlanCacheFixture(t)
	root := f.ctrl.Tracer.StartRoot("refresh", trace.A("dt", "d"))
	if _, err := f.ctrl.compiled(f.dt, root); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ctrl.compiled(f.dt, root); err != nil {
		t.Fatal(err)
	}
	f.ctrl.Tracer.FinishRoot(root)
	f.seq++
	f.compiled(t)
	f.compiled(t)

	var binds []trace.Record
	for _, rec := range f.ctrl.Tracer.Snapshot() {
		if rec.Name == "bind" {
			binds = append(binds, rec)
		}
	}
	if len(binds) != 2 {
		t.Fatalf("%d bind spans over two rebuilds: %+v", len(binds), binds)
	}
	if binds[0].Parent != root.RootID() {
		t.Errorf("a refresh's rebuild is not under its root: %+v", binds[0])
	}
	if b := binds[1]; b.Parent != 0 || len(b.Attrs) != 1 || b.Attrs[0] != trace.A("dt", "d") {
		t.Errorf("a rebuild outside a refresh is not a root naming the DT: %+v", b)
	}
}

// TestRegistryUpstreamsResolveOncePerBind checks that a plan's upstream
// DTs come from the catalog entries of its scans, looked up when the plan
// is bound and not on each Upstreams call, and that an entry counts as an
// upstream DT only when the DT it holds is the scanned table.
func TestRegistryUpstreamsResolveOncePerBind(t *testing.T) {
	t0 := time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC)
	schema := types.Schema{Columns: []types.Column{{Name: "a", Kind: types.KindInt}}}
	lag := sql.TargetLag{Kind: sql.LagDuration, Duration: time.Minute}
	newDT := func(name, text string) *DynamicTable {
		return NewDynamicTable(name, text, lag, "wh", sql.RefreshAuto, sql.RefreshIncremental,
			storage.NewTable(schema, hlc.Timestamp{}))
	}
	up := newDT("u", "SELECT a FROM base")
	down := newDT("d", "SELECT a FROM u")
	held := up // the DT entry 2 holds
	var seq int64
	lookups := 0
	resolve := plan.ResolverFunc(func(name string) (*plan.Source, error) {
		return &plan.Source{EntryID: 2, Generation: 1, Name: name, Kind: catalog.KindDynamicTable, Table: up.Storage}, nil
	})
	ctrl := NewController(txn.NewManager(clock.NewVirtual(t0)), resolve,
		func(id int64) (int64, *DynamicTable, error) {
			lookups++
			if id != 2 {
				return 0, nil, errors.New("no such entry")
			}
			return 1, held, nil
		}, func() int64 { return seq })

	for i := 0; i < 3; i++ {
		ups, err := ctrl.Upstreams(down)
		if err != nil {
			t.Fatal(err)
		}
		if len(ups) != 1 || ups[0] != up {
			t.Fatalf("Upstreams(d) = %v, want [u]", ups)
		}
	}
	if lookups != 1 {
		t.Fatalf("%d entry lookups over three Upstreams calls at one DDL sequence, want 1", lookups)
	}

	// The entry now holds a DT whose contents are another table: the scan
	// reads no upstream DT.
	held = newDT("other", "SELECT a FROM base")
	seq++
	if ups, err := ctrl.Upstreams(down); err != nil || len(ups) != 0 {
		t.Fatalf("Upstreams(d) = %v, %v after the entry changed, want none", ups, err)
	}
}
