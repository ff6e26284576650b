package sched

import (
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
	"dyntables/internal/refresher"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/txn"
	"dyntables/internal/types"
	"dyntables/internal/warehouse"
)

func TestCanonicalPeriods(t *testing.T) {
	cases := []struct {
		lag  time.Duration
		want time.Duration
	}{
		{time.Minute, 48 * time.Second},       // budget 30s -> floor 48s
		{2 * time.Minute, 48 * time.Second},   // budget 60s
		{4 * time.Minute, 96 * time.Second},   // budget 120s
		{10 * time.Minute, 192 * time.Second}, // budget 300s -> 48*4=192
		{time.Hour, 1536 * time.Second},       // budget 1800s -> 48*32=1536
		{16 * time.Hour, 24576 * time.Second}, // 48*512
		{NoLag, NoLag},
	}
	for _, tc := range cases {
		got := CanonicalPeriod(tc.lag)
		if got != tc.want {
			t.Errorf("CanonicalPeriod(%v) = %v, want %v", tc.lag, got, tc.want)
		}
	}
}

func TestCanonicalPeriodsArePowersOfTwoMultiples(t *testing.T) {
	// Any two canonical periods divide each other, which is what aligns
	// data timestamps across a DT graph (§5.2).
	lags := []time.Duration{time.Minute, 5 * time.Minute, time.Hour, 8 * time.Hour, 24 * time.Hour}
	periods := make([]time.Duration, len(lags))
	for i, l := range lags {
		periods[i] = CanonicalPeriod(l)
	}
	for i := 0; i < len(periods); i++ {
		for j := i + 1; j < len(periods); j++ {
			a, b := periods[i], periods[j]
			if a > b {
				a, b = b, a
			}
			if b%a != 0 {
				t.Errorf("periods %v and %v do not align", periods[i], periods[j])
			}
		}
	}
}

func TestCanonicalPeriodAtMostHalfTargetLag(t *testing.T) {
	// Peak lag = p + w + d < t requires headroom beyond the period.
	for _, lag := range []time.Duration{2 * time.Minute, 7 * time.Minute, 3 * time.Hour, 26 * time.Hour} {
		p := CanonicalPeriod(lag)
		if p > lag/2 && p != MinCanonicalPeriod {
			t.Errorf("period %v exceeds half the target lag %v", p, lag)
		}
	}
}

func TestCanonicalPeriodSubSecondAndEdgeLags(t *testing.T) {
	cases := []struct {
		lag  time.Duration
		want time.Duration
	}{
		// Sub-second and sub-minimum lags clamp to the 48s floor: the
		// canonical grid has no finer period (§5.2).
		{time.Millisecond, MinCanonicalPeriod},
		{time.Second, MinCanonicalPeriod},
		{47 * time.Second, MinCanonicalPeriod},
		{0, MinCanonicalPeriod},
		{95 * time.Second, MinCanonicalPeriod}, // budget 47.5s, below the floor
		// Exact period-class boundaries: budget = lag/2 must reach the
		// next 48·2ⁿ step exactly, one nanosecond less must not.
		{96 * time.Second, 48 * time.Second},
		{192 * time.Second, 96 * time.Second},
		{192*time.Second - time.Nanosecond, 48 * time.Second},
		{384 * time.Second, 192 * time.Second},
		// Non-divisor lags land on the largest period that fits the
		// half-lag budget.
		{7 * time.Minute, 192 * time.Second},    // budget 210s
		{11 * time.Minute, 192 * time.Second},   // budget 330s: 48·4 fits, 48·8 does not
		{13 * time.Minute, 384 * time.Second},   // budget 390s
		{100 * time.Minute, 1536 * time.Second}, // budget 3000s
	}
	for _, tc := range cases {
		got := CanonicalPeriod(tc.lag)
		if got != tc.want {
			t.Errorf("CanonicalPeriod(%v) = %v, want %v", tc.lag, got, tc.want)
		}
	}
}

func TestCanonicalPeriodIsOnTheGrid(t *testing.T) {
	for lag := time.Second; lag < 48*time.Hour; lag = lag*3/2 + time.Second {
		p := CanonicalPeriod(lag)
		if p >= NoLag {
			t.Fatalf("finite lag %v produced NoLag period", lag)
		}
		// p must be 48·2ⁿ for some n ≥ 0.
		q := p
		for q > MinCanonicalPeriod {
			if q%2 != 0 {
				break
			}
			q /= 2
		}
		if q != MinCanonicalPeriod {
			t.Errorf("CanonicalPeriod(%v) = %v is not on the 48·2ⁿ grid", lag, p)
		}
	}
}

// dtHarness builds DTs against a real controller without the engine, so
// scheduler graph resolution (EffectiveLag, waves) can be tested on
// arbitrary DAG shapes.
type dtHarness struct {
	t       *testing.T
	clk     *clock.Virtual
	ctrl    *core.Controller
	wh      *warehouse.Warehouse
	sources map[string]*plan.Source
	nextID  int64
	// dts are the harness's DTs, which the schedulers under test list;
	// byEntry maps each one's entry ID to it, as the catalog would.
	dts     []*core.DynamicTable
	byEntry map[int64]*core.DynamicTable
}

func newDTHarness(t *testing.T) *dtHarness {
	h := &dtHarness{
		t:       t,
		clk:     clock.NewVirtual(schedT0),
		wh:      warehouse.New("wh", warehouse.SizeXSmall, time.Minute),
		sources: map[string]*plan.Source{},
		byEntry: map[int64]*core.DynamicTable{},
	}
	h.ctrl = core.NewController(txn.NewManager(h.clk), h, h.entry, h.ddlSeq)
	return h
}

var schedT0 = time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC)

// ddlSeq stands in for the catalog's DDL sequence: every source added is
// one DDL statement.
func (h *dtHarness) ddlSeq() int64 { return h.nextID }

// entry stands in for the catalog's entry lookup.
func (h *dtHarness) entry(id int64) (int64, *core.DynamicTable, error) {
	return 1, h.byEntry[id], nil
}

// list stands in for the catalog's list of live DTs.
func (h *dtHarness) list() []*core.DynamicTable { return h.dts }

// warehouse stands in for the engine's warehouse lookup: every DT names
// the one warehouse wh.
func (h *dtHarness) warehouse(name string) (*warehouse.Warehouse, error) {
	if name != h.wh.Name {
		return nil, fmt.Errorf("no such warehouse %q", name)
	}
	return h.wh, nil
}

// refresher builds a refresh executor billing the harness's warehouse.
func (h *dtHarness) refresher(model warehouse.CostModel, workers int) *refresher.Refresher {
	return refresher.New(h.ctrl, h.warehouse, model, workers)
}

// scheduler builds a scheduler over the harness's DTs with a serial
// refresh executor.
func (h *dtHarness) scheduler(model warehouse.CostModel) *Scheduler {
	return New(h.clk, h.ctrl, h.list, h.refresher(model, 1), schedT0, 0)
}

func (h *dtHarness) ResolveTable(name string) (*plan.Source, error) {
	src, ok := h.sources[strings.ToUpper(name)]
	if !ok {
		return nil, fmt.Errorf("no such table %q", name)
	}
	return src, nil
}

func (h *dtHarness) addSource(name string, kind catalog.ObjectKind, tb *storage.Table) {
	h.nextID++
	h.sources[strings.ToUpper(name)] = &plan.Source{
		EntryID: h.nextID, Generation: 1, Name: name, Kind: kind, Table: tb,
	}
}

func (h *dtHarness) baseTable(name string) *storage.Table {
	schema := types.Schema{Columns: []types.Column{{Name: "a", Kind: types.KindInt}}}
	tb := storage.NewTable(schema, hlc.Timestamp{WallMicros: schedT0.UnixMicro()})
	h.addSource(name, catalog.KindTable, tb)
	return tb
}

func (h *dtHarness) dt(name, text string, lag sql.TargetLag) *core.DynamicTable {
	h.t.Helper()
	bound, mode, err := h.ctrl.Build(&sql.CreateDynamicTableStmt{
		Name: name, Text: text, Warehouse: "wh", Lag: lag, Mode: sql.RefreshAuto,
	})
	if err != nil {
		h.t.Fatalf("build %s: %v", name, err)
	}
	dt := core.NewDynamicTable(name, text, lag, "wh", sql.RefreshAuto, mode,
		storage.NewTable(bound.Plan.Schema(), hlc.Timestamp{WallMicros: schedT0.UnixMicro()}))
	h.ctrl.Adopt(dt)
	h.addSource(name, catalog.KindDynamicTable, dt.Storage)
	h.dts = append(h.dts, dt)
	h.byEntry[h.nextID] = dt
	return dt
}

func lagOf(d time.Duration) sql.TargetLag {
	return sql.TargetLag{Kind: sql.LagDuration, Duration: d}
}

var downstreamLag = sql.TargetLag{Kind: sql.LagDownstream}

func TestEffectiveLagDiamond(t *testing.T) {
	h := newDTHarness(t)
	h.baseTable("src")
	a := h.dt("a", "SELECT a FROM src", downstreamLag)
	b := h.dt("b", "SELECT a FROM a", downstreamLag)
	c := h.dt("c", "SELECT a FROM a", downstreamLag)
	d := h.dt("d", "SELECT x.a FROM b x JOIN c y ON x.a = y.a", lagOf(10*time.Minute))

	s := h.scheduler(warehouse.DefaultCostModel)

	// The sink's lag flows up both branches of the diamond to the apex.
	for _, dt := range []*core.DynamicTable{a, b, c, d} {
		if got := s.EffectiveLag(dt); got != 10*time.Minute {
			t.Errorf("EffectiveLag(%s) = %v, want 10m", dt.Name, got)
		}
	}
	// All four share one canonical period, so their timestamps align.
	for _, dt := range []*core.DynamicTable{a, b, c, d} {
		if got := s.Period(dt); got != CanonicalPeriod(10*time.Minute) {
			t.Errorf("Period(%s) = %v, want %v", dt.Name, got, CanonicalPeriod(10*time.Minute))
		}
	}
}

func TestEffectiveLagDiamondMixedBranches(t *testing.T) {
	h := newDTHarness(t)
	h.baseTable("src")
	a := h.dt("a", "SELECT a FROM src", downstreamLag)
	b := h.dt("b", "SELECT a FROM a", lagOf(30*time.Minute)) // own lag beats propagation
	c := h.dt("c", "SELECT a FROM a", downstreamLag)
	h.dt("d", "SELECT x.a FROM b x JOIN c y ON x.a = y.a", lagOf(10*time.Minute))

	s := h.scheduler(warehouse.DefaultCostModel)
	if got := s.EffectiveLag(b); got != 30*time.Minute {
		t.Errorf("EffectiveLag(b) = %v, want its own 30m", got)
	}
	if got := s.EffectiveLag(c); got != 10*time.Minute {
		t.Errorf("EffectiveLag(c) = %v, want 10m from d", got)
	}
	// The apex takes the minimum across both branches: 30m via b, 10m via
	// c's DOWNSTREAM propagation.
	if got := s.EffectiveLag(a); got != 10*time.Minute {
		t.Errorf("EffectiveLag(a) = %v, want 10m", got)
	}
}

func TestEffectiveLagDownstreamSinkHasNoLag(t *testing.T) {
	h := newDTHarness(t)
	h.baseTable("src")
	a := h.dt("a", "SELECT a FROM src", downstreamLag)
	s := h.scheduler(warehouse.DefaultCostModel)
	if got := s.EffectiveLag(a); got != NoLag {
		t.Errorf("DOWNSTREAM DT with no dependents should have NoLag, got %v", got)
	}
}

func TestAccessorsAreDefensiveCopiesUnderConcurrentTicks(t *testing.T) {
	h := newDTHarness(t)
	src := h.baseTable("src")
	dt := h.dt("d", "SELECT a FROM src", lagOf(2*time.Minute))

	s := h.scheduler(warehouse.CostModel{Fixed: time.Second, PerRow: time.Millisecond})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Monitoring reader: hammers every accessor and mutates the returned
	// values, which would corrupt scheduler state if they aliased it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			st.Scheduled = -1
			_ = s.EffectiveLag(dt)
			_ = s.Period(dt)
			series := dt.LagSeries()
			for i := range series {
				series[i].Peak = -1
			}
		}
	}()

	for i := 1; i <= 30; i++ {
		var cs delta.ChangeSet
		cs.AddInsert(src.NextRowID(), types.Row{types.NewInt(int64(i))})
		at := schedT0.Add(time.Duration(i) * time.Minute)
		if _, err := src.Apply(cs, hlc.Timestamp{WallMicros: at.UnixMicro()}); err != nil {
			t.Fatal(err)
		}
		h.clk.AdvanceTo(at)
		if err := s.RunUntil(at); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	stats := s.Stats()
	if stats.Scheduled <= 0 || stats.Scheduled == -1 {
		t.Errorf("reader mutation leaked into scheduler stats: %+v", stats)
	}
	series := dt.LagSeries()
	if len(series) == 0 {
		t.Fatal("no lag points recorded")
	}
	for _, p := range series {
		if p.DTName != "d" || p.Peak < 0 || p.Trough < 0 {
			t.Fatalf("bad lag point: %+v", p)
		}
	}
}

func TestMonitoringAccessorsReturnMidWave(t *testing.T) {
	// Regression: fireAt used to hold the scheduler mutex across the whole
	// wave, so Stats stalled for the wave makespan. A
	// quiesced refresher stalls ExecuteTick indefinitely — the accessors
	// must still return while the wave is (apparently) running.
	h := newDTHarness(t)
	src := h.baseTable("src")
	dt := h.dt("d", "SELECT a FROM src", lagOf(2*time.Minute))

	var cs delta.ChangeSet
	cs.AddInsert(src.NextRowID(), types.Row{types.NewInt(1)})
	at := schedT0.Add(10 * time.Second)
	if _, err := src.Apply(cs, hlc.Timestamp{WallMicros: at.UnixMicro()}); err != nil {
		t.Fatal(err)
	}

	r := h.refresher(warehouse.DefaultCostModel, 1)
	s := New(h.clk, h.ctrl, h.list, r, schedT0, 0)

	r.Quiesce() // the next ExecuteTick blocks until Resume
	done := make(chan error, 1)
	go func() { done <- s.RunUntil(schedT0.Add(5 * time.Minute)) }()

	// The policy pass precedes execution, so Scheduled turning positive
	// means the tick has started; from then on the wave is stalled inside
	// ExecuteTick. Stats itself is the call under test, so poll it with a
	// watchdog instead of sleeping blindly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		statsc := make(chan Stats, 1)
		go func() { statsc <- s.Stats() }()
		var st Stats
		select {
		case st = <-statsc:
		case <-time.After(5 * time.Second):
			t.Fatal("Stats blocked during a stalled wave")
		}
		if st.Scheduled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tick never reached its policy pass")
		}
		time.Sleep(time.Millisecond)
	}

	// Every other monitoring accessor must stay responsive mid-wave too.
	acc := make(chan struct{})
	go func() {
		_ = s.EffectiveLag(dt)
		_ = s.Period(dt)
		_ = s.Cursor()
		close(acc)
	}()
	select {
	case <-acc:
	case <-time.After(5 * time.Second):
		t.Fatal("monitoring accessors blocked during a stalled wave")
	}

	r.Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Initialize+st.Incremental+st.Full == 0 {
		t.Errorf("stalled wave never completed after Resume: %+v", st)
	}
}

// TestRegistryListReadEachPass checks that the scheduler keeps no DT set
// of its own: a DT its list stops returning (DROP) is not refreshed, and
// one the list returns again (UNDROP) is, with no call on the scheduler.
func TestRegistryListReadEachPass(t *testing.T) {
	h := newDTHarness(t)
	src := h.baseTable("src")
	dt := h.dt("d", "SELECT a FROM src", lagOf(2*time.Minute))
	s := h.scheduler(warehouse.DefaultCostModel)

	at := schedT0.Add(5 * time.Minute)
	var cs delta.ChangeSet
	cs.AddInsert(src.NextRowID(), types.Row{types.NewInt(1)})
	if _, err := src.Apply(cs, hlc.Timestamp{WallMicros: schedT0.Add(time.Second).UnixMicro()}); err != nil {
		t.Fatal(err)
	}
	h.dts = nil
	if err := s.RunUntil(at); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Scheduled != 0 || len(dt.History()) != 0 {
		t.Fatalf("a DT the list no longer returns was scheduled: %+v", st)
	}

	h.dts = []*core.DynamicTable{dt}
	if err := s.RunUntil(at.Add(5 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Scheduled == 0 || st.Initialize != 1 {
		t.Fatalf("a DT the list returns again was not refreshed: %+v", st)
	}
}
