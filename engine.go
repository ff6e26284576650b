// Package dyntables is an embedded analytical database with Dynamic
// Tables: declarative, incrementally maintained materialized tables with
// delayed view semantics, as described in "Streaming Democratized: Ease
// Across the Latency Spectrum with Delayed View Semantics and Snowflake
// Dynamic Tables" (SIGMOD-Companion 2025).
//
// The engine executes a SQL dialect covering DDL (CREATE [OR REPLACE]
// [DYNAMIC] TABLE / VIEW / WAREHOUSE, DROP/UNDROP, ALTER), DML (INSERT,
// UPDATE, DELETE) and queries (SELECT with joins, grouped aggregation,
// window functions, UNION ALL, LATERAL FLATTEN and variant path access).
// Dynamic tables refresh automatically under a target lag via the
// scheduler, incrementally when the defining query is incrementalizable.
//
// Work happens through sessions, which carry per-session state (role,
// bind parameters) and are cheap to create — one per goroutine, one per
// request, as needed. An Engine is safe for concurrent use across
// sessions: queries and DML run in parallel, serializing against DDL
// only. A quickstart:
//
//	eng := dyntables.New()
//	sess := eng.NewSession()
//	ctx := context.Background()
//	sess.MustExec(`CREATE TABLE events (id INT, payload VARIANT)`)
//	sess.MustExec(`CREATE WAREHOUSE wh`)
//	sess.MustExec(`CREATE DYNAMIC TABLE totals TARGET_LAG = '1 minute' WAREHOUSE = wh
//	               AS SELECT id, count(*) c FROM events GROUP BY id`)
//	sess.ExecContext(ctx, `INSERT INTO events VALUES (?, ?)`, 1, `{"x": 1}`)
//	eng.AdvanceTime(2 * time.Minute)
//	eng.RunScheduler()
//	rows, _ := sess.QueryContext(ctx, `SELECT * FROM totals WHERE id = :id`,
//	                             dyntables.Named("id", 1))
//	defer rows.Close()
//	for rows.Next() {
//	    var id, c int64
//	    rows.Scan(&id, &c)
//	}
//
// Statements take `?` (positional) and `:name` (named) placeholders;
// Prepare parses once for repeated execution. QueryContext returns a
// streaming Rows cursor that honors context cancellation mid-scan. The
// Engine-level Exec/Query/MustExec helpers remain as thin wrappers over a
// default session.
//
// By default the engine runs on a deterministic virtual clock advanced
// with AdvanceTime; pass WithWallClock to track real time instead.
package dyntables

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dyntables/internal/adaptive"
	"dyntables/internal/alert"
	"dyntables/internal/catalog"
	"dyntables/internal/clock"
	"dyntables/internal/core"
	"dyntables/internal/health"
	"dyntables/internal/obs"
	"dyntables/internal/plan"
	"dyntables/internal/refresher"
	"dyntables/internal/sched"
	"dyntables/internal/storage"
	"dyntables/internal/trace"
	"dyntables/internal/txn"
	"dyntables/internal/warehouse"
)

// DefaultOrigin is the virtual clock's start time.
var DefaultOrigin = time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC)

// Engine is an embedded database instance. Engines are safe for
// concurrent use: create one Session per goroutine with NewSession and
// issue statements through it. Queries and DML from different sessions
// run in parallel; DDL takes an exclusive statement lock so readers never
// observe half-applied catalog changes.
type Engine struct {
	vclk  *clock.Virtual
	clk   clock.Clock
	txns  *txn.Manager
	cat   *catalog.Catalog
	ctrl  *core.Controller
	sch   *sched.Scheduler
	refr  *refresher.Refresher
	model warehouse.CostModel
	cfg   Config
	// rec is the observability recorder (bounded graph-edge, statement,
	// request and alert rings); virt layers INFORMATION_SCHEMA virtual
	// tables over the catalog resolver so the recorder, and the DTs'
	// refresh records, are queryable through the normal planner.
	rec  *obs.Recorder
	virt *plan.VirtualResolver
	// trc is the execution-span recorder behind
	// INFORMATION_SCHEMA.TRACE_SPANS: statements, refreshes, scheduler
	// ticks and checkpoints each publish one bounded root trace.
	trc *trace.Recorder
	// startedAt is the host wall-clock construction instant, for /metrics
	// and /v1/status uptime.
	startedAt time.Time
	// sessSeq assigns engine-unique session IDs for QUERY_HISTORY.
	sessSeq atomic.Int64
	// schPhase is the account-wide canonical-period phase (§5.2).
	schPhase time.Duration

	// stmtMu serializes DDL (writers) against queries, DML and refreshes
	// (readers); parallel readers proceed without blocking one another.
	stmtMu sync.RWMutex
	// def is the default session backing the legacy Engine-level
	// Exec/Query/SetRole helpers.
	def *Session
	// cursors counts open Rows cursors, for leak detection.
	cursors atomic.Int64

	// healthMu guards healthPrev, the status the last health evaluation
	// produced for each DT that then existed — the evaluator's
	// flapping-hysteresis memory.
	healthMu   sync.Mutex
	healthPrev map[*core.DynamicTable]health.Status

	// alertMu guards the watchdog registry: declared alerts plus their
	// firing/resolved evaluation state. Alert conditions evaluate through
	// ordinary sessions (statement readers), so the registry has its own
	// small lock instead of riding stmtMu.
	alertMu sync.Mutex
	alerts  map[string]*alertEntry
	// alertNotifier delivers webhook actions; tests swap its Post hook
	// via SetWebhookPoster.
	alertNotifier *alert.Notifier

	// compactionHorizon is the live COMPACTION_HORIZON setting (see
	// Config.CompactionHorizon). Written under the exclusive statement
	// lock (construction, ALTER SYSTEM); read by the compaction sweep,
	// which also holds it exclusively.
	compactionHorizon int

	// keysMu guards the stable table-key registry. Storage IDs are
	// process-local, so every catalog-reachable storage table also gets a
	// key that DDL records assign and that WAL records and checkpoints
	// name it by.
	keysMu         sync.Mutex
	keyByStorageID map[int64]int64
	tableByKey     map[int64]*storage.Table
	nextKey        int64

	// pers is the durability layer; nil for in-memory engines (New).
	pers *persister
	// checkpointEvery is the WAL-record count that triggers a snapshot
	// checkpoint.
	checkpointEvery int
	// closed marks a closed engine; statements fail afterwards.
	closed atomic.Bool
	// sessions tracks live sessions so Close can invalidate their
	// prepared statements.
	sessMu   sync.Mutex
	sessions map[*Session]struct{}
}

// Config bundles the engine's execution tuning knobs. The zero value
// reproduces the classic fully serial engine.
type Config struct {
	// RefreshWorkers is the width of the scheduler's refresh worker
	// pool: how many DT refreshes of one dependency wave execute
	// concurrently, and how many concurrency slots each warehouse
	// offers the cost model. 0 (or 1) runs refreshes serially — the
	// deterministic default — and a negative value derives the width
	// from the host (GOMAXPROCS). Adjustable at runtime with
	// `ALTER SYSTEM SET REFRESH_WORKERS = n`.
	RefreshWorkers int
	// HistoryCapacity bounds the history rings: each DT's refresh
	// history (behind Describe, DYNAMIC_TABLE_REFRESH_HISTORY and the
	// lag, resource, warehouse-metering and health rows derived from
	// it) and the observability recorder's rings (the graph-edge log,
	// statements, requests and alerts). 0 uses the default
	// (1024 entries per ring); a negative value disables the recorder
	// and tracing (overhead baselines) while each DT keeps its refresh
	// history at the default bound.
	// `ALTER SYSTEM SET HISTORY_CAPACITY = n` rebounds the rings at
	// runtime and re-enables recording on a disabled engine.
	HistoryCapacity int
	// AdaptiveWindow configures the per-refresh REFRESH_MODE=AUTO
	// chooser (§3.3.2): 0 (the default) enables it with the default
	// smoothing window, n > 1 enables it with window n, and a negative
	// value disables it — AUTO then resolves statically to INCREMENTAL
	// whenever the defining query is incrementalizable, the pre-adaptive
	// behavior. Note the SQL gate uses on/off semantics instead:
	// `ALTER SYSTEM SET ADAPTIVE_REFRESH = 0` disables, `= 1` enables,
	// `= n` (n > 1) enables with window n.
	AdaptiveWindow int
	// DisableColumnar selects the row-at-a-time reference path: queries
	// and refresh boundary snapshots run on the row executor only. It is
	// not a tuning option — results are byte-identical either way — and
	// exists for the callers that compare against the reference path:
	// the differential harness's legacy engine (internal/difftest) and
	// BenchmarkRefreshLegacy.
	DisableColumnar bool
	// CompactionHorizon, when > 0, keeps only the last N versions of
	// every storage table readable: the scheduler's compaction sweep
	// folds older change sets into a materialized snapshot at the
	// horizon. The sweep never folds past a pinned version (an open
	// cursor) or the refresh frontier of a DT in the catalog, live or
	// dropped. 0 (the default) disables compaction and preserves
	// unbounded time travel. Adjustable at runtime with
	// `ALTER SYSTEM SET COMPACTION_HORIZON = n`.
	CompactionHorizon int
}

// resolveWorkers maps the RefreshWorkers config to a concrete pool
// width: 0 means serial, negative means host-derived.
func (c Config) resolveWorkers() int {
	switch {
	case c.RefreshWorkers == 0:
		return 1
	case c.RefreshWorkers < 0:
		return 0 // refresher.New derives from GOMAXPROCS
	default:
		return c.RefreshWorkers
	}
}

// Option configures an Engine.
type Option func(*Engine)

// WithConfig applies the engine's tuning Config.
func WithConfig(cfg Config) Option {
	return func(e *Engine) { e.cfg = cfg }
}

// WithWallClock runs the engine against real time instead of the virtual
// clock (AdvanceTime becomes a no-op).
func WithWallClock() Option {
	return func(e *Engine) {
		e.vclk = nil
		e.clk = clock.Wall{}
	}
}

// WithOrigin sets the virtual clock's start time.
func WithOrigin(t time.Time) Option {
	return func(e *Engine) {
		if e.vclk != nil {
			e.vclk = clock.NewVirtual(t)
			e.clk = e.vclk
		}
	}
}

// WithCostModel overrides the refresh cost model used for warehouse
// simulation.
func WithCostModel(m warehouse.CostModel) Option {
	return func(e *Engine) { e.model = m }
}

// WithSchedulerPhase sets the account-wide phase for canonical refresh
// periods (§5.2).
func WithSchedulerPhase(d time.Duration) Option {
	return func(e *Engine) { e.schPhase = d }
}

// WithCheckpointEvery sets how many WAL records may accumulate before a
// durable engine takes a snapshot checkpoint (default
// DefaultCheckpointEvery). Smaller values bound recovery time at the cost
// of more frequent full-state snapshots. Only meaningful with Open.
func WithCheckpointEvery(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.checkpointEvery = n
		}
	}
}

// New creates an engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		model:           warehouse.DefaultCostModel,
		checkpointEvery: DefaultCheckpointEvery,
		sessions:        make(map[*Session]struct{}),
		startedAt:       time.Now(),
		alerts:          make(map[string]*alertEntry),
		alertNotifier:   &alert.Notifier{},
		keyByStorageID:  make(map[int64]int64),
		tableByKey:      make(map[int64]*storage.Table),
	}
	e.vclk = clock.NewVirtual(DefaultOrigin)
	e.clk = e.vclk
	for _, opt := range opts {
		opt(e)
	}
	e.txns = txn.NewManager(e.clk)
	e.cat = catalog.New()
	// The controller binds against the catalog-only resolver, not the
	// virtual-table layer: defining queries may not read
	// INFORMATION_SCHEMA (directly or through a view), and a refresh
	// bind that materialized a virtual table would call back into the
	// scheduler from under its own tick lock.
	e.ctrl = core.NewController(e.txns, plan.ResolverFunc(e.resolveCatalogTable), e.catalogEntry, func() int64 {
		_, seq := e.cat.Counters()
		return seq
	})
	e.ctrl.Columnar = !e.cfg.DisableColumnar
	if e.cfg.CompactionHorizon > 0 {
		e.compactionHorizon = e.cfg.CompactionHorizon
	}
	adaptiveWindow := 0
	if e.cfg.AdaptiveWindow > 1 {
		adaptiveWindow = e.cfg.AdaptiveWindow
	}
	e.ctrl.Adaptive = adaptive.New(adaptive.Config{Window: adaptiveWindow})
	if e.cfg.AdaptiveWindow < 0 {
		e.ctrl.Adaptive.SetEnabled(false)
	}
	e.refr = refresher.New(e.ctrl, e.Warehouse, e.model, e.cfg.resolveWorkers())
	e.sch = sched.New(e.vclk, e.ctrl, e.sortedDTs, e.refr, e.clk.Now(), e.schPhase)
	e.initObservability()
	e.def = e.NewSession()
	return e
}

// Refresher exposes the refresh-execution backend (worker-pool width,
// quiesce control).
func (e *Engine) Refresher() *refresher.Refresher { return e.refr }

// Tracer exposes the execution-span recorder behind
// INFORMATION_SCHEMA.TRACE_SPANS, for Go-side monitoring and benchmarks.
func (e *Engine) Tracer() *trace.Recorder { return e.trc }

// Uptime is the host wall-clock time since the engine was constructed.
func (e *Engine) Uptime() time.Duration { return time.Since(e.startedAt) }

// SessionCount reports how many sessions are currently open.
func (e *Engine) SessionCount() int {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	return len(e.sessions)
}

// PersistStats returns the durability layer's counters; ok is false for
// in-memory engines.
func (e *Engine) PersistStats() (PersistStats, bool) {
	if e.pers == nil {
		return PersistStats{}, false
	}
	return e.pers.Stats(), true
}

// RefreshWorkers returns the current refresh worker-pool width.
func (e *Engine) RefreshWorkers() int { return e.refr.Workers() }

// AdaptiveChooser exposes the REFRESH_MODE=AUTO chooser (runtime gate,
// smoothing window) for experiments and monitoring.
func (e *Engine) AdaptiveChooser() *adaptive.Chooser { return e.ctrl.Adaptive }

// CompactionHorizon returns the live COMPACTION_HORIZON setting: the
// number of trailing versions kept readable per table, or 0 when
// compaction is disabled.
func (e *Engine) CompactionHorizon() int {
	e.stmtMu.RLock()
	defer e.stmtMu.RUnlock()
	return e.compactionHorizon
}

// CompactNow runs one version-chain compaction sweep immediately: every
// storage table (base tables and DT contents) is folded down to the last
// COMPACTION_HORIZON versions, clamped so no pinned version (an open
// cursor's snapshot) and no catalog DT's refresh frontier is folded
// away. It returns the total number of versions folded. A sweep runs
// automatically after every scheduler tick; this entry point exists for
// tests and operational tooling. With COMPACTION_HORIZON = 0 it is a
// no-op.
func (e *Engine) CompactNow() (int64, error) {
	if err := e.checkOpen(); err != nil {
		return 0, err
	}
	// The sweep is a statement writer: it mutates version chains, so it
	// excludes queries, DML and refreshes the way DDL does. Cursor pins
	// are taken under the read lock at plan time, so every cursor opened
	// before the sweep acquired this lock is already protected.
	e.stmtMu.Lock()
	defer e.stmtMu.Unlock()
	return e.compactLocked()
}

func (e *Engine) compactLocked() (int64, error) {
	n := e.compactionHorizon
	if n <= 0 {
		return 0, nil
	}
	floors := e.frontierFloors()
	var total int64
	for _, t := range e.allStorageTables() {
		latest := int64(t.VersionCount())
		h := latest - int64(n) + 1
		if f, ok := floors[t.ID()]; ok && h > f {
			// A DT's next refresh reads Changes starting at its frontier
			// seq; folding past it would force a REINITIALIZE.
			h = f
		}
		if h <= t.CompactedThrough()+1 {
			continue
		}
		eff, dropped, err := t.Compact(h)
		if err != nil {
			return total, err
		}
		if dropped > 0 {
			total += dropped
			e.logCompact(t, eff)
		}
	}
	return total, nil
}

// frontierFloors reports, per storage table ID, the minimum version seq
// pinned by the refresh frontier of any DT in the catalog, live or
// dropped: UNDROP resumes a dropped DT incrementally from its frontier.
// A DT replaced by CREATE OR REPLACE has left the catalog and pins
// nothing.
func (e *Engine) frontierFloors() map[int64]int64 {
	floors := make(map[int64]int64)
	for _, entry := range e.cat.Entries() {
		dt, ok := entry.Payload.(*core.DynamicTable)
		if !ok {
			continue
		}
		for id, seq := range dt.Frontier().Versions {
			if cur, ok := floors[id]; !ok || seq < cur {
				floors[id] = seq
			}
		}
	}
	return floors
}

// allStorageTables enumerates the version-chain owners the compaction
// sweep visits: live base tables and DT contents tables.
func (e *Engine) allStorageTables() []*storage.Table {
	var out []*storage.Table
	for _, entry := range e.cat.List(catalog.KindTable) {
		if to, ok := entry.Payload.(*tableObject); ok {
			out = append(out, to.table)
		}
	}
	for _, entry := range e.cat.List(catalog.KindDynamicTable) {
		if dt, ok := entry.Payload.(*core.DynamicTable); ok {
			out = append(out, dt.Storage)
		}
	}
	return out
}

// Now returns the engine's current time.
func (e *Engine) Now() time.Time { return e.clk.Now() }

// AdvanceTime moves the virtual clock forward. It is a no-op under
// WithWallClock.
func (e *Engine) AdvanceTime(d time.Duration) time.Time {
	if e.vclk != nil {
		t := e.vclk.Advance(d)
		e.logClock()
		return t
	}
	return e.clk.Now()
}

// Scheduler exposes the refresh scheduler for simulations and experiments.
func (e *Engine) Scheduler() *sched.Scheduler { return e.sch }

// Controller exposes the refresh controller (ablation knobs, experiments).
func (e *Engine) Controller() *core.Controller { return e.ctrl }

// Warehouse resolves a live warehouse by name through its catalog
// entry, the only place a warehouse is registered. A dropped warehouse,
// or a name another kind of object holds, does not resolve.
func (e *Engine) Warehouse(name string) (*warehouse.Warehouse, error) {
	if entry, err := e.cat.Get(name); err == nil {
		if wh, ok := entry.Payload.(*warehouse.Warehouse); ok {
			return wh, nil
		}
	}
	return nil, fmt.Errorf("dyntables: warehouse %q does not exist", name)
}

// Catalog exposes the catalog (RBAC administration, DDL log).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// RunScheduler runs scheduled refreshes up to the current time. Refreshes
// run as statement readers: they proceed in parallel with queries and DML
// but serialize against DDL.
func (e *Engine) RunScheduler() error {
	if err := e.checkOpen(); err != nil {
		return err
	}
	e.stmtMu.RLock()
	err := e.checkOpen()
	if err == nil {
		err = e.sch.RunUntil(e.clk.Now())
	}
	if err == nil {
		e.logClock()
	}
	e.stmtMu.RUnlock()
	// The compaction sweep runs after the tick lock is released — it
	// needs the exclusive statement lock — so version chains are trimmed
	// right after the refreshes that advanced the frontiers past them.
	if err == nil {
		_, err = e.CompactNow()
	}
	// The watchdog runs after the tick lock is released: alert conditions
	// evaluate through ordinary sessions, which take their own statement
	// read locks.
	e.evaluateAlerts()
	e.afterWrite()
	return err
}

// OpenCursors reports the number of Rows cursors not yet released, for
// leak detection in tests and monitoring.
func (e *Engine) OpenCursors() int64 { return e.cursors.Load() }

// ---------------------------------------------------------------------------
// catalog payloads
// ---------------------------------------------------------------------------

type tableObject struct {
	table *storage.Table
}

func (*tableObject) ObjectKind() catalog.ObjectKind { return catalog.KindTable }

type viewObject struct {
	text string
}

func (*viewObject) ObjectKind() catalog.ObjectKind { return catalog.KindView }

// ResolveTable implements plan.Resolver: INFORMATION_SCHEMA virtual
// tables resolve through the observability layer, everything else
// against the catalog.
func (e *Engine) ResolveTable(name string) (*plan.Source, error) {
	return e.virt.ResolveTable(name)
}

// resolveCatalogTable is the catalog-backed base resolver underneath the
// virtual-table layer. It is also the refresh controller's resolver:
// defining queries (of DTs and of the views they expand) bind here, so
// INFORMATION_SCHEMA never reaches a stored query — virtual tables are
// bind-time snapshots with no version chain, and materializing one from
// a refresh bind would call back into the scheduler under its tick lock.
func (e *Engine) resolveCatalogTable(name string) (*plan.Source, error) {
	entry, err := e.cat.Get(name)
	if err != nil {
		if e.virt != nil && e.virt.Table(name) != nil {
			return nil, fmt.Errorf("dyntables: %s is an INFORMATION_SCHEMA virtual table; stored defining queries may not read it", name)
		}
		return nil, err
	}
	src := &plan.Source{
		EntryID:    entry.ID,
		Generation: entry.Generation,
		Name:       entry.Name,
		Kind:       entry.Kind,
	}
	switch payload := entry.Payload.(type) {
	case *tableObject:
		src.Table = payload.table
	case *viewObject:
		src.ViewSQL = payload.text
	case *core.DynamicTable:
		if !payload.Initialized() {
			return nil, fmt.Errorf("dyntables: dynamic table %q is not initialized yet", name)
		}
		src.Table = payload.Storage
	default:
		return nil, fmt.Errorf("dyntables: object %q is not queryable", name)
	}
	return src, nil
}

// Recluster appends a data-equivalent version to a base table, simulating
// the background clustering/defragmentation maintenance of §5.5.2: storage
// is rewritten but logical contents are unchanged, and incremental readers
// skip the version entirely (downstream DTs take NO_DATA refreshes).
func (e *Engine) Recluster(tableName string) error {
	if err := e.checkOpen(); err != nil {
		return err
	}
	e.stmtMu.RLock()
	err := e.checkOpen()
	if err == nil {
		var table *storage.Table
		_, table, err = e.baseTable(tableName)
		if err == nil {
			_, err = table.AppendDataEquivalent(e.txns.Now())
		}
	}
	e.stmtMu.RUnlock()
	e.afterWrite()
	return err
}

// DynamicTableHandle returns the engine-side state of a DT, used by the
// experiment harness and validation tooling.
func (e *Engine) DynamicTableHandle(name string) (*core.DynamicTable, error) {
	_, dt, err := e.dynamicTable(name)
	return dt, err
}

// catalogEntry resolves a catalog entry by ID for the refresh controller:
// its generation and, when it holds a dynamic table, the DT.
func (e *Engine) catalogEntry(id int64) (int64, *core.DynamicTable, error) {
	entry, err := e.cat.GetByID(id)
	if err != nil {
		return 0, nil, err
	}
	dt, _ := entry.Payload.(*core.DynamicTable)
	return entry.Generation, dt, nil
}

// dynamicTable resolves a DT payload by name.
func (e *Engine) dynamicTable(name string) (*catalog.Entry, *core.DynamicTable, error) {
	entry, err := e.cat.Get(name)
	if err != nil {
		return nil, nil, err
	}
	dt, ok := entry.Payload.(*core.DynamicTable)
	if !ok {
		return nil, nil, fmt.Errorf("dyntables: %q is not a dynamic table", name)
	}
	return entry, dt, nil
}

// baseTable resolves a plain table payload by name.
func (e *Engine) baseTable(name string) (*catalog.Entry, *storage.Table, error) {
	entry, err := e.cat.Get(name)
	if err != nil {
		return nil, nil, err
	}
	tbl, ok := entry.Payload.(*tableObject)
	if !ok {
		return nil, nil, fmt.Errorf("dyntables: %q is not a base table", name)
	}
	return entry, tbl.table, nil
}
