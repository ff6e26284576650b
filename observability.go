package dyntables

import (
	"sort"
	"time"

	"dyntables/internal/catalog"
	"dyntables/internal/core"
	"dyntables/internal/health"
	"dyntables/internal/hlc"
	"dyntables/internal/obs"
	"dyntables/internal/plan"
	"dyntables/internal/sched"
	"dyntables/internal/sql"
	"dyntables/internal/trace"
	"dyntables/internal/types"
	"dyntables/internal/warehouse"
)

// This file wires the observability subsystem: the obs.Recorder collects
// graph, statement, request and alert events; each DT keeps its own
// refresh records, from which its lag sawtooth, SLO attainment, resource
// cost, billed warehouse jobs and health signals are derived when read;
// and the engine exposes both as INFORMATION_SCHEMA virtual tables
// resolvable by the normal planner — so every signal the engine produces
// is queryable with plain SQL through the ordinary session/cursor path.

// The INFORMATION_SCHEMA virtual table names.
const (
	InfoSchemaDynamicTables     = "INFORMATION_SCHEMA.DYNAMIC_TABLES"
	InfoSchemaRefreshHistory    = "INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY"
	InfoSchemaGraphHistory      = "INFORMATION_SCHEMA.DYNAMIC_TABLE_GRAPH_HISTORY"
	InfoSchemaWarehouseMetering = "INFORMATION_SCHEMA.WAREHOUSE_METERING_HISTORY"
	InfoSchemaServerRequests    = "INFORMATION_SCHEMA.SERVER_REQUEST_HISTORY"
	InfoSchemaQueryHistory      = "INFORMATION_SCHEMA.QUERY_HISTORY"
	InfoSchemaTraceSpans        = "INFORMATION_SCHEMA.TRACE_SPANS"
	InfoSchemaResourceHistory   = "INFORMATION_SCHEMA.RESOURCE_HISTORY"
	InfoSchemaDTHealth          = "INFORMATION_SCHEMA.DT_HEALTH"
	InfoSchemaAlerts            = "INFORMATION_SCHEMA.ALERTS"
	InfoSchemaAlertHistory      = "INFORMATION_SCHEMA.ALERT_HISTORY"
)

// initObservability builds the recorder and layers the virtual-table
// resolver over the catalog resolver. Called once from New.
func (e *Engine) initObservability() {
	if e.cfg.HistoryCapacity < 0 {
		e.rec = obs.NewDisabled()
		e.trc = trace.NewDisabled()
	} else {
		e.rec = obs.NewRecorder(e.cfg.HistoryCapacity)
		e.trc = trace.NewRecorder(0, 0)
	}
	e.ctrl.HistoryCapacity = e.cfg.HistoryCapacity
	e.ctrl.Tracer = e.trc
	e.refr.SetTracer(e.trc)
	e.virt = plan.NewVirtualResolver(
		plan.ResolverFunc(e.resolveCatalogTable),
		func() hlc.Timestamp { return e.txns.Now() },
	)
	e.registerInfoSchema()
}

// Observability exposes the recorder (history rings, lag-SLO
// accounting) for Go-side monitoring; the same data is queryable through
// the INFORMATION_SCHEMA virtual tables.
func (e *Engine) Observability() *obs.Recorder { return e.rec }

// LagSLO returns a DT's lag-SLO attainment against its effective target
// lag, computed over the sawtooth its history ring holds, up to now. The
// second return is false when the DT has no lag requirement (a
// DOWNSTREAM DT with no consumers) or no samples.
func (e *Engine) LagSLO(name string) (obs.SLOStats, bool) {
	e.stmtMu.RLock()
	defer e.stmtMu.RUnlock()
	_, dt, err := e.dynamicTable(name)
	if err != nil {
		return obs.SLOStats{}, false
	}
	target := e.sch.EffectiveLag(dt)
	if target >= sched.NoLag {
		return obs.SLOStats{}, false
	}
	stats := obs.ComputeSLO(dt.LagSeries(), target, e.clk.Now())
	return stats, stats.Samples > 0
}

// recordDTGraph snapshots a DT's dependency edges into the graph-history
// ring; called when a DT is created, cloned or recovered.
func (e *Engine) recordDTGraph(dtName string, deps []int64) {
	if !e.rec.Enabled() || len(deps) == 0 {
		return
	}
	at := e.clk.Now()
	edges := make([]obs.GraphEdge, 0, len(deps))
	for _, id := range deps {
		entry, err := e.cat.GetByID(id)
		if err != nil {
			continue
		}
		edges = append(edges, obs.GraphEdge{
			DTName:       dtName,
			Upstream:     entry.Name,
			UpstreamKind: entry.Kind.String(),
			ValidFrom:    at,
		})
	}
	e.rec.RecordEdges(edges)
}

// ---------------------------------------------------------------------------
// INFORMATION_SCHEMA virtual tables
// ---------------------------------------------------------------------------

// infoColumn is one column of an INFORMATION_SCHEMA table (or SHOW
// result) built from source records of type T: its name, its kind and
// how to read its value from one record.
type infoColumn[T any] struct {
	col   types.Column
	value func(T) types.Value
}

// column builds an infoColumn whose get reads a value from a record,
// false meaning NULL, and whose conv makes that value a types.Value. The
// kind-typed constructors below pair each kind with its one conv, so a
// column's declared kind and its values cannot disagree.
func column[T, V any](name string, kind types.Kind, conv func(V) types.Value, get func(T) (V, bool)) infoColumn[T] {
	return infoColumn[T]{
		col: types.Column{Name: name, Kind: kind},
		value: func(r T) types.Value {
			if v, ok := get(r); ok {
				return conv(v)
			}
			return types.Null
		},
	}
}

// strCol, intCol, floatCol, boolCol, tsCol and intervalCol build a
// column of their kind.
func strCol[T any](name string, get func(T) (string, bool)) infoColumn[T] {
	return column(name, types.KindString, types.NewString, get)
}

func intCol[T any](name string, get func(T) (int64, bool)) infoColumn[T] {
	return column(name, types.KindInt, types.NewInt, get)
}

func floatCol[T any](name string, get func(T) (float64, bool)) infoColumn[T] {
	return column(name, types.KindFloat, types.NewFloat, get)
}

func boolCol[T any](name string, get func(T) (bool, bool)) infoColumn[T] {
	return column(name, types.KindBool, types.NewBool, get)
}

func tsCol[T any](name string, get func(T) (time.Time, bool)) infoColumn[T] {
	return column(name, types.KindTimestamp, types.NewTimestamp, get)
}

func intervalCol[T any](name string, get func(T) (time.Duration, bool)) infoColumn[T] {
	return column(name, types.KindInterval, types.NewInterval, get)
}

// nonZero reports v with ok false at its zero value ("" or 0), the NULL
// convention of optional strings and of span IDs, where 0 means
// "tracing was disabled".
func nonZero[V comparable](v V) (V, bool) {
	var zero V
	return v, v != zero
}

// nonZeroTime reports t with ok false at the zero time.
func nonZeroTime(t time.Time) (time.Time, bool) { return t, !t.IsZero() }

// virtualTable derives a virtual table from its column list: the schema
// lists the columns in order, and Rows reads one row from each record
// that records returns, in the order it returns them.
func virtualTable[T any](name string, records func() []T, cols ...infoColumn[T]) *plan.VirtualTable {
	schema := types.Schema{Columns: make([]types.Column, len(cols))}
	for i, c := range cols {
		schema.Columns[i] = c.col
	}
	return &plan.VirtualTable{
		Name:   name,
		Schema: schema,
		Rows: func() ([]types.Row, error) {
			recs := records()
			rows := make([]types.Row, len(recs))
			for i, r := range recs {
				row := make(types.Row, len(cols))
				for j, c := range cols {
					row[j] = c.value(r)
				}
				rows[i] = row
			}
			return rows, nil
		},
	}
}

// registerInfoSchema registers the virtual tables with the resolver
// layer. Each Rows callback materializes the current metadata snapshot
// at bind time, so the whole planner — filters, joins, aggregation,
// ORDER BY, streaming cursors — works over it unchanged.
func (e *Engine) registerInfoSchema() {
	// DYNAMIC_TABLES: one row per DT with its state, refresh mode, lag
	// settings and lag-SLO accounting (attainment fraction and
	// effective-lag percentiles against the effective target lag).
	e.virt.Register(virtualTable(InfoSchemaDynamicTables, e.dynamicTableInfos,
		strCol("name", func(r dtInfo) (string, bool) { return r.dt.Name, true }),
		strCol("state", func(r dtInfo) (string, bool) { return r.dt.State().String(), true }),
		strCol("refresh_mode", func(r dtInfo) (string, bool) { return r.mode.String(), true }),
		strCol("declared_mode", func(r dtInfo) (string, bool) { return r.dt.DeclaredMode.String(), true }),
		strCol("mode_reason", func(r dtInfo) (string, bool) { return nonZero(r.reason) }),
		strCol("target_lag", func(r dtInfo) (string, bool) { return targetLagText(r.dt.Lag), true }),
		intervalCol("effective_lag", func(r dtInfo) (time.Duration, bool) { return r.target, r.target < sched.NoLag }),
		strCol("warehouse", func(r dtInfo) (string, bool) { return r.dt.Warehouse, true }),
		intCol("rows", func(r dtInfo) (int64, bool) { return int64(r.dt.Storage.RowCount()), true }),
		tsCol("data_ts", func(r dtInfo) (time.Time, bool) { return nonZeroTime(r.dataTS) }),
		intervalCol("current_lag", func(r dtInfo) (time.Duration, bool) { return r.now.Sub(r.dataTS), !r.dataTS.IsZero() }),
		intCol("error_count", func(r dtInfo) (int64, bool) { return int64(r.dt.ErrorCount()), true }),
		intCol("refreshes", func(r dtInfo) (int64, bool) { return int64(r.dt.HistoryLen()), true }),
		floatCol("slo_attainment", func(r dtInfo) (float64, bool) { return r.slo.Attainment, r.slo.Samples > 0 }),
		intervalCol("lag_p50", func(r dtInfo) (time.Duration, bool) { return r.slo.P50, r.slo.Samples > 0 }),
		intervalCol("lag_p95", func(r dtInfo) (time.Duration, bool) { return r.slo.P95, r.slo.Samples > 0 }),
	))

	// DYNAMIC_TABLE_REFRESH_HISTORY, from each DT's bounded history
	// ring.
	e.virt.Register(virtualTable(InfoSchemaRefreshHistory, e.refreshHistory,
		strCol("dt_name", func(r refreshRow) (string, bool) { return r.dt, true }),
		tsCol("data_ts", func(r refreshRow) (time.Time, bool) { return nonZeroTime(r.DataTS) }),
		strCol("action", func(r refreshRow) (string, bool) { return r.Action.String(), true }),
		boolCol("incremental", func(r refreshRow) (bool, bool) { return r.Action == core.ActionIncremental, true }),
		intCol("inserted", func(r refreshRow) (int64, bool) { return int64(r.Inserted), true }),
		intCol("deleted", func(r refreshRow) (int64, bool) { return int64(r.Deleted), true }),
		intCol("rows_after", func(r refreshRow) (int64, bool) { return int64(r.RowsAfter), true }),
		intCol("scanned", func(r refreshRow) (int64, bool) { return r.SourceRowsScanned, true }),
		strCol("effective_mode", func(r refreshRow) (string, bool) { return nonZero(r.EffectiveMode.String()) }),
		strCol("mode_reason", func(r refreshRow) (string, bool) { return nonZero(r.ModeReason) }),
		intCol("changed_rows", func(r refreshRow) (int64, bool) { return r.SourceRowsChanged, r.FullScanEstimate > 0 }),
		intCol("full_scan_rows", func(r refreshRow) (int64, bool) { return r.FullScanEstimate, r.FullScanEstimate > 0 }),
		tsCol("start_ts", func(r refreshRow) (time.Time, bool) { return r.exec().Start, r.Exec != nil }),
		tsCol("end_ts", func(r refreshRow) (time.Time, bool) { return r.exec().End, r.Exec != nil }),
		intervalCol("duration", func(r refreshRow) (time.Duration, bool) { return r.exec().Duration(), r.Exec != nil }),
		intCol("wave", func(r refreshRow) (int64, bool) { return int64(r.exec().Wave), r.exec().Wave >= 0 }),
		intCol("worker", func(r refreshRow) (int64, bool) { return int64(r.exec().Worker), r.exec().Worker >= 0 }),
		strCol("error", func(r refreshRow) (string, bool) { return nonZero(errText(r.Err)) }),
		intCol("seq", func(r refreshRow) (int64, bool) { return r.Seq, true }),
		intCol("root_id", func(r refreshRow) (int64, bool) { return nonZero(r.TraceRoot) }),
	))

	// DYNAMIC_TABLE_GRAPH_HISTORY, from the recorder's edge-observation
	// ring.
	e.virt.Register(virtualTable(InfoSchemaGraphHistory, e.rec.Edges,
		strCol("dt_name", func(ed obs.GraphEdge) (string, bool) { return ed.DTName, true }),
		strCol("upstream", func(ed obs.GraphEdge) (string, bool) { return ed.Upstream, true }),
		strCol("upstream_kind", func(ed obs.GraphEdge) (string, bool) { return ed.UpstreamKind, true }),
		tsCol("valid_from", func(ed obs.GraphEdge) (time.Time, bool) { return nonZeroTime(ed.ValidFrom) }),
		intCol("seq", func(ed obs.GraphEdge) (int64, bool) { return ed.Seq, true }),
	))

	// WAREHOUSE_METERING_HISTORY, from the billed jobs placed on each
	// DT's refresh records.
	e.virt.Register(virtualTable(InfoSchemaWarehouseMetering, e.meteringHistory,
		strCol("warehouse", func(r meterRow) (string, bool) { return r.Warehouse, true }),
		strCol("size", func(r meterRow) (string, bool) { return r.Size.String(), true }),
		strCol("label", func(r meterRow) (string, bool) { return r.dt, true }),
		tsCol("submit_ts", func(r meterRow) (time.Time, bool) { return nonZeroTime(r.Submit) }),
		tsCol("start_ts", func(r meterRow) (time.Time, bool) { return nonZeroTime(r.Start) }),
		tsCol("end_ts", func(r meterRow) (time.Time, bool) { return nonZeroTime(r.End) }),
		intervalCol("queued", func(r meterRow) (time.Duration, bool) { return r.Queued(), true }),
		intervalCol("duration", func(r meterRow) (time.Duration, bool) { return r.End.Sub(r.Start), true }),
		intCol("rows", func(r meterRow) (int64, bool) { return r.Rows, true }),
		floatCol("credits", func(r meterRow) (float64, bool) { return r.Credits, true }),
		intCol("seq", func(r meterRow) (int64, bool) { return r.seq, true }),
	))

	// SERVER_REQUEST_HISTORY, from the recorder's served-request ring
	// (populated by the network server's per-endpoint metrics middleware;
	// empty for embedded engines). Request timings are host wall-clock —
	// they describe the serving path, not the virtual refresh timeline.
	e.virt.Register(virtualTable(InfoSchemaServerRequests, e.rec.Requests,
		strCol("method", func(ev obs.RequestEvent) (string, bool) { return ev.Method, true }),
		strCol("endpoint", func(ev obs.RequestEvent) (string, bool) { return ev.Endpoint, true }),
		intCol("status", func(ev obs.RequestEvent) (int64, bool) { return int64(ev.Status), true }),
		strCol("role", func(ev obs.RequestEvent) (string, bool) { return nonZero(ev.Role) }),
		strCol("session_id", func(ev obs.RequestEvent) (string, bool) { return nonZero(ev.SessionID) }),
		strCol("statement_id", func(ev obs.RequestEvent) (string, bool) { return nonZero(ev.StatementID) }),
		intCol("rows", func(ev obs.RequestEvent) (int64, bool) { return int64(ev.Rows), true }),
		tsCol("start_ts", func(ev obs.RequestEvent) (time.Time, bool) { return nonZeroTime(ev.Start) }),
		intervalCol("duration", func(ev obs.RequestEvent) (time.Duration, bool) { return ev.Duration, true }),
		strCol("request_id", func(ev obs.RequestEvent) (string, bool) { return nonZero(ev.RequestID) }),
		intCol("seq", func(ev obs.RequestEvent) (int64, bool) { return ev.Seq, true }),
	))

	// QUERY_HISTORY, from the recorder's shared statement ring. Statement
	// text is recorded verbatim but bind-argument values are never
	// captured, so parameterized statements stay redacted by construction.
	e.virt.Register(virtualTable(InfoSchemaQueryHistory, e.rec.Statements,
		intCol("seq", func(ev obs.StatementEvent) (int64, bool) { return ev.Seq, true }),
		intCol("session_id", func(ev obs.StatementEvent) (int64, bool) { return ev.SessionID, true }),
		strCol("role", func(ev obs.StatementEvent) (string, bool) { return nonZero(ev.Role) }),
		strCol("text", func(ev obs.StatementEvent) (string, bool) { return ev.Text, true }),
		strCol("kind", func(ev obs.StatementEvent) (string, bool) { return nonZero(ev.Kind) }),
		strCol("status", func(ev obs.StatementEvent) (string, bool) { return ev.Status, true }),
		intCol("rows", func(ev obs.StatementEvent) (int64, bool) { return ev.Rows, true }),
		tsCol("start_ts", func(ev obs.StatementEvent) (time.Time, bool) { return nonZeroTime(ev.Start) }),
		intervalCol("duration", func(ev obs.StatementEvent) (time.Duration, bool) { return ev.Duration, true }),
		intCol("root_id", func(ev obs.StatementEvent) (int64, bool) { return nonZero(ev.RootID) }),
		strCol("error", func(ev obs.StatementEvent) (string, bool) { return nonZero(ev.Error) }),
	))

	// TRACE_SPANS: the flattened span tree of every retained root trace,
	// joinable against QUERY_HISTORY and DYNAMIC_TABLE_REFRESH_HISTORY on
	// root_id. Span timings are host wall-clock (they describe real
	// execution work, not the virtual refresh timeline).
	e.virt.Register(virtualTable(InfoSchemaTraceSpans, e.trc.Snapshot,
		intCol("root_id", func(r trace.Record) (int64, bool) { return r.Root, true }),
		intCol("span_id", func(r trace.Record) (int64, bool) { return r.ID, true }),
		intCol("parent_id", func(r trace.Record) (int64, bool) { return nonZero(r.Parent) }),
		strCol("name", func(r trace.Record) (string, bool) { return r.Name, true }),
		strCol("attrs", func(r trace.Record) (string, bool) {
			var attrs string
			for i, a := range r.Attrs {
				if i > 0 {
					attrs += " "
				}
				attrs += a.Key + "=" + a.Value
			}
			return nonZero(attrs)
		}),
		tsCol("start_ts", func(r trace.Record) (time.Time, bool) { return nonZeroTime(r.Start) }),
		intervalCol("duration", func(r trace.Record) (time.Duration, bool) { return r.Duration, true }),
	))

	// RESOURCE_HISTORY: one row per metered unit of work — scheduler-tick
	// refreshes from each DT's history ring, session statements from the
	// recorder's statement ring — joinable against QUERY_HISTORY,
	// DYNAMIC_TABLE_REFRESH_HISTORY and TRACE_SPANS on root_id.
	e.virt.Register(virtualTable(InfoSchemaResourceHistory, e.resourceHistory,
		intCol("seq", func(ev obs.ResourceEvent) (int64, bool) { return ev.Seq, true }),
		strCol("kind", func(ev obs.ResourceEvent) (string, bool) { return ev.Kind, true }),
		strCol("name", func(ev obs.ResourceEvent) (string, bool) { return nonZero(ev.Name) }),
		intCol("root_id", func(ev obs.ResourceEvent) (int64, bool) { return nonZero(ev.RootID) }),
		tsCol("start_ts", func(ev obs.ResourceEvent) (time.Time, bool) { return nonZeroTime(ev.Start) }),
		intervalCol("cpu", func(ev obs.ResourceEvent) (time.Duration, bool) { return ev.CPU, true }),
		intCol("alloc_bytes", func(ev obs.ResourceEvent) (int64, bool) { return ev.AllocBytes, true }),
		intCol("alloc_objects", func(ev obs.ResourceEvent) (int64, bool) { return ev.AllocObjects, true }),
		intCol("rows", func(ev obs.ResourceEvent) (int64, bool) { return ev.Rows, true }),
		intCol("bytes", func(ev obs.ResourceEvent) (int64, bool) { return ev.Bytes, true }),
	))

	// DT_HEALTH: one evaluated row per DT, with blame columns populated for
	// AT_RISK / MISSING_SLO rows.
	e.virt.Register(virtualTable(InfoSchemaDTHealth, e.healthReports,
		strCol("dt", func(rep healthReport) (string, bool) { return rep.Name, true }),
		strCol("status", func(rep healthReport) (string, bool) { return string(rep.Status), true }),
		strCol("reason", func(rep healthReport) (string, bool) { return rep.Reason, true }),
		floatCol("slo_attainment", func(rep healthReport) (float64, bool) { return rep.Attainment, rep.HasSLO && rep.Samples > 0 }),
		intCol("error_streak", func(rep healthReport) (int64, bool) { return int64(rep.ErrorStreak), true }),
		floatCol("cpu_trend", func(rep healthReport) (float64, bool) { return rep.CPUTrend, rep.CPUTrend > 0 }),
		strCol("blame", func(rep healthReport) (string, bool) { return nonZero(rep.Blame.Culprit) }),
		strCol("blame_phase", func(rep healthReport) (string, bool) { return nonZero(rep.Blame.Phase) }),
		intervalCol("blame_cost", func(rep healthReport) (time.Duration, bool) { return rep.Blame.Cost, rep.Blame.Culprit != "" }),
	))

	// ALERTS: one row per registered alert with its definition and
	// evaluation state.
	e.virt.Register(virtualTable(InfoSchemaAlerts, e.alertEntries,
		strCol("name", func(a alertEntry) (string, bool) { return a.def.Name, true }),
		strCol("status", func(a alertEntry) (string, bool) { return string(a.state.Status), true }),
		boolCol("suspended", func(a alertEntry) (bool, bool) { return a.suspended, true }),
		intervalCol("schedule", func(a alertEntry) (time.Duration, bool) { return a.def.Schedule, true }),
		strCol("action", func(a alertEntry) (string, bool) { return a.def.ActionText(), true }),
		strCol("owner", func(a alertEntry) (string, bool) { return nonZero(a.def.Owner) }),
		strCol("condition", func(a alertEntry) (string, bool) { return a.def.ConditionText, true }),
		intCol("firings", func(a alertEntry) (int64, bool) { return a.state.Firings, true }),
		tsCol("last_fired", func(a alertEntry) (time.Time, bool) { return nonZeroTime(a.state.LastFired) }),
		tsCol("next_eval", func(a alertEntry) (time.Time, bool) { return nonZeroTime(a.nextDue) }),
	))

	// ALERT_HISTORY, from the recorder's alert-evaluation ring, joinable
	// against TRACE_SPANS on root_id.
	e.virt.Register(virtualTable(InfoSchemaAlertHistory, e.rec.Alerts,
		intCol("seq", func(ev obs.AlertEvent) (int64, bool) { return ev.Seq, true }),
		strCol("alert", func(ev obs.AlertEvent) (string, bool) { return ev.Alert, true }),
		tsCol("eval_ts", func(ev obs.AlertEvent) (time.Time, bool) { return nonZeroTime(ev.At) }),
		boolCol("result", func(ev obs.AlertEvent) (bool, bool) { return ev.Result, true }),
		strCol("status", func(ev obs.AlertEvent) (string, bool) { return ev.Status, true }),
		boolCol("fired", func(ev obs.AlertEvent) (bool, bool) { return ev.Fired, true }),
		strCol("action", func(ev obs.AlertEvent) (string, bool) { return nonZero(ev.Action) }),
		strCol("action_error", func(ev obs.AlertEvent) (string, bool) { return nonZero(ev.ActionErr) }),
		strCol("detail", func(ev obs.AlertEvent) (string, bool) { return nonZero(ev.Detail) }),
		intCol("root_id", func(ev obs.AlertEvent) (int64, bool) { return nonZero(ev.RootID) }),
		strCol("error", func(ev obs.AlertEvent) (string, bool) { return nonZero(ev.Error) }),
		intervalCol("duration", func(ev obs.AlertEvent) (time.Duration, bool) { return ev.Duration, true }),
	))
}

// warehousesTable backs SHOW WAREHOUSES: one row per warehouse with its
// size and billing aggregates. It is not registered, so no query sees
// it.
func (e *Engine) warehousesTable() *plan.VirtualTable {
	return virtualTable("WAREHOUSES", e.sortedWarehouses,
		strCol("name", func(wh *warehouse.Warehouse) (string, bool) { return wh.Name, true }),
		strCol("size", func(wh *warehouse.Warehouse) (string, bool) { return wh.Size.String(), true }),
		intervalCol("auto_suspend", func(wh *warehouse.Warehouse) (time.Duration, bool) { return wh.AutoSuspend, true }),
		intervalCol("billed", func(wh *warehouse.Warehouse) (time.Duration, bool) { return wh.BilledTime(), true }),
		floatCol("credits", func(wh *warehouse.Warehouse) (float64, bool) { return wh.Credits(), true }),
		intCol("resumes", func(wh *warehouse.Warehouse) (int64, bool) { return int64(wh.Resumes()), true }),
		intCol("jobs", func(wh *warehouse.Warehouse) (int64, bool) { return int64(wh.JobCount()), true }),
		tsCol("busy_until", func(wh *warehouse.Warehouse) (time.Time, bool) { return nonZeroTime(wh.BusyUntil()) }),
	)
}

// sortedWarehouses lists the live warehouses by name.
func (e *Engine) sortedWarehouses() []*warehouse.Warehouse {
	var whs []*warehouse.Warehouse
	for _, entry := range e.cat.List(catalog.KindWarehouse) {
		whs = append(whs, entry.Payload.(*warehouse.Warehouse))
	}
	return whs
}

// targetLagText renders a TARGET_LAG setting.
func targetLagText(lag sql.TargetLag) string {
	if lag.Kind == sql.LagDownstream {
		return "DOWNSTREAM"
	}
	return lag.Duration.String()
}

// sortedDTs lists the live dynamic tables by name. It is also the
// scheduler's list of the DTs it refreshes.
func (e *Engine) sortedDTs() []*core.DynamicTable {
	entries := e.cat.List(catalog.KindDynamicTable)
	dts := make([]*core.DynamicTable, 0, len(entries))
	for _, entry := range entries {
		if dt, ok := entry.Payload.(*core.DynamicTable); ok {
			dts = append(dts, dt)
		}
	}
	return dts
}

// dtInfo is one DYNAMIC_TABLES record: a DT and the values derived from
// it once per row.
type dtInfo struct {
	dt          *core.DynamicTable
	mode        sql.RefreshMode
	reason      string
	target      time.Duration
	slo         obs.SLOStats
	dataTS, now time.Time
}

// dynamicTableInfos gathers the DYNAMIC_TABLES records, which also back
// the /metrics lag gauges: each DT's mode decision, effective target lag
// and data timestamp, and its lag-SLO stats when it has a lag
// requirement.
func (e *Engine) dynamicTableInfos() []dtInfo {
	dts := e.sortedDTs()
	now := e.clk.Now()
	infos := make([]dtInfo, 0, len(dts))
	for _, dt := range dts {
		info := dtInfo{dt: dt, target: e.sch.EffectiveLag(dt), dataTS: dt.DataTimestamp(), now: now}
		if info.target < sched.NoLag {
			info.slo = obs.ComputeSLO(dt.LagSeries(), info.target, now)
		}
		info.mode, info.reason = dt.ModeDecision()
		infos = append(infos, info)
	}
	return infos
}

// refreshRow is one DYNAMIC_TABLE_REFRESH_HISTORY record: a record of a
// DT's history and the DT's name.
type refreshRow struct {
	dt string
	core.RefreshRecord
}

// unplaced reads NULL in every execution column of a record that was
// never placed on the virtual timeline.
var unplaced = core.Execution{Wave: -1, Worker: -1}

// exec returns the record's execution, unplaced when it has none.
func (r refreshRow) exec() core.Execution {
	if r.Exec == nil {
		return unplaced
	}
	return *r.Exec
}

// refreshHistory lists every DT's retained refresh records, ordered by
// DT name, then recording order.
func (e *Engine) refreshHistory() []refreshRow {
	var rows []refreshRow
	for _, dt := range e.sortedDTs() {
		name := dt.Name
		for _, rec := range dt.History() {
			rows = append(rows, refreshRow{dt: name, RefreshRecord: rec})
		}
	}
	return rows
}

// meterRow is one WAREHOUSE_METERING_HISTORY record: a billed refresh
// job, the refreshed DT's name and the refresh's seq.
type meterRow struct {
	dt  string
	seq int64
	warehouse.Job
}

// meteringHistory lists every billed job placed on a retained refresh
// record, ordered by warehouse name, then refresh seq.
func (e *Engine) meteringHistory() []meterRow {
	var rows []meterRow
	for _, dt := range e.sortedDTs() {
		for _, rec := range dt.History() {
			if x := rec.Exec; x != nil && x.Job != nil {
				rows = append(rows, meterRow{dt: dt.Name, seq: rec.Seq, Job: *x.Job})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Warehouse != rows[j].Warehouse {
			return rows[i].Warehouse < rows[j].Warehouse
		}
		return rows[i].seq < rows[j].seq
	})
	return rows
}

// resourceHistory lists the RESOURCE_HISTORY rows: every DT's metered
// refresh records, ordered by DT name, then recording order, followed by
// the recorder's metered statements.
func (e *Engine) resourceHistory() []obs.ResourceEvent {
	var rows []obs.ResourceEvent
	for _, dt := range e.sortedDTs() {
		for _, rec := range dt.History() {
			if u := rec.Usage; u != nil {
				rows = append(rows, obs.ResourceEvent{
					Seq:          rec.Seq,
					Kind:         obs.ResourceRefresh,
					Name:         dt.Name,
					RootID:       rec.TraceRoot,
					Start:        u.Start,
					CPU:          u.CPU,
					AllocBytes:   u.AllocBytes,
					AllocObjects: u.AllocObjects,
					Rows:         rec.SourceRowsScanned + int64(rec.Inserted) + int64(rec.Deleted),
					Bytes:        rec.ScanBytes,
				})
			}
		}
	}
	for _, ev := range e.rec.Statements() {
		if u := ev.Usage; u != nil {
			rows = append(rows, obs.ResourceEvent{
				Seq:          ev.Seq,
				Kind:         obs.ResourceStatement,
				Name:         ev.Kind,
				RootID:       ev.RootID,
				Start:        u.Start,
				CPU:          u.CPU,
				AllocBytes:   u.AllocBytes,
				AllocObjects: u.AllocObjects,
				Rows:         ev.Rows,
			})
		}
	}
	return rows
}

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// healthReport is one DT's evaluated health, the row model behind
// INFORMATION_SCHEMA.DT_HEALTH, SHOW HEALTH and the /metrics health
// gauge.
type healthReport struct {
	Name        string
	Status      health.Status
	Reason      string
	HasSLO      bool
	Attainment  float64
	Samples     int
	ErrorStreak int
	CPUTrend    float64
	Blame       health.Blame
}

// blamePhases are the refresh-root child spans that count as exclusive
// pipeline phases. ivm's finer-grained delta.<op> spans nest under these
// conceptually and are excluded so phase durations do not double-count.
var blamePhases = map[string]bool{
	"bind": true, "ivm.eval": true, "ivm.delta": true, "merge": true,
}

// healthReports evaluates every DT through the pure internal/health
// classifier, feeding it lag-SLO attainment, the error streak, and the
// trend of its metered refresh CPU, all read from the DT's history ring.
// DTs classified at or below AT_RISK get a blame attribution: the engine
// walks Controller.Upstreams and the span forest to find the DAG node and
// phase that consumed the lag budget. Each DT's previous status is
// remembered on the engine, keyed by the DT itself, so the classifier's
// hysteresis has its memory across RENAME and forgets a dropped DT.
func (e *Engine) healthReports() []healthReport {
	dts := e.sortedDTs()
	now := e.clk.Now()
	spans := e.trc.Snapshot()

	e.healthMu.Lock()
	defer e.healthMu.Unlock()
	prevs := e.healthPrev
	e.healthPrev = make(map[*core.DynamicTable]health.Status, len(dts))

	reports := make([]healthReport, 0, len(dts))
	for _, dt := range dts {
		var cpu []time.Duration
		for _, rec := range dt.History() {
			if rec.Usage != nil {
				cpu = append(cpu, rec.Usage.CPU)
			}
		}
		in := health.Input{
			Name:        dt.Name,
			Suspended:   dt.State() == core.StateSuspended,
			ErrorStreak: dt.ErrorCount(),
			CPUTrend:    health.CPUTrendRatio(cpu),
		}
		if target := e.sch.EffectiveLag(dt); target < sched.NoLag {
			in.HasSLO = true
			stats := obs.ComputeSLO(dt.LagSeries(), target, now)
			in.Attainment = stats.Attainment
			in.Samples = stats.Samples
		}
		prev := prevs[dt]
		if prev == "" {
			prev = health.Healthy
		}
		status, reason := health.Evaluate(in, prev, health.Thresholds{})
		e.healthPrev[dt] = status

		rep := healthReport{
			Name:        dt.Name,
			Status:      status,
			Reason:      reason,
			HasSLO:      in.HasSLO,
			Attainment:  in.Attainment,
			Samples:     in.Samples,
			ErrorStreak: in.ErrorStreak,
			CPUTrend:    in.CPUTrend,
		}
		if status == health.MissingSLO || status == health.AtRisk {
			rep.Blame = e.attributeBlame(dt, spans)
		}
		reports = append(reports, rep)
	}
	return reports
}

// attributeBlame builds phase breakdowns for the DT and its upstream DTs
// and asks the pure attributor which node/phase dominated.
func (e *Engine) attributeBlame(dt *core.DynamicTable, spans []trace.Record) health.Blame {
	self := e.phaseBreakdown(dt, spans)
	var ups []health.PhaseBreakdown
	if upstream, err := e.ctrl.Upstreams(dt); err == nil {
		for _, up := range upstream {
			ups = append(ups, e.phaseBreakdown(up, spans))
		}
	}
	return health.Attribute(self, ups)
}

// phaseBreakdown assembles one DT's latest refresh cost from its newest
// placed record: the virtual execution time, the queue wait of the
// warehouse job that billed it, and the traced phase spans under its
// refresh root.
func (e *Engine) phaseBreakdown(dt *core.DynamicTable, spans []trace.Record) health.PhaseBreakdown {
	p := health.PhaseBreakdown{DT: dt.Name}
	hist := dt.History()
	var last *core.RefreshRecord
	for i := len(hist) - 1; i >= 0; i-- {
		if x := hist[i].Exec; x != nil && x.End.After(x.Start) {
			last = &hist[i]
			break
		}
	}
	if last == nil {
		return p
	}
	p.Exec = last.Exec.Duration()
	if job := last.Exec.Job; job != nil {
		p.QueueWait = job.Queued()
	}
	if last.TraceRoot != 0 {
		for _, r := range spans {
			if r.Root == last.TraceRoot && r.Parent != 0 && blamePhases[r.Name] {
				if p.Phases == nil {
					p.Phases = make(map[string]time.Duration)
				}
				p.Phases[r.Name] += r.Duration
			}
		}
	}
	return p
}
