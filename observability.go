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
	"dyntables/internal/refresher"
	"dyntables/internal/sched"
	"dyntables/internal/sql"
	"dyntables/internal/trace"
	"dyntables/internal/types"
	"dyntables/internal/warehouse"
)

// This file wires the observability subsystem: the obs.Recorder collects
// refresh, graph, lag and metering events from sink hooks in core,
// refresher, sched and warehouse, and the engine exposes the rings as
// INFORMATION_SCHEMA virtual tables resolvable by the normal planner —
// so every signal the engine produces is queryable with plain SQL
// through the ordinary session/cursor path.

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

// initObservability builds the recorder, layers the virtual-table
// resolver over the catalog resolver, and registers the engine's sink
// adapters with every producer subsystem. Called once from New.
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

	ad := &obsAdapter{e: e}
	e.ctrl.SetRefreshSink(ad)
	e.refr.SetSink(ad)
	e.sch.SetLagSink(ad)
	e.pool.SetJobSink(ad)
}

// Observability exposes the recorder (history rings, lag-SLO
// accounting) for Go-side monitoring; the same data is queryable through
// the INFORMATION_SCHEMA virtual tables.
func (e *Engine) Observability() *obs.Recorder { return e.rec }

// LagSLO returns a DT's lag-SLO attainment against its effective target
// lag, computed over the recorded sawtooth window up to now. The second
// return is false when the DT has no lag requirement (a DOWNSTREAM DT
// with no consumers) or no recorded samples.
func (e *Engine) LagSLO(name string) (obs.SLOStats, bool) {
	_, dt, err := e.dynamicTable(name)
	if err != nil {
		return obs.SLOStats{}, false
	}
	target := e.sch.EffectiveLag(dt)
	if target >= sched.NoLag {
		return obs.SLOStats{}, false
	}
	stats := e.rec.SLO(dt.Name, target, e.clk.Now())
	return stats, stats.Samples > 0
}

// obsAdapter fans producer hooks into the recorder. One adapter
// implements every sink interface; all recorder methods are safe for
// the concurrent refresh workers that invoke them.
type obsAdapter struct{ e *Engine }

// RefreshRecorded implements core.RefreshSink.
func (a *obsAdapter) RefreshRecorded(dt *core.DynamicTable, rec core.RefreshRecord) {
	ev := obs.RefreshEvent{
		DTName:            dt.Name,
		DataTS:            rec.DataTS,
		Action:            rec.Action.String(),
		Incremental:       rec.Action == core.ActionIncremental,
		Inserted:          rec.Inserted,
		Deleted:           rec.Deleted,
		RowsAfter:         rec.RowsAfter,
		SourceRowsScanned: rec.SourceRowsScanned,
		Mode:              rec.EffectiveMode.String(),
		ModeReason:        rec.ModeReason,
		ChangedRows:       rec.SourceRowsChanged,
		FullScanRows:      rec.FullScanEstimate,
		Wave:              -1,
		Worker:            -1,
		RootID:            rec.TraceRoot,
	}
	if rec.Err != nil {
		ev.Error = rec.Err.Error()
	}
	a.e.rec.RecordRefresh(ev)
}

// TickExecuted implements refresher.Sink: it backfills wave placement,
// worker slots and deterministic virtual timing onto the events the
// controller recorded during the tick, and records each refresh's
// metered resource usage (captured on the worker goroutine) into the
// resource ring.
func (a *obsAdapter) TickExecuted(results []refresher.Result) {
	for _, res := range results {
		a.e.rec.AnnotateExecution(res.DT.Name, res.Rec.DataTS, res.Wave, res.Worker, res.Start, res.End)
		a.e.rec.RecordResource(obs.ResourceEvent{
			Kind:         obs.ResourceRefresh,
			Name:         res.DT.Name,
			RootID:       res.Rec.TraceRoot,
			Start:        res.Usage.Start,
			CPU:          res.Usage.CPU,
			AllocBytes:   res.Usage.AllocBytes,
			AllocObjects: res.Usage.AllocObjects,
			Rows:         res.Rec.SourceRowsScanned + int64(res.Rec.Inserted) + int64(res.Rec.Deleted),
			Bytes:        res.Rec.ScanBytes,
		})
	}
}

// LagRecorded implements sched.LagSink.
func (a *obsAdapter) LagRecorded(dt *core.DynamicTable, p sched.LagPoint) {
	a.e.rec.RecordLag(obs.LagSample{
		DTName: dt.Name, At: p.At, DataTS: p.DataTS,
		Peak: p.PeakLag, Trough: p.TroughLag,
	})
}

// JobSubmitted implements warehouse.JobSink.
func (a *obsAdapter) JobSubmitted(w *warehouse.Warehouse, job warehouse.Job) {
	dur := job.End.Sub(job.Start)
	secs := float64((dur + time.Second - 1) / time.Second)
	a.e.rec.RecordJob(obs.MeterPoint{
		Warehouse: w.Name,
		Size:      w.Size.String(),
		Label:     job.Label,
		Submit:    job.Submit,
		Start:     job.Start,
		End:       job.End,
		Rows:      job.Rows,
		Credits:   secs / 3600 * w.Size.CreditsPerHour(),
	})
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

func infoCol(name string, kind types.Kind) types.Column {
	return types.Column{Name: name, Kind: kind}
}

var dynamicTablesSchema = types.Schema{Columns: []types.Column{
	infoCol("name", types.KindString),
	infoCol("state", types.KindString),
	infoCol("refresh_mode", types.KindString),
	infoCol("declared_mode", types.KindString),
	infoCol("mode_reason", types.KindString),
	infoCol("target_lag", types.KindString),
	infoCol("effective_lag", types.KindInterval),
	infoCol("warehouse", types.KindString),
	infoCol("rows", types.KindInt),
	infoCol("data_ts", types.KindTimestamp),
	infoCol("current_lag", types.KindInterval),
	infoCol("error_count", types.KindInt),
	infoCol("refreshes", types.KindInt),
	infoCol("slo_attainment", types.KindFloat),
	infoCol("lag_p50", types.KindInterval),
	infoCol("lag_p95", types.KindInterval),
}}

var refreshHistorySchema = types.Schema{Columns: []types.Column{
	infoCol("dt_name", types.KindString),
	infoCol("data_ts", types.KindTimestamp),
	infoCol("action", types.KindString),
	infoCol("incremental", types.KindBool),
	infoCol("inserted", types.KindInt),
	infoCol("deleted", types.KindInt),
	infoCol("rows_after", types.KindInt),
	infoCol("scanned", types.KindInt),
	infoCol("effective_mode", types.KindString),
	infoCol("mode_reason", types.KindString),
	infoCol("changed_rows", types.KindInt),
	infoCol("full_scan_rows", types.KindInt),
	infoCol("start_ts", types.KindTimestamp),
	infoCol("end_ts", types.KindTimestamp),
	infoCol("duration", types.KindInterval),
	infoCol("wave", types.KindInt),
	infoCol("worker", types.KindInt),
	infoCol("error", types.KindString),
	infoCol("seq", types.KindInt),
	infoCol("root_id", types.KindInt),
}}

var graphHistorySchema = types.Schema{Columns: []types.Column{
	infoCol("dt_name", types.KindString),
	infoCol("upstream", types.KindString),
	infoCol("upstream_kind", types.KindString),
	infoCol("valid_from", types.KindTimestamp),
	infoCol("seq", types.KindInt),
}}

var warehouseMeteringSchema = types.Schema{Columns: []types.Column{
	infoCol("warehouse", types.KindString),
	infoCol("size", types.KindString),
	infoCol("label", types.KindString),
	infoCol("submit_ts", types.KindTimestamp),
	infoCol("start_ts", types.KindTimestamp),
	infoCol("end_ts", types.KindTimestamp),
	infoCol("queued", types.KindInterval),
	infoCol("duration", types.KindInterval),
	infoCol("rows", types.KindInt),
	infoCol("credits", types.KindFloat),
	infoCol("seq", types.KindInt),
}}

var serverRequestsSchema = types.Schema{Columns: []types.Column{
	infoCol("method", types.KindString),
	infoCol("endpoint", types.KindString),
	infoCol("status", types.KindInt),
	infoCol("role", types.KindString),
	infoCol("session_id", types.KindString),
	infoCol("statement_id", types.KindString),
	infoCol("rows", types.KindInt),
	infoCol("start_ts", types.KindTimestamp),
	infoCol("duration", types.KindInterval),
	infoCol("request_id", types.KindString),
	infoCol("seq", types.KindInt),
}}

var queryHistorySchema = types.Schema{Columns: []types.Column{
	infoCol("seq", types.KindInt),
	infoCol("session_id", types.KindInt),
	infoCol("role", types.KindString),
	infoCol("text", types.KindString),
	infoCol("kind", types.KindString),
	infoCol("status", types.KindString),
	infoCol("rows", types.KindInt),
	infoCol("start_ts", types.KindTimestamp),
	infoCol("duration", types.KindInterval),
	infoCol("root_id", types.KindInt),
	infoCol("error", types.KindString),
}}

var resourceHistorySchema = types.Schema{Columns: []types.Column{
	infoCol("seq", types.KindInt),
	infoCol("kind", types.KindString),
	infoCol("name", types.KindString),
	infoCol("root_id", types.KindInt),
	infoCol("start_ts", types.KindTimestamp),
	infoCol("cpu", types.KindInterval),
	infoCol("alloc_bytes", types.KindInt),
	infoCol("alloc_objects", types.KindInt),
	infoCol("rows", types.KindInt),
	infoCol("bytes", types.KindInt),
}}

var dtHealthSchema = types.Schema{Columns: []types.Column{
	infoCol("dt", types.KindString),
	infoCol("status", types.KindString),
	infoCol("reason", types.KindString),
	infoCol("slo_attainment", types.KindFloat),
	infoCol("error_streak", types.KindInt),
	infoCol("cpu_trend", types.KindFloat),
	infoCol("blame", types.KindString),
	infoCol("blame_phase", types.KindString),
	infoCol("blame_cost", types.KindInterval),
}}

var alertsSchema = types.Schema{Columns: []types.Column{
	infoCol("name", types.KindString),
	infoCol("status", types.KindString),
	infoCol("suspended", types.KindBool),
	infoCol("schedule", types.KindInterval),
	infoCol("action", types.KindString),
	infoCol("owner", types.KindString),
	infoCol("condition", types.KindString),
	infoCol("firings", types.KindInt),
	infoCol("last_fired", types.KindTimestamp),
	infoCol("next_eval", types.KindTimestamp),
}}

var alertHistorySchema = types.Schema{Columns: []types.Column{
	infoCol("seq", types.KindInt),
	infoCol("alert", types.KindString),
	infoCol("eval_ts", types.KindTimestamp),
	infoCol("result", types.KindBool),
	infoCol("status", types.KindString),
	infoCol("fired", types.KindBool),
	infoCol("action", types.KindString),
	infoCol("action_error", types.KindString),
	infoCol("detail", types.KindString),
	infoCol("root_id", types.KindInt),
	infoCol("error", types.KindString),
	infoCol("duration", types.KindInterval),
}}

var traceSpansSchema = types.Schema{Columns: []types.Column{
	infoCol("root_id", types.KindInt),
	infoCol("span_id", types.KindInt),
	infoCol("parent_id", types.KindInt),
	infoCol("name", types.KindString),
	infoCol("attrs", types.KindString),
	infoCol("start_ts", types.KindTimestamp),
	infoCol("duration", types.KindInterval),
}}

// registerInfoSchema registers the virtual tables with the resolver
// layer. Each Rows callback materializes the current metadata snapshot
// at bind time, so the whole planner — filters, joins, aggregation,
// ORDER BY, streaming cursors — works over it unchanged.
func (e *Engine) registerInfoSchema() {
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaDynamicTables, Schema: dynamicTablesSchema,
		Rows: e.dynamicTablesRows,
	})
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaRefreshHistory, Schema: refreshHistorySchema,
		Rows: e.refreshHistoryRows,
	})
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaGraphHistory, Schema: graphHistorySchema,
		Rows: e.graphHistoryRows,
	})
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaWarehouseMetering, Schema: warehouseMeteringSchema,
		Rows: e.warehouseMeteringRows,
	})
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaServerRequests, Schema: serverRequestsSchema,
		Rows: e.serverRequestsRows,
	})
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaQueryHistory, Schema: queryHistorySchema,
		Rows: e.queryHistoryRows,
	})
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaTraceSpans, Schema: traceSpansSchema,
		Rows: e.traceSpansRows,
	})
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaResourceHistory, Schema: resourceHistorySchema,
		Rows: e.resourceHistoryRows,
	})
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaDTHealth, Schema: dtHealthSchema,
		Rows: e.dtHealthRows,
	})
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaAlerts, Schema: alertsSchema,
		Rows: e.alertsRows,
	})
	e.virt.Register(&plan.VirtualTable{
		Name: InfoSchemaAlertHistory, Schema: alertHistorySchema,
		Rows: e.alertHistoryRows,
	})
}

// tsOrNull converts a timestamp, mapping the zero time to NULL.
func tsOrNull(t time.Time) types.Value {
	if t.IsZero() {
		return types.Null
	}
	return types.NewTimestamp(t)
}

// intOrNull converts an int64, mapping 0 to NULL (used for span IDs,
// where 0 means "tracing was disabled").
func intOrNull(v int64) types.Value {
	if v == 0 {
		return types.Null
	}
	return types.NewInt(v)
}

// strOrNull converts a string, mapping "" to NULL.
func strOrNull(s string) types.Value {
	if s == "" {
		return types.Null
	}
	return types.NewString(s)
}

// targetLagText renders a TARGET_LAG setting.
func targetLagText(lag sql.TargetLag) string {
	if lag.Kind == sql.LagDownstream {
		return "DOWNSTREAM"
	}
	return lag.Duration.String()
}

// dynamicTablesRows builds INFORMATION_SCHEMA.DYNAMIC_TABLES: one row
// per DT with its state, refresh mode, lag settings and lag-SLO
// accounting (attainment fraction and effective-lag percentiles against
// the effective target lag).
func (e *Engine) dynamicTablesRows() ([]types.Row, error) {
	entries := e.cat.List(catalog.KindDynamicTable)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	now := e.clk.Now()
	rows := make([]types.Row, 0, len(entries))
	for _, entry := range entries {
		dt, ok := entry.Payload.(*core.DynamicTable)
		if !ok {
			continue
		}
		target := e.sch.EffectiveLag(dt)
		effective := types.Null
		slo, p50, p95 := types.Null, types.Null, types.Null
		if target < sched.NoLag {
			effective = types.NewInterval(target)
			if stats := e.rec.SLO(dt.Name, target, now); stats.Samples > 0 {
				slo = types.NewFloat(stats.Attainment)
				p50 = types.NewInterval(stats.P50)
				p95 = types.NewInterval(stats.P95)
			}
		}
		dataTS := dt.DataTimestamp()
		currentLag := types.Null
		if !dataTS.IsZero() {
			currentLag = types.NewInterval(now.Sub(dataTS))
		}
		mode, reason := dt.ModeDecision()
		rows = append(rows, types.Row{
			types.NewString(dt.Name),
			types.NewString(dt.State().String()),
			types.NewString(mode.String()),
			types.NewString(dt.DeclaredMode.String()),
			strOrNull(reason),
			types.NewString(targetLagText(dt.Lag)),
			effective,
			types.NewString(dt.Warehouse),
			types.NewInt(int64(dt.Storage.RowCount())),
			tsOrNull(dataTS),
			currentLag,
			types.NewInt(int64(dt.ErrorCount())),
			types.NewInt(int64(e.rec.HistoryLen(dt.Name))),
			slo,
			p50,
			p95,
		})
	}
	return rows, nil
}

// refreshHistoryRows builds
// INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY from the recorder's
// bounded per-DT rings.
func (e *Engine) refreshHistoryRows() ([]types.Row, error) {
	events := e.rec.AllHistory()
	rows := make([]types.Row, 0, len(events))
	for _, ev := range events {
		duration := types.Null
		if !ev.Start.IsZero() || !ev.End.IsZero() {
			duration = types.NewInterval(ev.Duration())
		}
		wave, worker := types.Null, types.Null
		if ev.Wave >= 0 {
			wave = types.NewInt(int64(ev.Wave))
		}
		if ev.Worker >= 0 {
			worker = types.NewInt(int64(ev.Worker))
		}
		changed, fullScan := types.Null, types.Null
		if ev.FullScanRows > 0 {
			changed = types.NewInt(ev.ChangedRows)
			fullScan = types.NewInt(ev.FullScanRows)
		}
		rows = append(rows, types.Row{
			types.NewString(ev.DTName),
			tsOrNull(ev.DataTS),
			types.NewString(ev.Action),
			types.NewBool(ev.Incremental),
			types.NewInt(int64(ev.Inserted)),
			types.NewInt(int64(ev.Deleted)),
			types.NewInt(int64(ev.RowsAfter)),
			types.NewInt(ev.SourceRowsScanned),
			strOrNull(ev.Mode),
			strOrNull(ev.ModeReason),
			changed,
			fullScan,
			tsOrNull(ev.Start),
			tsOrNull(ev.End),
			duration,
			wave,
			worker,
			strOrNull(ev.Error),
			types.NewInt(ev.Seq),
			intOrNull(ev.RootID),
		})
	}
	return rows, nil
}

// graphHistoryRows builds INFORMATION_SCHEMA.DYNAMIC_TABLE_GRAPH_HISTORY
// from the recorder's edge-observation ring.
func (e *Engine) graphHistoryRows() ([]types.Row, error) {
	edges := e.rec.Edges()
	rows := make([]types.Row, 0, len(edges))
	for _, ed := range edges {
		rows = append(rows, types.Row{
			types.NewString(ed.DTName),
			types.NewString(ed.Upstream),
			types.NewString(ed.UpstreamKind),
			tsOrNull(ed.ValidFrom),
			types.NewInt(ed.Seq),
		})
	}
	return rows, nil
}

// warehouseMeteringRows builds
// INFORMATION_SCHEMA.WAREHOUSE_METERING_HISTORY from the recorder's
// per-warehouse metering rings.
func (e *Engine) warehouseMeteringRows() ([]types.Row, error) {
	points := e.rec.Metering()
	rows := make([]types.Row, 0, len(points))
	for _, p := range points {
		rows = append(rows, types.Row{
			types.NewString(p.Warehouse),
			types.NewString(p.Size),
			strOrNull(p.Label),
			tsOrNull(p.Submit),
			tsOrNull(p.Start),
			tsOrNull(p.End),
			types.NewInterval(p.Start.Sub(p.Submit)),
			types.NewInterval(p.End.Sub(p.Start)),
			types.NewInt(p.Rows),
			types.NewFloat(p.Credits),
			types.NewInt(p.Seq),
		})
	}
	return rows, nil
}

// serverRequestsRows builds INFORMATION_SCHEMA.SERVER_REQUEST_HISTORY
// from the recorder's served-request ring (populated by the network
// server's per-endpoint metrics middleware; empty for embedded engines).
// Request timings are host wall-clock — they describe the serving path,
// not the virtual refresh timeline.
func (e *Engine) serverRequestsRows() ([]types.Row, error) {
	events := e.rec.Requests()
	rows := make([]types.Row, 0, len(events))
	for _, ev := range events {
		rows = append(rows, types.Row{
			types.NewString(ev.Method),
			types.NewString(ev.Endpoint),
			types.NewInt(int64(ev.Status)),
			strOrNull(ev.Role),
			strOrNull(ev.SessionID),
			strOrNull(ev.StatementID),
			types.NewInt(int64(ev.Rows)),
			tsOrNull(ev.Start),
			types.NewInterval(ev.Duration),
			strOrNull(ev.RequestID),
			types.NewInt(ev.Seq),
		})
	}
	return rows, nil
}

// queryHistoryRows builds INFORMATION_SCHEMA.QUERY_HISTORY from the
// recorder's shared statement ring. Statement text is recorded verbatim
// but bind-argument values are never captured, so parameterized
// statements stay redacted by construction.
func (e *Engine) queryHistoryRows() ([]types.Row, error) {
	events := e.rec.Statements()
	rows := make([]types.Row, 0, len(events))
	for _, ev := range events {
		rows = append(rows, types.Row{
			types.NewInt(ev.Seq),
			types.NewInt(ev.SessionID),
			strOrNull(ev.Role),
			types.NewString(ev.Text),
			strOrNull(ev.Kind),
			types.NewString(ev.Status),
			types.NewInt(ev.Rows),
			tsOrNull(ev.Start),
			types.NewInterval(ev.Duration),
			intOrNull(ev.RootID),
			strOrNull(ev.Error),
		})
	}
	return rows, nil
}

// traceSpansRows builds INFORMATION_SCHEMA.TRACE_SPANS: the flattened
// span tree of every retained root trace, joinable against
// QUERY_HISTORY and DYNAMIC_TABLE_REFRESH_HISTORY on root_id. Span
// timings are host wall-clock (they describe real execution work, not
// the virtual refresh timeline).
func (e *Engine) traceSpansRows() ([]types.Row, error) {
	records := e.trc.Snapshot()
	rows := make([]types.Row, 0, len(records))
	for _, r := range records {
		var attrs string
		for i, a := range r.Attrs {
			if i > 0 {
				attrs += " "
			}
			attrs += a.Key + "=" + a.Value
		}
		rows = append(rows, types.Row{
			types.NewInt(r.Root),
			types.NewInt(r.ID),
			intOrNull(r.Parent),
			types.NewString(r.Name),
			strOrNull(attrs),
			tsOrNull(r.Start),
			types.NewInterval(r.Duration),
		})
	}
	return rows, nil
}

// resourceHistoryRows builds INFORMATION_SCHEMA.RESOURCE_HISTORY from
// the recorder's shared resource ring: one row per metered unit of work
// (scheduler-tick refreshes and session statements), joinable against
// QUERY_HISTORY, DYNAMIC_TABLE_REFRESH_HISTORY and TRACE_SPANS on
// root_id.
func (e *Engine) resourceHistoryRows() ([]types.Row, error) {
	events := e.rec.Resources()
	rows := make([]types.Row, 0, len(events))
	for _, ev := range events {
		rows = append(rows, types.Row{
			types.NewInt(ev.Seq),
			types.NewString(ev.Kind),
			strOrNull(ev.Name),
			intOrNull(ev.RootID),
			tsOrNull(ev.Start),
			types.NewInterval(ev.CPU),
			types.NewInt(ev.AllocBytes),
			types.NewInt(ev.AllocObjects),
			types.NewInt(ev.Rows),
			types.NewInt(ev.Bytes),
		})
	}
	return rows, nil
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
// refresh-CPU trend from the resource ring. DTs classified at or below
// AT_RISK get a blame attribution: the engine walks Controller.Upstreams
// and the span forest to find the DAG node and phase that consumed the
// lag budget. The previous per-DT status is remembered on the engine so
// the classifier's hysteresis has its memory.
func (e *Engine) healthReports() []healthReport {
	entries := e.cat.List(catalog.KindDynamicTable)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	now := e.clk.Now()
	spans := e.trc.Snapshot()
	meter := e.rec.Metering()

	e.healthMu.Lock()
	defer e.healthMu.Unlock()
	if e.healthPrev == nil {
		e.healthPrev = make(map[string]health.Status)
	}

	reports := make([]healthReport, 0, len(entries))
	for _, entry := range entries {
		dt, ok := entry.Payload.(*core.DynamicTable)
		if !ok {
			continue
		}
		in := health.Input{
			Name:        dt.Name,
			Suspended:   dt.State() == core.StateSuspended,
			ErrorStreak: dt.ErrorCount(),
			CPUTrend:    health.CPUTrendRatio(e.rec.RefreshCPUSeries(dt.Name)),
		}
		if target := e.sch.EffectiveLag(dt); target < sched.NoLag {
			in.HasSLO = true
			stats := e.rec.SLO(dt.Name, target, now)
			in.Attainment = stats.Attainment
			in.Samples = stats.Samples
		}
		prev := e.healthPrev[dt.Name]
		if prev == "" {
			prev = health.Healthy
		}
		status, reason := health.Evaluate(in, prev, health.Thresholds{})
		e.healthPrev[dt.Name] = status

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
			rep.Blame = e.attributeBlame(dt, spans, meter)
		}
		reports = append(reports, rep)
	}
	return reports
}

// attributeBlame builds phase breakdowns for the DT and its upstream DTs
// and asks the pure attributor which node/phase dominated.
func (e *Engine) attributeBlame(dt *core.DynamicTable, spans []trace.Record, meter []obs.MeterPoint) health.Blame {
	self := e.phaseBreakdown(dt.Name, spans, meter)
	var ups []health.PhaseBreakdown
	if upstream, err := e.ctrl.Upstreams(dt); err == nil {
		for _, up := range upstream {
			ups = append(ups, e.phaseBreakdown(up.Name, spans, meter))
		}
	}
	return health.Attribute(self, ups)
}

// phaseBreakdown assembles one DT's latest refresh cost: virtual job
// duration from refresh history, queue wait from the newest metering
// point labeled with the DT, and traced phase spans under the refresh
// root.
func (e *Engine) phaseBreakdown(dtName string, spans []trace.Record, meter []obs.MeterPoint) health.PhaseBreakdown {
	p := health.PhaseBreakdown{DT: dtName}
	hist := e.rec.History(dtName)
	var last obs.RefreshEvent
	for i := len(hist) - 1; i >= 0; i-- {
		if ev := hist[i]; !ev.Start.IsZero() && ev.End.After(ev.Start) {
			last = ev
			break
		}
	}
	if last.DTName == "" {
		return p
	}
	p.Exec = last.End.Sub(last.Start)
	for i := len(meter) - 1; i >= 0; i-- {
		if meter[i].Label == dtName {
			p.QueueWait = meter[i].Start.Sub(meter[i].Submit)
			break
		}
	}
	if last.RootID != 0 {
		for _, r := range spans {
			if r.Root == last.RootID && r.Parent != 0 && blamePhases[r.Name] {
				if p.Phases == nil {
					p.Phases = make(map[string]time.Duration)
				}
				p.Phases[r.Name] += r.Duration
			}
		}
	}
	return p
}

// dtHealthRows builds INFORMATION_SCHEMA.DT_HEALTH: one evaluated row
// per DT, with blame columns populated for AT_RISK / MISSING_SLO rows.
func (e *Engine) dtHealthRows() ([]types.Row, error) {
	reports := e.healthReports()
	rows := make([]types.Row, 0, len(reports))
	for _, rep := range reports {
		attainment, trend := types.Null, types.Null
		if rep.HasSLO && rep.Samples > 0 {
			attainment = types.NewFloat(rep.Attainment)
		}
		if rep.CPUTrend > 0 {
			trend = types.NewFloat(rep.CPUTrend)
		}
		blameCost := types.Null
		if rep.Blame.Culprit != "" {
			blameCost = types.NewInterval(rep.Blame.Cost)
		}
		rows = append(rows, types.Row{
			types.NewString(rep.Name),
			types.NewString(string(rep.Status)),
			types.NewString(rep.Reason),
			attainment,
			types.NewInt(int64(rep.ErrorStreak)),
			trend,
			strOrNull(rep.Blame.Culprit),
			strOrNull(rep.Blame.Phase),
			blameCost,
		})
	}
	return rows, nil
}

// warehousesRows backs SHOW WAREHOUSES: one row per warehouse with its
// size and billing aggregates.
var showWarehousesColumns = []string{
	"name", "size", "auto_suspend", "billed", "credits", "resumes", "jobs", "busy_until",
}

func (e *Engine) warehousesRows() []types.Row {
	whs := e.pool.All()
	sort.Slice(whs, func(i, j int) bool { return whs[i].Name < whs[j].Name })
	rows := make([]types.Row, 0, len(whs))
	for _, wh := range whs {
		rows = append(rows, types.Row{
			types.NewString(wh.Name),
			types.NewString(wh.Size.String()),
			types.NewInterval(wh.AutoSuspend),
			types.NewInterval(wh.BilledTime()),
			types.NewFloat(wh.Credits()),
			types.NewInt(int64(wh.Resumes())),
			types.NewInt(int64(wh.JobCount())),
			tsOrNull(wh.BusyUntil()),
		})
	}
	return rows
}
