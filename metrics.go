package dyntables

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dyntables/internal/alert"
	"dyntables/internal/catalog"
	"dyntables/internal/core"
	"dyntables/internal/health"
	"dyntables/internal/obs"
	"dyntables/internal/sched"
	"dyntables/internal/storage"
)

// MetricsText renders the engine's operational state in the Prometheus
// text exposition format (version 0.0.4). Every value comes from a
// snapshot accessor with its own short-lived lock — no engine lock is
// held across the whole scrape, so a slow scraper never stalls
// refreshes or statements. Refresh durations and lag gauges are in
// virtual time; request latencies, uptime and checkpoint age are host
// wall-clock.
func (e *Engine) MetricsText() string {
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, fmtFloat(v))
	}

	gauge("dyntables_uptime_seconds", "Host seconds since the engine was constructed.",
		e.Uptime().Seconds())
	gauge("dyntables_sessions", "Open engine sessions.", float64(e.SessionCount()))
	gauge("dyntables_open_cursors", "Streaming cursors currently pinning snapshots.",
		float64(e.OpenCursors()))

	fmt.Fprintf(&b, "# HELP dyntables_trace_spans_total Spans recorded by the execution tracer.\n")
	fmt.Fprintf(&b, "# TYPE dyntables_trace_spans_total counter\n")
	fmt.Fprintf(&b, "dyntables_trace_spans_total %d\n", e.trc.SpanCount())

	e.writeRefreshMetrics(&b)
	e.writeLagMetrics(&b)
	e.writeFootprintMetrics(&b)
	e.writeHealthMetrics(&b)
	e.writeAlertMetrics(&b)
	e.writeRequestMetrics(&b)
	e.writePersistMetrics(&b)
	e.writeRuntimeMetrics(&b)
	return b.String()
}

// writeRefreshMetrics emits each DT's monotonic refresh counters,
// resource counters included.
func (e *Engine) writeRefreshMetrics(b *strings.Builder) {
	dts := e.sortedDTs()
	counts := make([]core.RefreshCounts, len(dts))
	for i, dt := range dts {
		counts[i] = dt.Counts()
	}

	fmt.Fprintf(b, "# HELP dyntables_refreshes_total Recorded refresh attempts per dynamic table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_refreshes_total counter\n")
	for i, dt := range dts {
		fmt.Fprintf(b, "dyntables_refreshes_total{dt=%s} %d\n", labelQuote(dt.Name), counts[i].Attempts)
	}
	fmt.Fprintf(b, "# HELP dyntables_refresh_errors_total Failed refresh attempts per dynamic table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_refresh_errors_total counter\n")
	for i, dt := range dts {
		fmt.Fprintf(b, "dyntables_refresh_errors_total{dt=%s} %d\n", labelQuote(dt.Name), counts[i].Errors)
	}
	fmt.Fprintf(b, "# HELP dyntables_refresh_duration_seconds_total Summed virtual refresh execution time per dynamic table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_refresh_duration_seconds_total counter\n")
	for i, dt := range dts {
		fmt.Fprintf(b, "dyntables_refresh_duration_seconds_total{dt=%s} %s\n",
			labelQuote(dt.Name), fmtFloat(counts[i].Seconds))
	}
	// The resource counters sum the refreshes the refresher metered. CPU
	// is goroutine wall-time (an approximation — Go has no per-goroutine
	// CPU clock) and allocations are process-wide counter deltas taken on
	// the refreshing worker. A DT no tick has metered yet has no series.
	fmt.Fprintf(b, "# HELP dyntables_dt_cpu_seconds_total Approximate host CPU (goroutine wall-time) spent refreshing each dynamic table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_dt_cpu_seconds_total counter\n")
	for i, dt := range dts {
		if counts[i].CPUSeconds > 0 {
			fmt.Fprintf(b, "dyntables_dt_cpu_seconds_total{dt=%s} %s\n",
				labelQuote(dt.Name), fmtFloat(counts[i].CPUSeconds))
		}
	}
	fmt.Fprintf(b, "# HELP dyntables_dt_alloc_bytes_total Heap bytes allocated while refreshing each dynamic table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_dt_alloc_bytes_total counter\n")
	for i, dt := range dts {
		if counts[i].CPUSeconds > 0 {
			fmt.Fprintf(b, "dyntables_dt_alloc_bytes_total{dt=%s} %d\n",
				labelQuote(dt.Name), counts[i].AllocBytes)
		}
	}
}

// writeLagMetrics emits the per-DT freshness gauges: current lag against
// the virtual clock, the effective target, and lag-SLO attainment over
// the recorded sawtooth window.
func (e *Engine) writeLagMetrics(b *strings.Builder) {
	infos := e.dynamicTableInfos()
	fmt.Fprintf(b, "# HELP dyntables_dt_lag_seconds Virtual-clock staleness of each dynamic table (-1 before first refresh).\n")
	fmt.Fprintf(b, "# TYPE dyntables_dt_lag_seconds gauge\n")
	for _, r := range infos {
		lag := -1.0
		if !r.dataTS.IsZero() {
			lag = r.now.Sub(r.dataTS).Seconds()
		}
		fmt.Fprintf(b, "dyntables_dt_lag_seconds{dt=%s} %s\n", labelQuote(r.dt.Name), fmtFloat(lag))
	}
	fmt.Fprintf(b, "# HELP dyntables_dt_target_lag_seconds Effective target lag per dynamic table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_dt_target_lag_seconds gauge\n")
	for _, r := range infos {
		if r.target < sched.NoLag {
			fmt.Fprintf(b, "dyntables_dt_target_lag_seconds{dt=%s} %s\n", labelQuote(r.dt.Name), fmtFloat(r.target.Seconds()))
		}
	}
	fmt.Fprintf(b, "# HELP dyntables_dt_slo_attainment Fraction of time each dynamic table spent within its target lag (0..1).\n")
	fmt.Fprintf(b, "# TYPE dyntables_dt_slo_attainment gauge\n")
	for _, r := range infos {
		if r.slo.Samples > 0 {
			fmt.Fprintf(b, "dyntables_dt_slo_attainment{dt=%s} %s\n", labelQuote(r.dt.Name), fmtFloat(r.slo.Attainment))
		}
	}
}

// writeFootprintMetrics emits per-table memory accounting gauges: live
// rows, version-chain rows, estimated resident bytes and lookup-index
// bytes for every base table and dynamic-table materialization.
func (e *Engine) writeFootprintMetrics(b *strings.Builder) {
	type tableFP struct {
		name string
		fp   storage.Footprint
	}
	var fps []tableFP
	for _, entry := range e.cat.List(catalog.KindTable) {
		if to, ok := entry.Payload.(*tableObject); ok && to.table != nil {
			fps = append(fps, tableFP{entry.Name, to.table.FootprintStats()})
		}
	}
	for _, entry := range e.cat.List(catalog.KindDynamicTable) {
		if dt, ok := entry.Payload.(*core.DynamicTable); ok && dt.Storage != nil {
			fps = append(fps, tableFP{entry.Name, dt.Storage.FootprintStats()})
		}
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i].name < fps[j].name })

	fmt.Fprintf(b, "# HELP dyntables_table_versions Live MVCC versions retained per table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_table_versions gauge\n")
	for _, t := range fps {
		fmt.Fprintf(b, "dyntables_table_versions{table=%s} %d\n", labelQuote(t.name), t.fp.Versions)
	}
	fmt.Fprintf(b, "# HELP dyntables_table_live_rows Rows visible at the newest version per table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_table_live_rows gauge\n")
	for _, t := range fps {
		fmt.Fprintf(b, "dyntables_table_live_rows{table=%s} %d\n", labelQuote(t.name), t.fp.LiveRows)
	}
	fmt.Fprintf(b, "# HELP dyntables_table_chain_rows Change rows held across the retained version chain per table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_table_chain_rows gauge\n")
	for _, t := range fps {
		fmt.Fprintf(b, "dyntables_table_chain_rows{table=%s} %d\n", labelQuote(t.name), t.fp.ChainRows)
	}
	fmt.Fprintf(b, "# HELP dyntables_table_bytes Estimated bytes of the row-log rows the version chain reads (change sets and snapshot versions) per table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_table_bytes gauge\n")
	for _, t := range fps {
		fmt.Fprintf(b, "dyntables_table_bytes{table=%s} %d\n", labelQuote(t.name), t.fp.Bytes)
	}
	fmt.Fprintf(b, "# HELP dyntables_table_index_bytes Estimated bytes of the automatic lookup indexes per table.\n")
	fmt.Fprintf(b, "# TYPE dyntables_table_index_bytes gauge\n")
	for _, t := range fps {
		fmt.Fprintf(b, "dyntables_table_index_bytes{table=%s} %d\n", labelQuote(t.name), t.fp.IndexBytes)
	}
}

// healthStateValue maps a health status onto the numeric enum exported
// by dyntables_dt_health_state (higher is worse).
func healthStateValue(s health.Status) int {
	switch s {
	case health.AtRisk:
		return 1
	case health.MissingSLO:
		return 2
	case health.Failing:
		return 3
	default:
		return 0
	}
}

// writeHealthMetrics emits the per-DT health classification as a
// numeric enum gauge: 0=HEALTHY 1=AT_RISK 2=MISSING_SLO 3=FAILING.
func (e *Engine) writeHealthMetrics(b *strings.Builder) {
	reports := e.healthReports()
	fmt.Fprintf(b, "# HELP dyntables_dt_health_state Health classification per dynamic table (0=HEALTHY 1=AT_RISK 2=MISSING_SLO 3=FAILING).\n")
	fmt.Fprintf(b, "# TYPE dyntables_dt_health_state gauge\n")
	for _, r := range reports {
		fmt.Fprintf(b, "dyntables_dt_health_state{dt=%s} %d\n",
			labelQuote(r.Name), healthStateValue(r.Status))
	}
}

// writeRuntimeMetrics emits Go runtime gauges for the hosting process.
func (e *Engine) writeRuntimeMetrics(b *strings.Builder) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(b, "# HELP dyntables_go_heap_inuse_bytes Heap bytes in in-use spans.\n")
	fmt.Fprintf(b, "# TYPE dyntables_go_heap_inuse_bytes gauge\n")
	fmt.Fprintf(b, "dyntables_go_heap_inuse_bytes %d\n", ms.HeapInuse)
	fmt.Fprintf(b, "# HELP dyntables_go_goroutines Live goroutines in the hosting process.\n")
	fmt.Fprintf(b, "# TYPE dyntables_go_goroutines gauge\n")
	fmt.Fprintf(b, "dyntables_go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(b, "# HELP dyntables_go_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n")
	fmt.Fprintf(b, "# TYPE dyntables_go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(b, "dyntables_go_gc_pause_seconds_total %s\n",
		fmtFloat(float64(ms.PauseTotalNs)/1e9))
}

// writeRequestMetrics emits the served-request latency histogram
// (host wall-clock; populated only when the engine serves the network
// protocol).
func (e *Engine) writeRequestMetrics(b *strings.Builder) {
	h := e.rec.RequestLatency()
	fmt.Fprintf(b, "# HELP dyntables_request_duration_seconds Host latency of served protocol requests.\n")
	fmt.Fprintf(b, "# TYPE dyntables_request_duration_seconds histogram\n")
	for i, bound := range obs.RequestBuckets {
		fmt.Fprintf(b, "dyntables_request_duration_seconds_bucket{le=%q} %d\n",
			fmtFloat(bound), h.Buckets[i])
	}
	fmt.Fprintf(b, "dyntables_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", h.Count)
	fmt.Fprintf(b, "dyntables_request_duration_seconds_sum %s\n", fmtFloat(h.Sum))
	fmt.Fprintf(b, "dyntables_request_duration_seconds_count %d\n", h.Count)
}

// writePersistMetrics emits WAL and checkpoint state; nothing for
// in-memory engines.
func (e *Engine) writePersistMetrics(b *strings.Builder) {
	st, ok := e.PersistStats()
	if !ok {
		return
	}
	fmt.Fprintf(b, "# HELP dyntables_wal_bytes Current WAL file length.\n")
	fmt.Fprintf(b, "# TYPE dyntables_wal_bytes gauge\n")
	fmt.Fprintf(b, "dyntables_wal_bytes %d\n", st.WALBytes)
	fmt.Fprintf(b, "# HELP dyntables_wal_appended_bytes_total Bytes ever appended to the WAL (survives checkpoint resets).\n")
	fmt.Fprintf(b, "# TYPE dyntables_wal_appended_bytes_total counter\n")
	fmt.Fprintf(b, "dyntables_wal_appended_bytes_total %d\n", st.WALAppendedBytes)
	fmt.Fprintf(b, "# HELP dyntables_wal_appends_total WAL append operations.\n")
	fmt.Fprintf(b, "# TYPE dyntables_wal_appends_total counter\n")
	fmt.Fprintf(b, "dyntables_wal_appends_total %d\n", st.WALAppends)
	fmt.Fprintf(b, "# HELP dyntables_wal_append_seconds_total Host time spent in WAL appends.\n")
	fmt.Fprintf(b, "# TYPE dyntables_wal_append_seconds_total counter\n")
	fmt.Fprintf(b, "dyntables_wal_append_seconds_total %s\n", fmtFloat(st.WALAppendTime.Seconds()))
	fmt.Fprintf(b, "# HELP dyntables_checkpoints_total Snapshot checkpoints installed.\n")
	fmt.Fprintf(b, "# TYPE dyntables_checkpoints_total counter\n")
	fmt.Fprintf(b, "dyntables_checkpoints_total %d\n", st.Checkpoints)
	fmt.Fprintf(b, "# HELP dyntables_checkpoint_age_seconds Host seconds since the last checkpoint (-1 if none yet).\n")
	fmt.Fprintf(b, "# TYPE dyntables_checkpoint_age_seconds gauge\n")
	age := -1.0
	if !st.LastCheckpoint.IsZero() {
		age = time.Since(st.LastCheckpoint).Seconds()
	}
	fmt.Fprintf(b, "dyntables_checkpoint_age_seconds %s\n", fmtFloat(age))
}

// writeAlertMetrics emits the watchdog families: monotonic per-alert
// evaluation/firing/action-error counters from the recorder's totals
// (they survive ring eviction) and the current firing gauge from the
// live registry.
func (e *Engine) writeAlertMetrics(b *strings.Builder) {
	totals := e.rec.AlertCounters()
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(b, "# HELP dyntables_alert_evaluations_total Watchdog condition evaluations per alert.\n")
	fmt.Fprintf(b, "# TYPE dyntables_alert_evaluations_total counter\n")
	for _, name := range names {
		fmt.Fprintf(b, "dyntables_alert_evaluations_total{alert=%s} %d\n", labelQuote(name), totals[name].Evaluations)
	}
	fmt.Fprintf(b, "# HELP dyntables_alert_firings_total Fired alert actions per alert.\n")
	fmt.Fprintf(b, "# TYPE dyntables_alert_firings_total counter\n")
	for _, name := range names {
		fmt.Fprintf(b, "dyntables_alert_firings_total{alert=%s} %d\n", labelQuote(name), totals[name].Firings)
	}
	fmt.Fprintf(b, "# HELP dyntables_alert_action_errors_total Failed alert actions (webhook or SQL) per alert.\n")
	fmt.Fprintf(b, "# TYPE dyntables_alert_action_errors_total counter\n")
	for _, name := range names {
		fmt.Fprintf(b, "dyntables_alert_action_errors_total{alert=%s} %d\n", labelQuote(name), totals[name].ActionErrors)
	}

	e.alertMu.Lock()
	type alertGauge struct {
		name   string
		firing bool
	}
	gauges := make([]alertGauge, 0, len(e.alerts))
	for name, entry := range e.alerts {
		gauges = append(gauges, alertGauge{name, entry.state.Status == alert.Firing})
	}
	e.alertMu.Unlock()
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	fmt.Fprintf(b, "# HELP dyntables_alert_firing Whether the alert is currently in the FIRING state (1) or OK (0).\n")
	fmt.Fprintf(b, "# TYPE dyntables_alert_firing gauge\n")
	for _, g := range gauges {
		v := 0
		if g.firing {
			v = 1
		}
		fmt.Fprintf(b, "dyntables_alert_firing{alert=%s} %d\n", labelQuote(g.name), v)
	}
}

// fmtFloat renders a metric value the shortest way Prometheus parsers
// accept.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// labelQuote escapes a label value per the exposition format.
func labelQuote(s string) string { return strconv.Quote(s) }
