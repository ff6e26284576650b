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
// text exposition format (version 0.0.4). The scrape reads catalog
// entries, DT names and bound plans, which DDL writes, so it holds the
// statement lock as a reader, like a query: it runs beside statements
// and refreshes and waits only for DDL, checkpoints and compaction
// sweeps. Refresh durations and lag gauges are in virtual time; request
// latencies, uptime and checkpoint age are host wall-clock.
func (e *Engine) MetricsText() string {
	e.stmtMu.RLock()
	defer e.stmtMu.RUnlock()
	var b strings.Builder

	scalar(&b, "dyntables_uptime_seconds", "gauge", "Host seconds since the engine was constructed.",
		fmtFloat(e.Uptime().Seconds()))
	scalar(&b, "dyntables_sessions", "gauge", "Open engine sessions.", fmtFloat(float64(e.SessionCount())))
	scalar(&b, "dyntables_open_cursors", "gauge", "Streaming cursors currently pinning snapshots.",
		fmtFloat(float64(e.OpenCursors())))

	scalar(&b, "dyntables_trace_spans_total", "counter", "Spans recorded by the execution tracer.", e.trc.SpanCount())

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

	family(b, "dyntables_refreshes_total", "counter", "Recorded refresh attempts per dynamic table.")
	for i, dt := range dts {
		fmt.Fprintf(b, "dyntables_refreshes_total{dt=%s} %d\n", labelQuote(dt.Name), counts[i].Attempts)
	}
	family(b, "dyntables_refresh_errors_total", "counter", "Failed refresh attempts per dynamic table.")
	for i, dt := range dts {
		fmt.Fprintf(b, "dyntables_refresh_errors_total{dt=%s} %d\n", labelQuote(dt.Name), counts[i].Errors)
	}
	family(b, "dyntables_refresh_duration_seconds_total", "counter", "Summed virtual refresh execution time per dynamic table.")
	for i, dt := range dts {
		fmt.Fprintf(b, "dyntables_refresh_duration_seconds_total{dt=%s} %s\n",
			labelQuote(dt.Name), fmtFloat(counts[i].Seconds))
	}
	// The resource counters sum the refreshes the refresher metered. CPU
	// is goroutine wall-time (an approximation — Go has no per-goroutine
	// CPU clock) and allocations are process-wide counter deltas taken on
	// the refreshing worker. A DT no tick has metered yet has no series.
	family(b, "dyntables_dt_cpu_seconds_total", "counter", "Approximate host CPU (goroutine wall-time) spent refreshing each dynamic table.")
	for i, dt := range dts {
		if counts[i].CPUSeconds > 0 {
			fmt.Fprintf(b, "dyntables_dt_cpu_seconds_total{dt=%s} %s\n",
				labelQuote(dt.Name), fmtFloat(counts[i].CPUSeconds))
		}
	}
	family(b, "dyntables_dt_alloc_bytes_total", "counter", "Heap bytes allocated while refreshing each dynamic table.")
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
	family(b, "dyntables_dt_lag_seconds", "gauge", "Virtual-clock staleness of each dynamic table (-1 before first refresh).")
	for _, r := range infos {
		lag := -1.0
		if !r.dataTS.IsZero() {
			lag = r.now.Sub(r.dataTS).Seconds()
		}
		fmt.Fprintf(b, "dyntables_dt_lag_seconds{dt=%s} %s\n", labelQuote(r.dt.Name), fmtFloat(lag))
	}
	family(b, "dyntables_dt_target_lag_seconds", "gauge", "Effective target lag per dynamic table.")
	for _, r := range infos {
		if r.target < sched.NoLag {
			fmt.Fprintf(b, "dyntables_dt_target_lag_seconds{dt=%s} %s\n", labelQuote(r.dt.Name), fmtFloat(r.target.Seconds()))
		}
	}
	family(b, "dyntables_dt_slo_attainment", "gauge", "Fraction of time each dynamic table spent within its target lag (0..1).")
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

	family(b, "dyntables_table_versions", "gauge", "Live MVCC versions retained per table.")
	for _, t := range fps {
		fmt.Fprintf(b, "dyntables_table_versions{table=%s} %d\n", labelQuote(t.name), t.fp.Versions)
	}
	family(b, "dyntables_table_live_rows", "gauge", "Rows visible at the newest version per table.")
	for _, t := range fps {
		fmt.Fprintf(b, "dyntables_table_live_rows{table=%s} %d\n", labelQuote(t.name), t.fp.LiveRows)
	}
	family(b, "dyntables_table_chain_rows", "gauge", "Change rows held across the retained version chain per table.")
	for _, t := range fps {
		fmt.Fprintf(b, "dyntables_table_chain_rows{table=%s} %d\n", labelQuote(t.name), t.fp.ChainRows)
	}
	family(b, "dyntables_table_bytes", "gauge", "Estimated bytes of the row-log rows the version chain reads (change sets and snapshot versions) per table.")
	for _, t := range fps {
		fmt.Fprintf(b, "dyntables_table_bytes{table=%s} %d\n", labelQuote(t.name), t.fp.Bytes)
	}
	family(b, "dyntables_table_index_bytes", "gauge", "Estimated bytes of the automatic lookup indexes per table.")
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
	family(b, "dyntables_dt_health_state", "gauge", "Health classification per dynamic table (0=HEALTHY 1=AT_RISK 2=MISSING_SLO 3=FAILING).")
	for _, r := range reports {
		fmt.Fprintf(b, "dyntables_dt_health_state{dt=%s} %d\n",
			labelQuote(r.Name), healthStateValue(r.Status))
	}
}

// writeRuntimeMetrics emits Go runtime gauges for the hosting process.
func (e *Engine) writeRuntimeMetrics(b *strings.Builder) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	scalar(b, "dyntables_go_heap_inuse_bytes", "gauge", "Heap bytes in in-use spans.", ms.HeapInuse)
	scalar(b, "dyntables_go_goroutines", "gauge", "Live goroutines in the hosting process.", runtime.NumGoroutine())
	scalar(b, "dyntables_go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.", fmtFloat(float64(ms.PauseTotalNs)/1e9))
}

// writeRequestMetrics emits the served-request latency histogram
// (host wall-clock; populated only when the engine serves the network
// protocol).
func (e *Engine) writeRequestMetrics(b *strings.Builder) {
	h := e.rec.RequestLatency()
	family(b, "dyntables_request_duration_seconds", "histogram", "Host latency of served protocol requests.")
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
	scalar(b, "dyntables_wal_bytes", "gauge", "Current WAL file length.", st.WALBytes)
	scalar(b, "dyntables_wal_appended_bytes_total", "counter", "Bytes ever appended to the WAL (survives checkpoint resets).", st.WALAppendedBytes)
	scalar(b, "dyntables_wal_appends_total", "counter", "WAL append operations.", st.WALAppends)
	scalar(b, "dyntables_wal_append_seconds_total", "counter", "Host time spent in WAL appends.", fmtFloat(st.WALAppendTime.Seconds()))
	scalar(b, "dyntables_checkpoints_total", "counter", "Snapshot checkpoints installed.", st.Checkpoints)
	age := -1.0
	if !st.LastCheckpoint.IsZero() {
		age = time.Since(st.LastCheckpoint).Seconds()
	}
	scalar(b, "dyntables_checkpoint_age_seconds", "gauge", "Host seconds since the last checkpoint (-1 if none yet).", fmtFloat(age))
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

	family(b, "dyntables_alert_evaluations_total", "counter", "Watchdog condition evaluations per alert.")
	for _, name := range names {
		fmt.Fprintf(b, "dyntables_alert_evaluations_total{alert=%s} %d\n", labelQuote(name), totals[name].Evaluations)
	}
	family(b, "dyntables_alert_firings_total", "counter", "Fired alert actions per alert.")
	for _, name := range names {
		fmt.Fprintf(b, "dyntables_alert_firings_total{alert=%s} %d\n", labelQuote(name), totals[name].Firings)
	}
	family(b, "dyntables_alert_action_errors_total", "counter", "Failed alert actions (webhook or SQL) per alert.")
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
	family(b, "dyntables_alert_firing", "gauge", "Whether the alert is currently in the FIRING state (1) or OK (0).")
	for _, g := range gauges {
		v := 0
		if g.firing {
			v = 1
		}
		fmt.Fprintf(b, "dyntables_alert_firing{alert=%s} %d\n", labelQuote(g.name), v)
	}
}

// family writes a metric family's # HELP and # TYPE header; its samples
// follow.
func family(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// scalar writes a family with one unlabelled sample; v prints with %v,
// so floats come formatted by fmtFloat.
func scalar(b *strings.Builder, name, typ, help string, v any) {
	family(b, name, typ, help)
	fmt.Fprintf(b, "%s %v\n", name, v)
}

// fmtFloat renders a metric value the shortest way Prometheus parsers
// accept.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// labelQuote escapes a label value per the exposition format.
func labelQuote(s string) string { return strconv.Quote(s) }
