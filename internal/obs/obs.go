// Package obs is the engine's observability subsystem: it records every
// dependency-graph edge, executed statement (with its metered resource
// use), served request and alert evaluation into bounded history rings,
// and computes lag-SLO attainment (the fraction of wall-clock time a
// dynamic table spent within its target lag, plus effective-lag
// percentiles) over a lag sawtooth. Nothing here is kept per dynamic
// table or per warehouse: each DT's refresh records, and the lag
// sawtooth, resource cost and billed warehouse jobs derived from them,
// live in the DT's own history ring (core.DynamicTable.History), which
// checkpoints carry and DDL moves with the DT.
//
// The recorder is a passive sink: producers (sessions, the server and
// the alert watchdog) push events into it. Consumers read the same data
// back through SQL — the engine exposes the rings as INFORMATION_SCHEMA
// virtual tables resolvable by the normal planner — so the system is
// observable through its own query path.
//
// All methods are safe for concurrent use; accessors return defensive
// copies so monitoring readers never observe a torn snapshot while
// refreshes append.
package obs

import (
	"math"
	"sort"
	"sync"
	"time"

	"dyntables/internal/ring"
)

// DefaultCapacity is the per-ring event bound: rings keep the most
// recent DefaultCapacity entries so long-running schedulers do not grow
// without bound.
const DefaultCapacity = 1024

// GraphEdge is one observed dependency edge of the DT graph: DTName's
// defining query reads Upstream.
type GraphEdge struct {
	// Seq orders edge observations recorder-globally.
	Seq int64
	// DTName is the downstream dynamic table.
	DTName string
	// Upstream names the source object the defining query reads.
	Upstream string
	// UpstreamKind is the source's catalog kind (TABLE, DYNAMIC TABLE, ...).
	UpstreamKind string
	// ValidFrom is when the edge was observed (DT creation, clone or
	// recovery registration).
	ValidFrom time.Time
}

// LagSample is one lag-sawtooth point, derived from a refresh commit:
// lag peaks just before the commit and drops to the trough just after
// (Figure 4 of the paper).
type LagSample struct {
	DTName string
	// At is the measurement time (the refresh's virtual completion).
	At time.Time
	// DataTS is the refresh's data timestamp.
	DataTS time.Time
	// Peak is the lag immediately before the commit, Trough immediately
	// after.
	Peak, Trough time.Duration
}

// RequestEvent is one network-protocol request served by the engine's
// HTTP server (internal/server): the route it hit, its outcome, and the
// protocol objects it touched. Unlike the lag sawtooth and warehouse
// metering, requests are timed in host wall-clock time — they measure
// the serving path, not the virtual refresh timeline.
type RequestEvent struct {
	// Seq orders request observations recorder-globally.
	Seq int64
	// Method is the HTTP method and Endpoint the registered route pattern
	// (not the raw URL, so requests aggregate per endpoint).
	Method, Endpoint string
	// Status is the HTTP response status code.
	Status int
	// Role is the role the request ran under; empty for unauthenticated
	// routes.
	Role string
	// SessionID and StatementID tie the request to protocol objects when
	// it addressed one; empty otherwise.
	SessionID, StatementID string
	// Rows counts result rows carried in the response body.
	Rows int
	// Start is the request's wall-clock arrival and Duration the host
	// time spent serving it.
	Start    time.Time
	Duration time.Duration
	// RequestID is the client-supplied X-Request-Id header value, empty
	// when the client sent none. It correlates remote traces end to end.
	RequestID string
}

// AlertEvent is one watchdog evaluation of a declared alert, recorded
// for INFORMATION_SCHEMA.ALERT_HISTORY. Evaluations run on scheduler
// ticks at virtual-clock instants, so At is virtual time while Duration
// is the host time the condition query took.
type AlertEvent struct {
	// Seq orders alert observations recorder-globally.
	Seq int64
	// Alert is the evaluated alert's name.
	Alert string
	// At is the virtual-clock instant of the evaluation.
	At time.Time
	// Result is whether the condition held (EXISTS returned rows).
	Result bool
	// Status is the alert's state after this evaluation (OK or FIRING).
	Status string
	// Fired reports whether the action ran on this evaluation: only the
	// OK→FIRING transition outside the suppression window fires.
	Fired bool
	// Action renders the alert's action (RECORD, CALL WEBHOOK '...', or
	// the SQL text).
	Action string
	// ActionErr is the action's failure message; empty on success or
	// when nothing fired.
	ActionErr string
	// Detail is a bounded sample of the condition rows that made EXISTS
	// true (e.g. the blamed DT from a DT_HEALTH condition).
	Detail string
	// RootID is the evaluation's trace-root span ID, joinable against
	// INFORMATION_SCHEMA.TRACE_SPANS; 0 when tracing was disabled.
	RootID int64
	// Error is the condition query's failure message, if it failed.
	Error string
	// Duration is the host time spent evaluating condition + action.
	Duration time.Duration
}

// AlertTotals are monotonic per-alert counters backing the
// dyntables_alert_* metric families; unlike the bounded rings they never
// evict.
type AlertTotals struct {
	// Evaluations counts condition evaluations, Firings fired actions,
	// and ActionErrors failed actions (webhook/SQL errors).
	Evaluations, Firings, ActionErrors int64
}

// StatementEvent is one executed SQL statement, recorded for
// INFORMATION_SCHEMA.QUERY_HISTORY. Only the statement text is kept —
// bind-argument values are never recorded, so parameterized statements
// stay redacted by construction. Statements are timed in host
// wall-clock time, like requests.
type StatementEvent struct {
	// Seq orders statement observations recorder-globally.
	Seq int64
	// SessionID identifies the engine session the statement ran in.
	SessionID int64
	// Role is the session role in force at execution.
	Role string
	// Text is the statement's SQL text (parameter markers included,
	// bound values excluded).
	Text string
	// Kind labels the statement class (SELECT, INSERT, CREATE, ...).
	Kind string
	// Status is SUCCESS, ERROR or CANCELED.
	Status string
	// Rows counts result rows produced (or rows affected for DML).
	Rows int64
	// Start is the statement's wall-clock arrival and Duration the host
	// time spent executing it. Cursor statements close their event when
	// the cursor is released, so Duration covers the full streamed read.
	Start    time.Time
	Duration time.Duration
	// RootID is the statement's trace-root span ID, joinable against
	// INFORMATION_SCHEMA.TRACE_SPANS; 0 when tracing was disabled.
	RootID int64
	// Error is the failure message for ERROR/CANCELED statements.
	Error string
	// Usage is the host resource cost metered around the statement, the
	// statement's RESOURCE_HISTORY row; nil for the unmetered ones
	// (cursor statements and bind errors).
	Usage *Usage
}

// RequestBuckets are the upper bounds, in seconds, of the
// request-latency histogram exposed at /metrics.
var RequestBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5}

// RequestHist is a snapshot of the served-request latency histogram.
// Buckets holds cumulative counts per RequestBuckets bound (Prometheus
// `le` semantics); Count and Sum cover every observation.
type RequestHist struct {
	Buckets []int64
	Count   int64
	Sum     float64
}

// SLOStats aggregates a DT's lag-SLO attainment over its sawtooth
// window.
type SLOStats struct {
	// Samples is how many sawtooth points contributed.
	Samples int
	// Attainment is the fraction of covered wall-clock time the DT spent
	// within the target lag (0..1). Lag is interpolated linearly between
	// refresh commits, matching the sawtooth shape.
	Attainment float64
	// P50 and P95 are percentiles of the per-cycle peak (worst-case
	// effective) lag.
	P50, P95 time.Duration
}

// Recorder accumulates observability events in bounded graph-edge,
// request, statement and alert rings. A disabled recorder (see
// NewDisabled) drops every event, for overhead baselines.
type Recorder struct {
	mu       sync.RWMutex
	enabled  bool
	capacity int
	seq      int64

	edges      *ring.Ring[GraphEdge]
	requests   *ring.Ring[RequestEvent]
	statements *ring.Ring[StatementEvent]
	alerts     *ring.Ring[AlertEvent]

	// alertTotals and reqBuckets/reqCount/reqSum are the monotonic
	// /metrics aggregates; rings evict, these never do.
	alertTotals map[string]*AlertTotals
	reqBuckets  []int64 // per-bound counts (non-cumulative)
	reqCount    int64
	reqSum      float64
}

// NewRecorder creates a recorder with the given per-ring capacity;
// capacity <= 0 uses DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		enabled:     true,
		capacity:    capacity,
		edges:       ring.New[GraphEdge](capacity),
		requests:    ring.New[RequestEvent](capacity),
		statements:  ring.New[StatementEvent](capacity),
		alerts:      ring.New[AlertEvent](capacity),
		alertTotals: make(map[string]*AlertTotals),
		reqBuckets:  make([]int64, len(RequestBuckets)+1),
	}
}

// NewDisabled creates a recorder that drops every event; accessors
// return empty results. Used as the zero-overhead baseline. SetEnabled
// (or ALTER SYSTEM SET HISTORY_CAPACITY) turns recording on later.
func NewDisabled() *Recorder {
	r := NewRecorder(1)
	r.enabled = false
	return r
}

// Enabled reports whether the recorder accepts events.
func (r *Recorder) Enabled() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.enabled
}

// SetEnabled turns event recording on or off at runtime. Disabling
// keeps already-recorded history readable.
func (r *Recorder) SetEnabled(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enabled = on
}

// Capacity returns the per-ring event bound.
func (r *Recorder) Capacity() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.capacity
}

// SetCapacity rebounds every ring to the new capacity, evicting the
// oldest entries that no longer fit. n <= 0 restores DefaultCapacity.
func (r *Recorder) SetCapacity(n int) {
	if n <= 0 {
		n = DefaultCapacity
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.capacity = n
	r.edges.Resize(n)
	r.requests.Resize(n)
	r.statements.Resize(n)
	r.alerts.Resize(n)
}

// RecordEdges appends one graph-edge observation per upstream.
func (r *Recorder) RecordEdges(edges []GraphEdge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return
	}
	for _, e := range edges {
		r.seq++
		e.Seq = r.seq
		r.edges.Push(e)
	}
}

// RecordRequest appends a served-request event to the request ring,
// assigning its sequence number.
func (r *Recorder) RecordRequest(ev RequestEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return
	}
	r.seq++
	ev.Seq = r.seq
	r.requests.Push(ev)
	secs := ev.Duration.Seconds()
	slot := len(RequestBuckets) // +Inf overflow bucket
	for i, bound := range RequestBuckets {
		if secs <= bound {
			slot = i
			break
		}
	}
	r.reqBuckets[slot]++
	r.reqCount++
	r.reqSum += secs
}

// RequestLatency returns the request-latency histogram with cumulative
// bucket counts (one entry per RequestBuckets bound; the implicit +Inf
// bucket equals Count).
func (r *Recorder) RequestLatency() RequestHist {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h := RequestHist{
		Buckets: make([]int64, len(RequestBuckets)),
		Count:   r.reqCount,
		Sum:     r.reqSum,
	}
	var cum int64
	for i := range RequestBuckets {
		cum += r.reqBuckets[i]
		h.Buckets[i] = cum
	}
	return h
}

// RecordStatement appends an executed-statement event to the statement
// ring, assigning its sequence number.
func (r *Recorder) RecordStatement(ev StatementEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return
	}
	r.seq++
	ev.Seq = r.seq
	r.statements.Push(ev)
}

// RecordAlert appends a watchdog evaluation to the alert ring,
// assigning its sequence number, and bumps the alert's monotonic
// totals. Unlike the bounded ring, totals survive eviction so the
// dyntables_alert_* counters stay monotonic across scrapes.
func (r *Recorder) RecordAlert(ev AlertEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return
	}
	r.seq++
	ev.Seq = r.seq
	r.alerts.Push(ev)
	t := r.alertTotals[ev.Alert]
	if t == nil {
		t = &AlertTotals{}
		r.alertTotals[ev.Alert] = t
	}
	t.Evaluations++
	if ev.Fired {
		t.Firings++
	}
	if ev.ActionErr != "" {
		t.ActionErrors++
	}
}

// Alerts returns a copy of the watchdog evaluation events, oldest
// first.
func (r *Recorder) Alerts() []AlertEvent {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alerts.Snapshot()
}

// AlertCounters returns a copy of the monotonic per-alert totals.
func (r *Recorder) AlertCounters() map[string]AlertTotals {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]AlertTotals, len(r.alertTotals))
	for name, t := range r.alertTotals {
		out[name] = *t
	}
	return out
}

// Statements returns a copy of the executed-statement events, oldest
// first.
func (r *Recorder) Statements() []StatementEvent {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.statements.Snapshot()
}

// Requests returns a copy of the served-request events, oldest first.
func (r *Recorder) Requests() []RequestEvent {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.requests.Snapshot()
}

// Edges returns a copy of the graph-edge observations, oldest first.
func (r *Recorder) Edges() []GraphEdge {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.edges.Snapshot()
}

// ComputeSLO computes a DT's lag-SLO attainment against a target lag
// over a sawtooth series (core.DynamicTable.LagSeries), extended to
// `now`. Lag rises linearly from each commit's trough to the next
// commit's peak, so the within-target time of each segment is exact for
// the sawtooth model.
func ComputeSLO(series []LagSample, target time.Duration, now time.Time) SLOStats {
	if len(series) == 0 {
		return SLOStats{}
	}
	var within, covered time.Duration
	for i := 1; i < len(series); i++ {
		prev, cur := series[i-1], series[i]
		span := cur.At.Sub(prev.At)
		if span <= 0 {
			continue
		}
		covered += span
		within += segmentWithin(prev.Trough, cur.Peak, span, target)
	}
	// Trailing segment: lag rises from the last trough until `now`.
	last := series[len(series)-1]
	if tail := now.Sub(last.At); tail > 0 {
		covered += tail
		within += segmentWithin(last.Trough, last.Trough+tail, tail, target)
	}

	peaks := make([]time.Duration, len(series))
	for i, s := range series {
		peaks[i] = s.Peak
	}
	sort.Slice(peaks, func(i, j int) bool { return peaks[i] < peaks[j] })

	stats := SLOStats{
		Samples: len(series),
		P50:     nearestRank(peaks, 0.50),
		P95:     nearestRank(peaks, 0.95),
	}
	switch {
	case covered > 0:
		stats.Attainment = float64(within) / float64(covered)
	case last.Trough <= target:
		stats.Attainment = 1
	}
	return stats
}

// nearestRank returns the p-th percentile of sorted values by the
// nearest-rank definition (⌈p·N⌉-th smallest), which never underreports
// the way floor-indexing would on small samples.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// segmentWithin returns how much of a span with lag rising linearly from
// `from` to `to` stays at or below the target.
func segmentWithin(from, to time.Duration, span time.Duration, target time.Duration) time.Duration {
	switch {
	case to <= target:
		return span
	case from >= target:
		return 0
	default:
		frac := float64(target-from) / float64(to-from)
		return time.Duration(frac * float64(span))
	}
}
