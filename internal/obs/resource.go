package obs

import (
	"runtime/metrics"
	"time"
)

// Usage is the resource cost of one measured unit of work (a refresh or
// a statement), captured on the goroutine that executed it.
type Usage struct {
	// Start is the host wall-clock instant measurement began.
	Start time.Time
	// CPU is the goroutine's wall-clock execution time over the measured
	// section. Refreshes and statements run single-goroutine compute
	// between their start and end, so this approximates on-CPU time; it
	// includes any scheduler preemption, which Go does not expose
	// per-goroutine.
	CPU time.Duration
	// AllocBytes and AllocObjects are deltas of the process-wide heap
	// allocation counters over the section. Concurrent work on other
	// goroutines is attributed too, so under parallel refresh waves these
	// are upper bounds, not exact per-refresh figures.
	AllocBytes   int64
	AllocObjects int64
}

// Meter captures a Usage around a section of work. Start it and stop it
// on the same goroutine, bracketing only the work to attribute.
type Meter struct {
	start time.Time
	bytes uint64
	objs  uint64
}

// readAllocs samples the runtime's monotonic heap-allocation counters.
// runtime/metrics reads are cheap (no stop-the-world), so metering is
// safe on hot paths.
func readAllocs() (bytes, objs uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// StartMeter begins a measurement on the calling goroutine.
func StartMeter() Meter {
	b, o := readAllocs()
	return Meter{start: time.Now(), bytes: b, objs: o}
}

// Stop ends the measurement and returns the section's Usage.
func (m Meter) Stop() Usage {
	b, o := readAllocs()
	return Usage{
		Start:        m.start,
		CPU:          time.Since(m.start),
		AllocBytes:   int64(b - m.bytes),
		AllocObjects: int64(o - m.objs),
	}
}

// Resource kinds: what a ResourceEvent measured.
const (
	ResourceRefresh   = "refresh"
	ResourceStatement = "statement"
)

// ResourceEvent is one unit of attributed resource consumption, a row of
// INFORMATION_SCHEMA.RESOURCE_HISTORY, derived when read from the record
// of the work: refresh events from each DT's history ring, statement
// events from the recorder's statement ring. Refresh events carry the
// DT name, statement events the result kind. RootID joins the event to
// QUERY_HISTORY / DYNAMIC_TABLE_REFRESH_HISTORY / TRACE_SPANS.
type ResourceEvent struct {
	// Seq is the statement's QUERY_HISTORY seq for statements and the
	// engine-wide refresh sequence number for refreshes.
	Seq int64
	// Kind is ResourceRefresh or ResourceStatement.
	Kind string
	// Name is the DT name (refreshes) or result kind (statements).
	Name string
	// RootID is the trace-root span ID of the measured work; 0 when
	// tracing was disabled.
	RootID int64
	// Start is the host wall-clock start of the measured section.
	Start time.Time
	// CPU, AllocBytes and AllocObjects are the section's Usage.
	CPU          time.Duration
	AllocBytes   int64
	AllocObjects int64
	// Rows counts rows processed (source rows scanned plus change rows
	// for refreshes; rows returned or affected for statements).
	Rows int64
	// Bytes estimates bytes processed, from the executor's scan-side
	// row-size accounting; 0 when the path did not count bytes.
	Bytes int64
}
