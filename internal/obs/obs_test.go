package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC)

func TestRingBounded(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.RecordStatement(StatementEvent{Start: t0.Add(time.Duration(i) * time.Minute)})
	}
	hist := r.Statements()
	if len(hist) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(hist))
	}
	// The newest four survive, in order.
	for i, ev := range hist {
		want := t0.Add(time.Duration(6+i) * time.Minute)
		if !ev.Start.Equal(want) {
			t.Fatalf("event %d has Start %v, want %v", i, ev.Start, want)
		}
	}
	// Sequence numbers keep increasing across evictions.
	if hist[3].Seq != 10 {
		t.Fatalf("newest event Seq = %d, want 10", hist[3].Seq)
	}
}

func TestSetCapacityTrims(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 8; i++ {
		r.RecordStatement(StatementEvent{Start: t0.Add(time.Duration(i) * time.Minute)})
		r.RecordAlert(AlertEvent{Alert: "a", At: t0.Add(time.Duration(i) * time.Minute)})
	}
	r.SetCapacity(3)
	hist := r.Statements()
	if len(hist) != 3 {
		t.Fatalf("after shrink kept %d, want 3", len(hist))
	}
	if !hist[0].Start.Equal(t0.Add(5 * time.Minute)) {
		t.Fatalf("oldest survivor %v, want %v", hist[0].Start, t0.Add(5*time.Minute))
	}
	if alerts := r.Alerts(); len(alerts) != 3 || !alerts[0].At.Equal(t0.Add(5*time.Minute)) {
		t.Fatalf("alert ring after shrink: %d events, oldest %v", len(alerts), alerts[0].At)
	}
	// Growing keeps everything and accepts more.
	r.SetCapacity(16)
	for i := 0; i < 5; i++ {
		r.RecordStatement(StatementEvent{Start: t0.Add(time.Hour)})
	}
	if got := len(r.Statements()); got != 8 {
		t.Fatalf("after grow kept %d, want 8", got)
	}
}

func TestDisabledRecorderDropsEverything(t *testing.T) {
	r := NewDisabled()
	r.RecordEdges([]GraphEdge{{DTName: "dt", Upstream: "base"}})
	r.RecordRequest(RequestEvent{Endpoint: "/v1/statements"})
	r.RecordStatement(StatementEvent{Text: "SELECT 1", Usage: &Usage{CPU: time.Millisecond}})
	r.RecordAlert(AlertEvent{Alert: "a"})
	if len(r.Edges()) != 0 || len(r.Requests()) != 0 || len(r.Statements()) != 0 || len(r.Alerts()) != 0 {
		t.Fatal("disabled recorder retained events")
	}
	if r.RequestLatency().Count != 0 || len(r.AlertCounters()) != 0 {
		t.Fatal("disabled recorder counted events")
	}
}

func TestComputeSLO(t *testing.T) {
	target := time.Minute
	// Two commits one period apart: lag rises 10s → 70s, crossing the
	// 60s target at 5/6 of the span, then the tail rises 10s → 40s
	// (fully within target).
	series := []LagSample{
		{At: t0, Trough: 10 * time.Second, Peak: 50 * time.Second},
		{At: t0.Add(60 * time.Second), Trough: 10 * time.Second, Peak: 70 * time.Second},
	}
	now := t0.Add(90 * time.Second)
	stats := ComputeSLO(series, target, now)
	if stats.Samples != 2 {
		t.Fatalf("samples = %d, want 2", stats.Samples)
	}
	// Within-target: 50s of the first 60s span + all 30s of the tail.
	want := (50.0 + 30.0) / 90.0
	if diff := stats.Attainment - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("attainment = %v, want %v", stats.Attainment, want)
	}
	// Nearest-rank percentiles over peaks [50s, 70s]: p50 takes the 1st
	// smallest, p95 the 2nd — small samples must not underreport.
	if stats.P50 != 50*time.Second || stats.P95 != 70*time.Second {
		t.Fatalf("p50=%v p95=%v, want 50s / 70s (nearest rank)", stats.P50, stats.P95)
	}
}

func TestComputeSLOAlwaysWithin(t *testing.T) {
	series := []LagSample{
		{At: t0, Trough: time.Second, Peak: 5 * time.Second},
		{At: t0.Add(time.Minute), Trough: time.Second, Peak: 10 * time.Second},
	}
	stats := ComputeSLO(series, time.Hour, t0.Add(2*time.Minute))
	if stats.Attainment != 1 {
		t.Fatalf("attainment = %v, want 1", stats.Attainment)
	}
	if ComputeSLO(nil, time.Hour, t0).Samples != 0 {
		t.Fatal("empty series should report zero samples")
	}
}

func TestComputeSLOEdgeCases(t *testing.T) {
	target := time.Minute

	t.Run("empty series", func(t *testing.T) {
		if got := ComputeSLO(nil, target, t0); got != (SLOStats{}) {
			t.Fatalf("empty series = %+v, want zero SLOStats", got)
		}
		if got := ComputeSLO([]LagSample{}, target, t0); got != (SLOStats{}) {
			t.Fatalf("zero-length series = %+v, want zero SLOStats", got)
		}
	})

	t.Run("single sample", func(t *testing.T) {
		series := []LagSample{{At: t0, Trough: 30 * time.Second, Peak: 90 * time.Second}}
		// No covered time at all (now == the only commit): the DT is
		// currently within target, so attainment is 1, and both
		// percentiles collapse onto the single peak.
		stats := ComputeSLO(series, target, t0)
		if stats.Samples != 1 || stats.Attainment != 1 {
			t.Fatalf("samples=%d attainment=%v, want 1 / 1", stats.Samples, stats.Attainment)
		}
		if stats.P50 != 90*time.Second || stats.P95 != 90*time.Second {
			t.Fatalf("p50=%v p95=%v, want both 90s", stats.P50, stats.P95)
		}
		// With a tail the lag rises from the 30s trough and crosses the
		// 60s target 30s in: half of the 60s tail is within.
		stats = ComputeSLO(series, target, t0.Add(60*time.Second))
		if diff := stats.Attainment - 0.5; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("tail attainment = %v, want 0.5", stats.Attainment)
		}
	})

	t.Run("all samples over target", func(t *testing.T) {
		series := []LagSample{
			{At: t0, Trough: 2 * time.Minute, Peak: 3 * time.Minute},
			{At: t0.Add(time.Minute), Trough: 2 * time.Minute, Peak: 3 * time.Minute},
		}
		if got := ComputeSLO(series, target, t0.Add(time.Minute)).Attainment; got != 0 {
			t.Fatalf("attainment = %v, want 0 when lag never dips under target", got)
		}
		// Degenerate covered==0 variant: still over target right now.
		single := series[:1]
		if got := ComputeSLO(single, target, t0).Attainment; got != 0 {
			t.Fatalf("attainment = %v, want 0 for an over-target instant", got)
		}
	})

	t.Run("target exactly met", func(t *testing.T) {
		// Lag touches the target exactly at every peak; lag == target
		// counts as within, so attainment is a full 1.0, not 1-epsilon.
		series := []LagSample{
			{At: t0, Trough: 0, Peak: target},
			{At: t0.Add(time.Minute), Trough: 0, Peak: target},
		}
		if got := ComputeSLO(series, target, t0.Add(time.Minute)).Attainment; got != 1 {
			t.Fatalf("attainment = %v, want exactly 1 when peaks touch the target", got)
		}
		instant := []LagSample{{At: t0, Trough: target, Peak: target}}
		if got := ComputeSLO(instant, target, t0).Attainment; got != 1 {
			t.Fatalf("attainment = %v, want 1 when current lag equals target", got)
		}
	})
}

func TestConcurrentRecordAndRead(t *testing.T) {
	r := NewRecorder(64)
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			name := fmt.Sprintf("dt%d", w)
			for i := 0; i < 500; i++ {
				r.RecordStatement(StatementEvent{Text: name, Usage: &Usage{CPU: time.Duration(i + 1)}})
				r.RecordRequest(RequestEvent{Endpoint: name})
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.Statements() {
				if ev.Text == "" || ev.Usage == nil || ev.Usage.CPU == 0 {
					t.Error("torn statement event")
					return
				}
			}
			for _, ev := range r.Requests() {
				if ev.Endpoint == "" {
					t.Error("torn request event")
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if got := len(r.Statements()); got != 64 {
		t.Fatalf("ring kept %d, want capacity 64", got)
	}
}
