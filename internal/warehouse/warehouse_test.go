package warehouse

import (
	"testing"
	"time"
)

var t0 = time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC)

func TestParseSize(t *testing.T) {
	cases := map[string]Size{
		"XSMALL": SizeXSmall, "xs": SizeXSmall,
		"SMALL": SizeSmall, "MEDIUM": SizeMedium, "LARGE": SizeLarge,
		"XLARGE": SizeXLarge, "2XLARGE": Size2XLarge,
		"3XLARGE": Size3XLarge, "4XLARGE": Size4XLarge,
		"X-LARGE": SizeXLarge,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSize("ENORMOUS"); err == nil {
		t.Error("unknown size should fail")
	}
}

func TestSizeNodesDoubling(t *testing.T) {
	if SizeXSmall.Nodes() != 1 || SizeSmall.Nodes() != 2 || Size4XLarge.Nodes() != 128 {
		t.Errorf("node counts: %d %d %d", SizeXSmall.Nodes(), SizeSmall.Nodes(), Size4XLarge.Nodes())
	}
	if SizeMedium.CreditsPerHour() != 4 {
		t.Errorf("credits: %f", SizeMedium.CreditsPerHour())
	}
}

func TestCostModelScalesWithSizeAndRows(t *testing.T) {
	m := CostModel{Fixed: 2 * time.Second, PerRow: time.Millisecond}
	d1 := m.Duration(10_000, SizeXSmall)
	d2 := m.Duration(10_000, SizeLarge) // 8 nodes
	if d1 != 12*time.Second {
		t.Errorf("xsmall duration: %v", d1)
	}
	if d2 != 2*time.Second+1250*time.Millisecond {
		t.Errorf("large duration: %v", d2)
	}
	// Variable cost linear in rows (§3.3.2).
	dHalf := m.Duration(5_000, SizeXSmall)
	if (d1 - m.Fixed) != 2*(dHalf-m.Fixed) {
		t.Errorf("variable cost not linear: %v vs %v", d1, dHalf)
	}
}

func TestJobsRunSerially(t *testing.T) {
	w := New("wh", SizeXSmall, time.Minute)
	m := CostModel{Fixed: 10 * time.Second}
	j1 := w.Submit(t0, 0, m)
	j2 := w.Submit(t0, 0, m) // submitted while j1 runs
	if !j1.Start.Equal(t0) {
		t.Errorf("j1 start: %v", j1.Start)
	}
	if !j2.Start.Equal(j1.End) {
		t.Errorf("j2 must queue behind j1: start %v, j1 end %v", j2.Start, j1.End)
	}
	if j2.Queued() != 10*time.Second {
		t.Errorf("queue time: %v", j2.Queued())
	}
}

func TestBillingIdleVsSuspend(t *testing.T) {
	w := New("wh", SizeXSmall, time.Minute)
	m := CostModel{Fixed: 10 * time.Second}
	w.Submit(t0, 0, m)
	// Short idle (30s < auto-suspend 60s): billed.
	w.Submit(t0.Add(40*time.Second), 0, m)
	if got := w.BilledTime(); got != 10*time.Second+30*time.Second+10*time.Second {
		t.Errorf("billed with short idle: %v", got)
	}
	// Long idle (10 min): only the auto-suspend grace is billed.
	w.Submit(t0.Add(20*time.Minute), 0, m)
	want := 50*time.Second + time.Minute + 10*time.Second
	if got := w.BilledTime(); got != want {
		t.Errorf("billed after suspend: %v, want %v", got, want)
	}
	if w.Resumes() != 2 { // initial resume + resume after suspend
		t.Errorf("resumes: %d", w.Resumes())
	}
}

func TestCreditsPerSecondGranularity(t *testing.T) {
	w := New("wh", SizeSmall, time.Minute) // 2 credits/hour
	m := CostModel{Fixed: 1500 * time.Millisecond}
	w.Submit(t0, 0, m)
	// 1.5s bills as 2s at 2 credits/hour.
	want := 2.0 / 3600 * 2
	if got := w.Credits(); got != want {
		t.Errorf("credits: %f, want %f", got, want)
	}
}

func TestJobLog(t *testing.T) {
	w := New("wh", SizeXSmall, time.Minute)
	job := w.Submit(t0, 5, DefaultCostModel)
	if job.Warehouse != "wh" || job.Size != SizeXSmall || job.Rows != 5 {
		t.Errorf("job: %+v", job)
	}
	// The job bills its own duration, rounded up to whole seconds: 2.005 s
	// bills as 3 s at 1 credit/hour.
	if want := 3.0 / 3600; job.Credits != want {
		t.Errorf("job credits = %v, want %v", job.Credits, want)
	}
	w.Submit(t0, 1, DefaultCostModel)
	if got := w.JobCount(); got != 2 {
		t.Errorf("JobCount = %d, want 2", got)
	}
}

func TestSubmitConcurrentOverlapsUpToSlots(t *testing.T) {
	w := New("wh", SizeXSmall, 10*time.Minute)
	m := CostModel{Fixed: 10 * time.Second, PerRow: 0}
	// Four jobs over two slots: the first two start immediately, the next
	// two queue behind one job each.
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, w.SubmitConcurrent(t0, 0, m, 2))
	}
	if !jobs[0].Start.Equal(t0) || !jobs[1].Start.Equal(t0) {
		t.Errorf("first two jobs should start at t0: %v %v", jobs[0].Start, jobs[1].Start)
	}
	if !jobs[2].Start.Equal(t0.Add(10*time.Second)) || !jobs[3].Start.Equal(t0.Add(10*time.Second)) {
		t.Errorf("queued jobs should start after one job duration: %v %v", jobs[2].Start, jobs[3].Start)
	}
	if got := w.BusyUntil(); !got.Equal(t0.Add(20 * time.Second)) {
		t.Errorf("busy horizon = %v, want t0+20s", got)
	}
	// Every overlapping job bills its full duration (each cluster accrues).
	if got := w.BilledTime(); got != 40*time.Second {
		t.Errorf("billed = %v, want 40s", got)
	}
}

func TestSubmitConcurrentSingleSlotMatchesSubmit(t *testing.T) {
	m := CostModel{Fixed: 7 * time.Second, PerRow: time.Millisecond}
	serial := New("a", SizeSmall, time.Minute)
	slotted := New("b", SizeSmall, time.Minute)
	times := []time.Duration{0, 3 * time.Second, 2 * time.Minute, 2*time.Minute + time.Second}
	for _, d := range times {
		js := serial.Submit(t0.Add(d), 500, m)
		jc := slotted.SubmitConcurrent(t0.Add(d), 500, m, 1)
		if !js.Start.Equal(jc.Start) || !js.End.Equal(jc.End) {
			t.Errorf("slot-1 submit diverges from serial: %+v vs %+v", js, jc)
		}
	}
	if serial.BilledTime() != slotted.BilledTime() || serial.Resumes() != slotted.Resumes() {
		t.Errorf("billing diverges: %v/%d vs %v/%d",
			serial.BilledTime(), serial.Resumes(), slotted.BilledTime(), slotted.Resumes())
	}
}

func TestSubmitConcurrentAfterRestoreFoldsHorizon(t *testing.T) {
	w := New("wh", SizeXSmall, time.Minute)
	m := CostModel{Fixed: 30 * time.Second, PerRow: 0}
	w.Submit(t0, 0, m)
	st := w.State()

	w2 := New("wh", SizeXSmall, time.Minute)
	w2.RestoreState(st)
	// The recovered horizon occupies the first slot; the second slot is
	// fresh capacity.
	j1 := w2.SubmitConcurrent(t0, 0, m, 2)
	if !j1.Start.Equal(t0) {
		t.Errorf("fresh slot should start at t0, got %v", j1.Start)
	}
	j2 := w2.SubmitConcurrent(t0, 0, m, 2)
	if !j2.Start.Equal(t0.Add(30 * time.Second)) {
		t.Errorf("slot behind recovered backlog should start at t0+30s, got %v", j2.Start)
	}
}
