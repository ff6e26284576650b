package health

import (
	"strings"
	"testing"
	"time"
)

func TestEvaluateHealthyDefaults(t *testing.T) {
	st, reason := Evaluate(Input{Name: "d", HasSLO: true, Attainment: 1, Samples: 10}, Healthy, Thresholds{})
	if st != Healthy {
		t.Fatalf("status = %s, want HEALTHY (%s)", st, reason)
	}
	st, reason = Evaluate(Input{Name: "d"}, Healthy, Thresholds{})
	if st != Healthy || reason != "no lag target" {
		t.Fatalf("no-SLO DT = %s (%q), want HEALTHY / no lag target", st, reason)
	}
}

func TestEvaluateErrorStreakEdges(t *testing.T) {
	th := Thresholds{} // defaults: AtRiskStreak 1, FailingStreak 3
	cases := []struct {
		streak int
		want   Status
	}{
		{0, Healthy},
		{1, AtRisk},
		{2, AtRisk},
		{3, Failing}, // exactly at the threshold fails
		{5, Failing},
	}
	for _, c := range cases {
		st, _ := Evaluate(Input{Name: "d", ErrorStreak: c.streak}, Healthy, th)
		if st != c.want {
			t.Errorf("streak %d → %s, want %s", c.streak, st, c.want)
		}
	}
}

func TestEvaluateSuspendedIsFailing(t *testing.T) {
	st, reason := Evaluate(Input{Name: "d", Suspended: true, HasSLO: true, Attainment: 1, Samples: 5}, Healthy, Thresholds{})
	if st != Failing || reason != "suspended" {
		t.Fatalf("suspended DT = %s (%q), want FAILING / suspended", st, reason)
	}
}

func TestEvaluateAttainmentBands(t *testing.T) {
	th := Thresholds{} // defaults: miss < 0.80, at-risk < 0.95
	cases := []struct {
		attainment float64
		want       Status
	}{
		{1.00, Healthy},
		{0.95, Healthy},
		{0.949, AtRisk},
		{0.80, AtRisk},
		{0.799, MissingSLO},
		{0.10, MissingSLO},
	}
	for _, c := range cases {
		in := Input{Name: "d", HasSLO: true, Attainment: c.attainment, Samples: 10}
		st, _ := Evaluate(in, Healthy, th)
		if st != c.want {
			t.Errorf("attainment %.3f → %s, want %s", c.attainment, st, c.want)
		}
	}
}

func TestEvaluateNoSamplesNoClassification(t *testing.T) {
	// An SLO with zero lag samples cannot be judged: stays HEALTHY.
	st, _ := Evaluate(Input{Name: "d", HasSLO: true, Attainment: 0, Samples: 0}, Healthy, Thresholds{})
	if st != Healthy {
		t.Fatalf("zero-sample DT = %s, want HEALTHY", st)
	}
}

func TestEvaluateHysteresisNoFlapping(t *testing.T) {
	th := Thresholds{} // miss < 0.80, hysteresis 0.02
	in := func(a float64) Input {
		return Input{Name: "d", HasSLO: true, Attainment: a, Samples: 10}
	}

	// Dip below the miss threshold: classified MISSING_SLO.
	st, _ := Evaluate(in(0.79), Healthy, th)
	if st != MissingSLO {
		t.Fatalf("0.79 from HEALTHY = %s, want MISSING_SLO", st)
	}
	// Recover to just above the threshold but inside the band: sticky.
	st, _ = Evaluate(in(0.81), st, th)
	if st != MissingSLO {
		t.Fatalf("0.81 from MISSING_SLO = %s, want MISSING_SLO (hysteresis)", st)
	}
	// The same attainment arriving from a healthy side classifies AT_RISK,
	// not MISSING_SLO — the band only holds existing classifications.
	st2, _ := Evaluate(in(0.81), Healthy, th)
	if st2 != AtRisk {
		t.Fatalf("0.81 from HEALTHY = %s, want AT_RISK", st2)
	}
	// Clearing the band releases the miss state (0.80 + 0.02 = 0.82).
	st, _ = Evaluate(in(0.83), MissingSLO, th)
	if st != AtRisk { // 0.83 < 0.95: still inside the warning band
		t.Fatalf("0.83 from MISSING_SLO = %s, want AT_RISK", st)
	}
	// And the AT_RISK exit has its own band at 0.95 + 0.02.
	st, _ = Evaluate(in(0.96), AtRisk, th)
	if st != AtRisk {
		t.Fatalf("0.96 from AT_RISK = %s, want AT_RISK (hysteresis)", st)
	}
	st, _ = Evaluate(in(0.98), AtRisk, th)
	if st != Healthy {
		t.Fatalf("0.98 from AT_RISK = %s, want HEALTHY", st)
	}
}

func TestEvaluateFlappingSequenceSettles(t *testing.T) {
	// An attainment signal oscillating tightly around the miss threshold
	// must not alternate states every step once classified down.
	th := Thresholds{}
	seq := []float64{0.79, 0.805, 0.795, 0.81, 0.80, 0.815}
	st := Status(Healthy)
	var states []Status
	for _, a := range seq {
		st, _ = Evaluate(Input{Name: "d", HasSLO: true, Attainment: a, Samples: 10}, st, th)
		states = append(states, st)
	}
	for i, got := range states {
		if got != MissingSLO {
			t.Fatalf("step %d (attainment %.3f) = %s, want MISSING_SLO throughout", i, seq[i], got)
		}
	}
}

func TestEvaluateCPUTrendAtRisk(t *testing.T) {
	st, reason := Evaluate(Input{Name: "d", CPUTrend: 2.5}, Healthy, Thresholds{})
	if st != AtRisk || !strings.Contains(reason, "CPU") {
		t.Fatalf("trend 2.5 = %s (%q), want AT_RISK with CPU reason", st, reason)
	}
	st, _ = Evaluate(Input{Name: "d", CPUTrend: 1.2}, Healthy, Thresholds{})
	if st != Healthy {
		t.Fatalf("trend 1.2 = %s, want HEALTHY", st)
	}
	// An SLO miss outranks a trend warning.
	st, _ = Evaluate(Input{Name: "d", HasSLO: true, Attainment: 0.5, Samples: 4, CPUTrend: 3}, Healthy, Thresholds{})
	if st != MissingSLO {
		t.Fatalf("miss + trend = %s, want MISSING_SLO", st)
	}
}

func TestDominantPhase(t *testing.T) {
	p := PhaseBreakdown{
		DT:        "d",
		QueueWait: 10 * time.Millisecond,
		Exec:      100 * time.Millisecond,
		Phases: map[string]time.Duration{
			"bind":     time.Millisecond,
			"ivm.eval": 60 * time.Millisecond,
			"merge":    5 * time.Millisecond,
		},
	}
	if phase, d := p.Dominant(); phase != "ivm.eval" || d != 60*time.Millisecond {
		t.Fatalf("dominant = %s/%s, want ivm.eval/60ms", phase, d)
	}

	p.QueueWait = 200 * time.Millisecond
	if phase, d := p.Dominant(); phase != PhaseQueue || d != 200*time.Millisecond {
		t.Fatalf("dominant = %s/%s, want queue/200ms", phase, d)
	}

	// No traced phases: falls back to the exec pseudo-phase.
	bare := PhaseBreakdown{DT: "d", Exec: 30 * time.Millisecond}
	if phase, _ := bare.Dominant(); phase != "exec" {
		t.Fatalf("bare dominant = %s, want exec", phase)
	}

	// Ties break on the lexicographically smaller phase name.
	tied := PhaseBreakdown{DT: "d", Exec: time.Second, Phases: map[string]time.Duration{
		"merge": time.Millisecond, "bind": time.Millisecond,
	}}
	if phase, _ := tied.Dominant(); phase != "bind" {
		t.Fatalf("tied dominant = %s, want bind", phase)
	}

	if phase, d := (PhaseBreakdown{DT: "d"}).Dominant(); phase != "" || d != 0 {
		t.Fatalf("empty dominant = %q/%s, want empty", phase, d)
	}
}

func TestAttributeBlamesSlowUpstream(t *testing.T) {
	self := PhaseBreakdown{DT: "down", QueueWait: 5 * time.Millisecond, Exec: 10 * time.Millisecond}
	slow := PhaseBreakdown{
		DT:   "up_slow",
		Exec: 900 * time.Millisecond,
		Phases: map[string]time.Duration{
			"bind": time.Millisecond, "ivm.eval": 700 * time.Millisecond, "merge": 20 * time.Millisecond,
		},
	}
	fast := PhaseBreakdown{DT: "up_fast", Exec: 8 * time.Millisecond}

	b := Attribute(self, []PhaseBreakdown{fast, slow})
	if b.Culprit != "up_slow" || b.Phase != "ivm.eval" {
		t.Fatalf("blame = %+v, want up_slow/ivm.eval", b)
	}
	if b.Cost != 900*time.Millisecond {
		t.Fatalf("cost = %s, want 900ms", b.Cost)
	}
}

func TestAttributeQueueWaitDominates(t *testing.T) {
	self := PhaseBreakdown{DT: "down", QueueWait: 2 * time.Second, Exec: 100 * time.Millisecond}
	up := PhaseBreakdown{DT: "up", Exec: 500 * time.Millisecond}
	b := Attribute(self, []PhaseBreakdown{up})
	if b.Culprit != "down" || b.Phase != PhaseQueue {
		t.Fatalf("blame = %+v, want down/queue", b)
	}
}

func TestAttributeTieBreaks(t *testing.T) {
	// Self wins an exact tie with an upstream.
	self := PhaseBreakdown{DT: "down", Exec: time.Second}
	up := PhaseBreakdown{DT: "a_up", Exec: time.Second}
	if b := Attribute(self, []PhaseBreakdown{up}); b.Culprit != "down" {
		t.Fatalf("tie blame = %+v, want self (down)", b)
	}
	// Among tied upstreams the lexicographically smaller name wins,
	// regardless of slice order.
	u1 := PhaseBreakdown{DT: "b_up", Exec: 2 * time.Second}
	u2 := PhaseBreakdown{DT: "a_up", Exec: 2 * time.Second}
	if b := Attribute(self, []PhaseBreakdown{u1, u2}); b.Culprit != "a_up" {
		t.Fatalf("upstream tie blame = %+v, want a_up", b)
	}
	if b := Attribute(self, []PhaseBreakdown{u2, u1}); b.Culprit != "a_up" {
		t.Fatalf("upstream tie blame (swapped) = %+v, want a_up", b)
	}
}

func TestAttributeEmpty(t *testing.T) {
	if b := Attribute(PhaseBreakdown{DT: "d"}, nil); b.Culprit != "" || b.String() != "" {
		t.Fatalf("empty blame = %+v, want zero", b)
	}
}

func TestCPUTrendRatio(t *testing.T) {
	ms := func(ns ...int) []time.Duration {
		out := make([]time.Duration, len(ns))
		for i, n := range ns {
			out[i] = time.Duration(n) * time.Millisecond
		}
		return out
	}
	if r := CPUTrendRatio(ms(10, 10, 10)); r != 0 {
		t.Fatalf("short series ratio = %v, want 0", r)
	}
	if r := CPUTrendRatio(ms(10, 10, 30, 30)); r != 3 {
		t.Fatalf("ratio = %v, want 3", r)
	}
	if r := CPUTrendRatio(ms(0, 0, 10, 10)); r != 0 {
		t.Fatalf("zero-older ratio = %v, want 0", r)
	}
	if r := CPUTrendRatio(ms(20, 20, 20, 20)); r != 1 {
		t.Fatalf("flat ratio = %v, want 1", r)
	}
}

// TestCPUTrendIgnoresMicrosecondNoise feeds the per-refresh CPU of DTs
// whose refreshes take tens of microseconds, oldest first, as logged by
// two runs that flagged a healthy DT: one preempted NO_DATA refresh, and
// jitter whose ratio of means crosses CPUTrendAtRisk. Neither is a trend.
func TestCPUTrendIgnoresMicrosecondNoise(t *testing.T) {
	us := func(fs ...float64) []time.Duration {
		out := make([]time.Duration, len(fs))
		for i, f := range fs {
			out[i] = time.Duration(f * float64(time.Microsecond))
		}
		return out
	}
	for _, cpu := range [][]time.Duration{
		us(20.5, 12.3, 15.6, 13360, 15.0, 43.4, 12.2),
		us(18.2, 9.5, 16.0, 11.8, 61.9, 52.9, 8.5),
	} {
		r := CPUTrendRatio(cpu)
		if r != 1 {
			t.Errorf("CPUTrendRatio(%v) = %v, want 1 (flat)", cpu, r)
		}
		in := Input{Name: "d", HasSLO: true, Attainment: 1, Samples: 10, CPUTrend: r}
		if st, reason := Evaluate(in, Healthy, Thresholds{}); st != Healthy {
			t.Errorf("CPU samples %v classify %s (%s), want HEALTHY", cpu, st, reason)
		}
	}
	// A real trend still shows through one outlier per half.
	ms := func(ns ...int) []time.Duration {
		out := make([]time.Duration, len(ns))
		for i, n := range ns {
			out[i] = time.Duration(n) * time.Millisecond
		}
		return out
	}
	if r := CPUTrendRatio(ms(10, 90, 10, 30, 30, 1, 30)); r != 3 {
		t.Errorf("ratio = %v, want 3", r)
	}
}
