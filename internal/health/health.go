// Package health classifies dynamic tables into operator-facing health
// states and, for tables that miss their lag SLO, attributes the miss to
// the DAG node and refresh phase that consumed the budget.
//
// The package is pure: it consumes plain observation structs (lag-SLO
// attainment, error streaks, resource trends, per-refresh phase
// breakdowns) and produces classifications and blame chains without
// touching the engine, so every rule is unit-testable in isolation. The
// engine assembles the inputs from the obs recorder, the trace span
// forest and Controller.Upstreams (see observability.go).
package health

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Status is a DT's health classification, ordered by severity.
type Status string

// The four health states.
const (
	// Healthy: the DT refreshes, keeps its target lag (or has none), and
	// shows no concerning trend.
	Healthy Status = "HEALTHY"
	// AtRisk: still meeting its SLO but degrading — attainment inside the
	// warning band, a fresh error streak, or resource cost trending up.
	AtRisk Status = "AT_RISK"
	// MissingSLO: the DT has a lag target and is not keeping it.
	MissingSLO Status = "MISSING_SLO"
	// Failing: refreshes themselves are failing (error streak at or past
	// the failing threshold) or the DT is suspended.
	Failing Status = "FAILING"
)

// severity orders statuses for comparisons; higher is worse.
func severity(s Status) int {
	switch s {
	case Failing:
		return 3
	case MissingSLO:
		return 2
	case AtRisk:
		return 1
	default:
		return 0
	}
}

// Input is one DT's observed signals, assembled by the caller.
type Input struct {
	Name        string
	Suspended   bool    // lifecycle state is SUSPENDED
	ErrorStreak int     // consecutive failed refreshes
	HasSLO      bool    // an effective lag target exists and lag samples cover it
	Attainment  float64 // fraction of covered time within target (0..1); valid when HasSLO
	Samples     int     // lag samples behind Attainment
	CPUTrend    float64 // recent CPU-per-refresh over prior window (1 = flat); 0 = unknown
}

// Thresholds tunes the classifier. Zero values select the defaults.
type Thresholds struct {
	// MissAttainment: attainment below this is an SLO miss (default 0.80).
	MissAttainment float64
	// AtRiskAttainment: attainment below this is AT_RISK (default 0.95).
	AtRiskAttainment float64
	// FailingStreak: consecutive errors at or past this fail the DT
	// (default 3; the controller auto-suspends at 5).
	FailingStreak int
	// AtRiskStreak: consecutive errors at or past this put the DT at
	// risk (default 1).
	AtRiskStreak int
	// CPUTrendAtRisk: a recent/prior CPU ratio at or past this puts the
	// DT at risk (default 2.0).
	CPUTrendAtRisk float64
	// Hysteresis widens the exit side of every attainment threshold so a
	// DT oscillating around a boundary does not flap between states: a
	// DT classified down recovers only once attainment clears the
	// threshold by this margin (default 0.02).
	Hysteresis float64
}

// DefaultThresholds returns the default tuning.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MissAttainment:   0.80,
		AtRiskAttainment: 0.95,
		FailingStreak:    3,
		AtRiskStreak:     1,
		CPUTrendAtRisk:   2.0,
		Hysteresis:       0.02,
	}
}

func (t Thresholds) withDefaults() Thresholds {
	d := DefaultThresholds()
	if t.MissAttainment == 0 {
		t.MissAttainment = d.MissAttainment
	}
	if t.AtRiskAttainment == 0 {
		t.AtRiskAttainment = d.AtRiskAttainment
	}
	if t.FailingStreak == 0 {
		t.FailingStreak = d.FailingStreak
	}
	if t.AtRiskStreak == 0 {
		t.AtRiskStreak = d.AtRiskStreak
	}
	if t.CPUTrendAtRisk == 0 {
		t.CPUTrendAtRisk = d.CPUTrendAtRisk
	}
	if t.Hysteresis == 0 {
		t.Hysteresis = d.Hysteresis
	}
	return t
}

// Evaluate classifies one DT. prev is the status the last evaluation
// produced (pass Healthy for the first); it only matters near attainment
// boundaries, where the hysteresis band keeps the previous, more severe
// classification until the signal clears the threshold by the margin.
// The returned reason is a one-line human explanation.
func Evaluate(in Input, prev Status, th Thresholds) (Status, string) {
	th = th.withDefaults()

	// Hard failures first: these ignore hysteresis — an error streak is
	// not a noisy signal.
	if in.Suspended {
		return Failing, "suspended"
	}
	if in.ErrorStreak >= th.FailingStreak {
		return Failing, fmt.Sprintf("%d consecutive refresh errors", in.ErrorStreak)
	}

	status, reason := Healthy, "within target"
	if in.HasSLO && in.Samples > 0 {
		missExit, riskExit := th.MissAttainment, th.AtRiskAttainment
		if prev == MissingSLO {
			missExit += th.Hysteresis
		}
		if severity(prev) >= severity(AtRisk) {
			riskExit += th.Hysteresis
		}
		switch {
		case in.Attainment < missExit:
			status = MissingSLO
			reason = fmt.Sprintf("lag-SLO attainment %.2f below %.2f", in.Attainment, th.MissAttainment)
		case in.Attainment < riskExit:
			status = AtRisk
			reason = fmt.Sprintf("lag-SLO attainment %.2f inside warning band (< %.2f)", in.Attainment, th.AtRiskAttainment)
		}
	} else if !in.HasSLO {
		reason = "no lag target"
	}

	// Softer risk signals only ever raise Healthy to AtRisk.
	if status == Healthy {
		switch {
		case in.ErrorStreak >= th.AtRiskStreak:
			status = AtRisk
			reason = fmt.Sprintf("%d consecutive refresh errors", in.ErrorStreak)
		case in.CPUTrend >= th.CPUTrendAtRisk:
			status = AtRisk
			reason = fmt.Sprintf("refresh CPU trending up %.1fx", in.CPUTrend)
		}
	}
	return status, reason
}

// PhaseBreakdown is the per-refresh cost of one DT, split into the queue
// wait ahead of its warehouse job and the traced execution phases
// underneath the refresh root span (bind, ivm.eval, merge, ...). Exec
// is the refresh's total execution time on the DT's warehouse; the Phases
// map carries the host-clock span durations used to pick the dominant
// phase within it.
type PhaseBreakdown struct {
	DT        string
	QueueWait time.Duration            // warehouse slot wait (virtual clock)
	Exec      time.Duration            // warehouse job duration (virtual clock)
	Phases    map[string]time.Duration // traced phase spans (host clock)
}

// Total is the refresh's full budget cost: wait plus execution.
func (p PhaseBreakdown) Total() time.Duration { return p.QueueWait + p.Exec }

// PhaseQueue names the pseudo-phase reported when queue wait dominates.
const PhaseQueue = "queue"

// Dominant returns the phase that consumed the most of this refresh.
// Queue wait competes with the whole execution; when execution wins, the
// largest traced span underneath it is named (deterministically: ties
// break on phase name). Returns ("", 0) for an empty breakdown.
func (p PhaseBreakdown) Dominant() (string, time.Duration) {
	if p.QueueWait >= p.Exec && p.QueueWait > 0 {
		return PhaseQueue, p.QueueWait
	}
	names := make([]string, 0, len(p.Phases))
	for name := range p.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	best, bestD := "", time.Duration(-1)
	for _, name := range names {
		if d := p.Phases[name]; d > bestD {
			best, bestD = name, d
		}
	}
	if best == "" {
		if p.Exec > 0 {
			return "exec", p.Exec
		}
		return "", 0
	}
	return best, bestD
}

// Blame is the outcome of SLO-miss attribution: which DAG node consumed
// the missed budget, and in which phase.
type Blame struct {
	Culprit string        // DT whose refresh cost dominated (may be the DT itself)
	Phase   string        // dominant phase within the culprit's refresh
	Cost    time.Duration // the culprit's total (queue + exec) cost
}

// String renders the blame chain as "dt/phase (cost)".
func (b Blame) String() string {
	if b.Culprit == "" {
		return ""
	}
	return fmt.Sprintf("%s/%s (%s)", b.Culprit, b.Phase, b.Cost)
}

// Attribute walks the DT's own latest refresh breakdown plus its
// upstreams' and blames the one with the largest total cost — a slow
// upstream delays every consumer's refresh start, so its cost is part of
// the downstream's lag budget. Ties break deterministically: self wins
// over upstreams, then lexicographically smaller DT name. Returns a zero
// Blame when no breakdown carries any cost.
func Attribute(self PhaseBreakdown, upstreams []PhaseBreakdown) Blame {
	sorted := make([]PhaseBreakdown, len(upstreams))
	copy(sorted, upstreams)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].DT < sorted[j].DT })

	best := self
	for _, up := range sorted {
		if up.Total() > best.Total() {
			best = up
		}
	}
	if best.Total() <= 0 {
		return Blame{}
	}
	phase, _ := best.Dominant()
	return Blame{Culprit: best.DT, Phase: phase, Cost: best.Total()}
}

// cpuTrendFloor is the smallest per-refresh CPU difference between the two
// halves that counts as a trend. Below it the ratio reads flat: a refresh
// of tens of microseconds that a scheduler preemption doubles is noise,
// not a cost trend.
const cpuTrendFloor = time.Millisecond

// CPUTrendRatio compares the median of the most recent half of per-refresh
// CPU costs against the median of the older half, returning recent/older.
// Medians keep one preempted refresh from reading as a trend, and halves
// that differ by less than cpuTrendFloor read 1 (flat). Returns 0
// (unknown) with fewer than four samples or a zero older median. Samples
// are oldest-first.
func CPUTrendRatio(cpu []time.Duration) float64 {
	if len(cpu) < 4 {
		return 0
	}
	mid := len(cpu) / 2
	older, recent := median(cpu[:mid]), median(cpu[mid:])
	if older <= 0 {
		return 0
	}
	if d := recent - older; d < cpuTrendFloor && d > -cpuTrendFloor {
		return 1
	}
	return float64(recent) / float64(older)
}

// median returns the median of ds (the mean of the middle two for an even
// count) without reordering ds.
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
