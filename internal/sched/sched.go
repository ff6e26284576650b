// Package sched implements the refresh scheduler (§3.2, §5.2): it renders
// the DT dependency graph, resolves DOWNSTREAM target lags, chooses
// canonical refresh periods (48·2ⁿ seconds with a shared phase so data
// timestamps align across the graph), issues refreshes in dependency
// order, and skips refreshes that would overlap a still-running one
// (§3.3.3). The scheduler keeps no per-DT state: each pass reads the live
// DTs from the catalog (§5.1) through the function it was built with,
// each DT's upstreams from its bound plan (core.Controller.Upstreams),
// and when its last scheduled refresh ends from its refresh records
// (core.DynamicTable.BusyUntil). The lag sawtooth of Figure 4 is not
// measured here either: each DT derives it from the same records
// (core.DynamicTable.LagSeries). Execution, and so warehouse billing,
// belongs to the refresher the scheduler is built with.
package sched

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"dyntables/internal/clock"
	"dyntables/internal/core"
	"dyntables/internal/refresher"
	"dyntables/internal/sql"
)

// MinCanonicalPeriod is 48 seconds — the n=0 canonical period (§5.2).
const MinCanonicalPeriod = 48 * time.Second

// NoLag marks a DT with no effective lag requirement (a DOWNSTREAM DT with
// no downstream consumers); it is refreshed only manually (§3.2).
const NoLag = time.Duration(1<<62 - 1)

// CanonicalPeriod returns the largest canonical period 48·2ⁿ that fits the
// target lag, leaving headroom for waiting and refresh duration
// (peak lag = p + w + d < t, §5.2). The heuristic reserves half the target
// lag for p, matching the paper's observation that the chosen period can
// be "substantially smaller than the provided target lag".
func CanonicalPeriod(targetLag time.Duration) time.Duration {
	if targetLag >= NoLag {
		return NoLag
	}
	budget := targetLag / 2
	if budget < MinCanonicalPeriod {
		return MinCanonicalPeriod
	}
	p := MinCanonicalPeriod
	for p*2 <= budget {
		p *= 2
	}
	return p
}

// Stats aggregates scheduler activity for the experiments.
type Stats struct {
	Scheduled              int // refresh attempts issued
	NoData                 int
	Incremental            int
	Full                   int
	Reinit                 int
	Initialize             int
	Skips                  int
	Errors                 int
	ExtraUpstreamRefreshes int // misaligned-period ablation (E11)
}

// Scheduler drives refreshes against virtual time over the DTs its list
// function returns; DDL that creates, drops or replaces a DT reaches the
// scheduler only through that list. All methods are safe for concurrent
// use. Two locks split the roles: tickMu serializes
// scheduler passes (Step/RunUntil) so ticks never interleave, while mu
// guards the cadence state and the stats and is held only for the policy
// pass and the result fold — never across refresh execution. Monitoring
// readers (Stats, EffectiveLag, Period, ...) therefore return
// immediately even while a wave is running, instead of stalling for the
// wave makespan.
type Scheduler struct {
	// tickMu serializes scheduler passes; it is always acquired before mu
	// and held across an entire Step/RunUntil call.
	tickMu sync.Mutex
	clk    *clock.Virtual
	ctrl   *core.Controller
	// dts lists the live DTs, in any order. Each pass and each lag query
	// calls it once, before taking mu.
	dts func() []*core.DynamicTable
	// exec executes the due set of each fire instant: it partitions the
	// DTs into dependency waves and runs each wave concurrently on its
	// worker pool. The scheduler keeps the policy decisions (which DTs
	// are due, skip-vs-queue, stats); the refresher owns execution.
	exec *refresher.Refresher

	// mu guards all fields below. It is released around
	// Refresher.ExecuteTick so monitoring accessors stay responsive
	// mid-wave.
	mu sync.Mutex
	// phase is the account-wide constant phase for canonical periods
	// (§5.2: "we choose a constant phase for each customer").
	phase time.Duration
	epoch time.Time
	// cursor is the last processed fire instant; Step processes fire
	// instants in (cursor, limit] even when the clock has already been
	// advanced past them (a scheduler running late issues refreshes with
	// the data timestamps it should have used).
	cursor time.Time

	stats Stats

	// DisableSkip runs overlapping refreshes back-to-back instead of
	// skipping (ablation E10).
	DisableSkip bool
	// ExactPeriods uses the raw target lag as the refresh period instead
	// of canonical periods, breaking timestamp alignment (ablation E11).
	ExactPeriods bool
}

// New creates a scheduler over the DTs that dts lists, refreshed through
// ctrl and executed by exec. Each fire instant advances clk
// to it; a nil clk (an engine on the wall clock, which is always past the
// instants it is asked to process) is never advanced.
func New(clk *clock.Virtual, ctrl *core.Controller, dts func() []*core.DynamicTable, exec *refresher.Refresher, epoch time.Time, phase time.Duration) *Scheduler {
	return &Scheduler{
		clk:    clk,
		ctrl:   ctrl,
		dts:    dts,
		exec:   exec,
		epoch:  epoch,
		phase:  phase,
		cursor: epoch,
	}
}

// Cursor returns the last processed fire instant, checkpointed so a
// recovered scheduler does not reissue refreshes it already ran.
func (s *Scheduler) Cursor() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// Epoch returns the scheduler's period-alignment origin.
func (s *Scheduler) Epoch() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Phase returns the account-wide canonical-period phase.
func (s *Scheduler) Phase() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phase
}

// Restore reinstates checkpointed cadence state during recovery. Keeping
// the original epoch and phase preserves the canonical fire instants
// (§5.2), so data timestamps stay aligned across a restart; restoring the
// cursor resumes the schedule where the previous process stopped.
func (s *Scheduler) Restore(epoch time.Time, phase time.Duration, cursor time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = epoch
	s.phase = phase
	if cursor.After(s.cursor) {
		s.cursor = cursor
	}
}

// Stats returns a snapshot of the aggregate counters. The returned value
// is a copy taken under the scheduler lock: callers may retain and read
// it freely while the tick loop keeps counting.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// EffectiveLag resolves a DT's effective target lag: its own duration, or
// for DOWNSTREAM, the minimum effective lag among its downstream
// dependents (§3.2). A DOWNSTREAM DT with no dependents has no lag
// requirement.
func (s *Scheduler) EffectiveLag(dt *core.DynamicTable) time.Duration {
	dts := s.dts()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.effectiveLag(dt, dts, make(map[*core.DynamicTable]bool))
}

func (s *Scheduler) effectiveLag(dt *core.DynamicTable, dts []*core.DynamicTable, visiting map[*core.DynamicTable]bool) time.Duration {
	if dt.Lag.Kind == sql.LagDuration {
		return dt.Lag.Duration
	}
	if visiting[dt] {
		return NoLag // defensive: cycles are rejected at creation
	}
	visiting[dt] = true
	defer delete(visiting, dt)
	min := NoLag
	for _, down := range s.downstreams(dt, dts) {
		if l := s.effectiveLag(down, dts, visiting); l < min {
			min = l
		}
	}
	return min
}

// downstreams finds the DTs among dts that read dt.
func (s *Scheduler) downstreams(dt *core.DynamicTable, dts []*core.DynamicTable) []*core.DynamicTable {
	var out []*core.DynamicTable
	for _, other := range dts {
		if other == dt {
			continue
		}
		ups, err := s.ctrl.Upstreams(other)
		if err != nil {
			continue
		}
		if slices.Contains(ups, dt) {
			out = append(out, other)
		}
	}
	return out
}

// Period returns the refresh period chosen for the DT.
func (s *Scheduler) Period(dt *core.DynamicTable) time.Duration {
	dts := s.dts()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.period(dt, dts)
}

// period is Period over the live DTs dts, with the scheduler lock held.
func (s *Scheduler) period(dt *core.DynamicTable, dts []*core.DynamicTable) time.Duration {
	lag := s.effectiveLag(dt, dts, make(map[*core.DynamicTable]bool))
	if s.ExactPeriods {
		if lag >= NoLag {
			return NoLag
		}
		return lag
	}
	return CanonicalPeriod(lag)
}

// nextFire returns the first fire time strictly after `after` for the DT.
func (s *Scheduler) nextFire(dt *core.DynamicTable, dts []*core.DynamicTable, after time.Time) (time.Time, bool) {
	p := s.period(dt, dts)
	if p >= NoLag {
		return time.Time{}, false
	}
	elapsed := after.Sub(s.epoch.Add(s.phase))
	if elapsed < 0 {
		return s.epoch.Add(s.phase), true
	}
	k := elapsed / p
	next := s.epoch.Add(s.phase + (k+1)*p)
	return next, true
}

// Step processes the next pending fire instant in (cursor, limit],
// refreshing every DT due at that instant upstream-first. It reports
// whether anything was processed.
func (s *Scheduler) Step(limit time.Time) (bool, error) {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	return s.step(limit)
}

// step is Step with tickMu held; it takes (and drops) mu itself.
func (s *Scheduler) step(limit time.Time) (bool, error) {
	dts := s.dts()
	s.mu.Lock()
	var earliest time.Time
	found := false
	for _, dt := range dts {
		if dt.State() == core.StateSuspended {
			continue
		}
		next, ok := s.nextFire(dt, dts, s.cursor)
		if !ok || next.After(limit) {
			continue
		}
		if !found || next.Before(earliest) {
			earliest, found = next, true
		}
	}
	if !found {
		if limit.After(s.cursor) {
			s.cursor = limit
		}
		s.mu.Unlock()
		return false, nil
	}
	s.cursor = earliest
	s.mu.Unlock()
	if s.clk != nil {
		s.clk.AdvanceTo(earliest)
	}
	return true, s.fireAt(earliest)
}

// RunUntil processes every pending fire instant up to t.
func (s *Scheduler) RunUntil(t time.Time) error {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	for {
		processed, err := s.step(t)
		if err != nil {
			return err
		}
		if !processed {
			return nil
		}
	}
}

// fireAt refreshes every DT whose fire schedule includes the instant: it
// applies the scheduling policy (skip-vs-queue, §3.3.3; exact-period
// repair, E11), hands the due set to the refresher — which partitions it
// into dependency waves and runs each wave concurrently — and folds the
// results back into the stats.
// The policy pass and the result fold run under mu; execution does not,
// so a long wave never blocks monitoring accessors. tickMu (held by the
// caller) keeps concurrent passes from interleaving around the gap.
func (s *Scheduler) fireAt(at time.Time) error {
	dts := s.dts()
	s.mu.Lock()
	var due []*core.DynamicTable
	for _, dt := range dts {
		if dt.State() == core.StateSuspended {
			continue
		}
		p := s.period(dt, dts)
		if p >= NoLag {
			continue
		}
		offset := at.Sub(s.epoch.Add(s.phase))
		if offset >= 0 && offset%p == 0 {
			due = append(due, dt)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].Name < due[j].Name })

	// First pass: policy decisions (skip-vs-queue, §3.3.3) select the
	// tick's execution set.
	var reqs []refresher.Request
	executing := make(map[*core.DynamicTable]bool, len(due))
	for _, dt := range due {
		s.stats.Scheduled++

		// Skip if the previous refresh is still running (§3.3.3). The
		// skipped interval folds into the next refresh via the frontier.
		busy := dt.BusyUntil()
		ready := at
		if busy.After(ready) {
			if !s.DisableSkip {
				s.stats.Skips++
				s.ctrl.RecordSkip(dt, at)
				continue
			}
			ready = busy // queue behind the running refresh instead
		}
		reqs = append(reqs, refresher.Request{DT: dt, DataTS: at, Ready: ready})
		executing[dt] = true
	}

	exactPeriods := s.ExactPeriods
	s.mu.Unlock()

	// Under exact periods, upstream data timestamps misalign; repair by
	// issuing extra upstream refreshes at this timestamp (the cost the
	// canonical periods avoid, §5.2 / E11). Upstreams executing in this
	// very tick need no repair: they refresh in an earlier wave, so their
	// version exists by the time the downstream resolves it — exactly as
	// under serial topo-ordered scheduling. The repair refreshes run
	// outside mu (they are real controller refreshes, not policy).
	extraUpstream := 0
	if exactPeriods {
		for _, req := range reqs {
			ups, err := s.ctrl.Upstreams(req.DT)
			if err != nil {
				continue
			}
			for _, up := range ups {
				if executing[up] {
					continue
				}
				if _, ok := up.VersionAtDataTS(at); !ok {
					if _, err := s.ctrl.Refresh(up, at); err == nil {
						extraUpstream++
					}
				}
			}
		}
	}

	results, err := s.exec.ExecuteTick(reqs)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.ExtraUpstreamRefreshes += extraUpstream
	if err != nil {
		return err
	}
	for _, res := range results {
		s.tally(res.Rec, res.Err)
	}
	return nil
}

func (s *Scheduler) tally(rec core.RefreshRecord, err error) {
	switch {
	case err != nil && errors.Is(err, core.ErrSkipped):
		s.stats.Skips++
	case err != nil:
		s.stats.Errors++
	default:
		switch rec.Action {
		case core.ActionNoData:
			s.stats.NoData++
		case core.ActionIncremental:
			s.stats.Incremental++
		case core.ActionFull:
			s.stats.Full++
		case core.ActionReinitialize:
			s.stats.Reinit++
		case core.ActionInitialize:
			s.stats.Initialize++
		}
	}
}
