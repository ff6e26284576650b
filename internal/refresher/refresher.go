// Package refresher executes the set of dynamic-table refreshes due at a
// scheduler tick. Where the scheduler decides *when* a DT must refresh
// (§3.2, §5.2), the refresher decides *how* the due set runs: it
// topologically partitions the DTs into dependency waves using the
// controller's upstream resolution, then executes each wave's refreshes
// concurrently on a worker pool, so a wide DAG pays its critical path
// instead of the sum of its refresh costs.
//
// Guarantees:
//
//   - Dependency order: a DT refreshes strictly after every upstream DT
//     in the same tick (waves are real barriers, not just orderings), so
//     downstream version resolution (§5.3) always finds the upstream's
//     version for the tick's data timestamp.
//   - Determinism: virtual-time accounting (warehouse billing, job start
//     and end instants, result ordering) is computed in a deterministic
//     name-ordered pass per wave, independent of goroutine interleaving.
//   - Isolation: a panic inside one DT's refresh is confined to that DT
//     and surfaces as its refresh error, recorded in its history and
//     counted toward auto-suspension; sibling refreshes proceed.
//   - Retry: a refresh failing with a transient error (first-committer-
//     wins write conflicts against concurrent DML) is retried once
//     before the failure is reported.
package refresher

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/obs"
	"dyntables/internal/trace"
	"dyntables/internal/txn"
	"dyntables/internal/warehouse"
)

// Request is one due refresh handed to the refresher by the scheduler.
type Request struct {
	DT *core.DynamicTable
	// DataTS is the refresh's data timestamp (the tick's fire instant).
	DataTS time.Time
	// Ready is the earliest virtual start for the refresh job. Usually
	// DataTS; the scheduler's skip-disabled ablation queues a refresh
	// behind a still-running one by setting Ready past DataTS (§3.3.3).
	Ready time.Time
}

// Result describes one executed refresh.
type Result struct {
	DT *core.DynamicTable
	// Wave is the dependency wave the DT ran in (0 = no due upstreams).
	Wave int
	// Rec and Err are the controller's refresh outcome (after any retry).
	// Rec carries the per-refresh effective-mode decision of the
	// adaptive REFRESH_MODE=AUTO chooser (EffectiveMode, ModeReason and
	// its cost signals), so callers see which mode each wave item
	// actually ran in.
	Rec core.RefreshRecord
	Err error
	// Start and End bound the refresh job in virtual time: Start is when
	// a warehouse slot picked the job up, End when it finished. For
	// NO_DATA and failed refreshes End equals Start (no compute).
	Start, End time.Time
	// Worker is the worker-pool slot (0..workers-1) that executed the
	// refresh.
	Worker int
	// Retried marks a refresh that failed transiently and succeeded (or
	// failed again) on the second attempt.
	Retried bool
	// Panicked marks a refresh whose failure was a recovered panic.
	Panicked bool
	// Usage is the refresh's resource cost (host CPU time, allocation
	// deltas), metered on the worker goroutine around the controller
	// refresh including any retry. The accounting pass places it on the
	// DT's record with the execution.
	Usage obs.Usage
}

// Refresher runs dependency-wave refresh execution over a worker pool.
// All methods are safe for concurrent use, but ticks serialize against
// Quiesce: a quiesced refresher blocks ExecuteTick until Resume.
type Refresher struct {
	ctrl *core.Controller
	// warehouse resolves the warehouse a DT names; a refresh whose
	// warehouse does not resolve runs at XSMALL timing and bills no job.
	warehouse func(name string) (*warehouse.Warehouse, error)
	model     warehouse.CostModel

	// refreshFn executes one refresh; defaults to ctrl.Refresh. Tests
	// stub it to inject failures.
	refreshFn func(*core.DynamicTable, time.Time) (core.RefreshRecord, error)

	mu       sync.Mutex
	cond     *sync.Cond
	workers  int
	quiesced bool
	inflight int
	tracer   *trace.Recorder
}

// SetTracer registers the span recorder. Each executed tick becomes one
// root trace ("refresher.tick") with a child span per dependency wave
// and per refresh execution, so wave barriers and worker-slot skew are
// visible in TRACE_SPANS. Nil clears.
func (r *Refresher) SetTracer(t *trace.Recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = t
}

// New creates a refresher that bills refreshes to the warehouses wh
// resolves by name. workers <= 0 derives the pool width from the host:
// one worker per schedulable CPU (GOMAXPROCS).
func New(ctrl *core.Controller, wh func(name string) (*warehouse.Warehouse, error), model warehouse.CostModel, workers int) *Refresher {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Refresher{ctrl: ctrl, warehouse: wh, model: model, workers: workers}
	r.refreshFn = ctrl.Refresh
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Workers returns the worker-pool width.
func (r *Refresher) Workers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.workers
}

// SetWorkers resizes the worker pool (takes effect on the next tick).
// n <= 0 re-derives the width from GOMAXPROCS.
func (r *Refresher) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers = n
}

// Quiesce blocks new ticks and waits for in-flight ticks to drain. The
// durability layer quiesces the refresher while recovery replays the WAL
// through the same engine mutation paths a live refresh uses, so replay
// never races a scheduled refresh. Call Resume to accept ticks again.
func (r *Refresher) Quiesce() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.quiesced = true
	for r.inflight > 0 {
		r.cond.Wait()
	}
}

// Resume accepts ticks again after Quiesce.
func (r *Refresher) Resume() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.quiesced = false
	r.cond.Broadcast()
}

// beginTick blocks while quiesced, then registers an in-flight tick and
// snapshots the pool width for the whole tick.
func (r *Refresher) beginTick() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.quiesced {
		r.cond.Wait()
	}
	r.inflight++
	return r.workers
}

func (r *Refresher) endTick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inflight--
	r.cond.Broadcast()
}

// ExecuteTick refreshes every requested DT, upstream waves first, each
// wave concurrently across the worker pool. Results are ordered by
// (wave, DT name) regardless of execution interleaving. The returned
// error reports structural failures only (a dependency cycle); per-DT
// refresh failures live in their Result and aggregate via Errs.
func (r *Refresher) ExecuteTick(reqs []Request) ([]Result, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	workers := r.beginTick()
	defer r.endTick()
	r.mu.Lock()
	tracer := r.tracer
	r.mu.Unlock()
	tick := tracer.StartRoot("refresher.tick",
		trace.A("due", strconv.Itoa(len(reqs))),
		trace.A("workers", strconv.Itoa(workers)))
	defer func() { tracer.FinishRoot(tick) }()

	waves, upstreams, err := r.partition(reqs)
	if err != nil {
		return nil, err
	}

	// endOf records each DT's virtual completion within this tick so a
	// later wave's refresh starts no earlier than its upstream data was
	// ready.
	endOf := make(map[*core.DynamicTable]time.Time, len(reqs))
	results := make([]Result, 0, len(reqs))
	for waveIdx, wave := range waves {
		waveSpan := tick.Child("wave",
			trace.A("wave", strconv.Itoa(waveIdx)),
			trace.A("size", strconv.Itoa(len(wave))))
		executed := r.runWave(wave, workers, waveSpan)
		waveSpan.End()
		// Deterministic accounting pass: bill jobs and fix virtual start
		// and end instants in name order, independent of which goroutine
		// finished first, then place each refresh, its billed job and its
		// metered usage on the DT's record.
		for i := range executed {
			res := &executed[i]
			res.Wave = waveIdx
			ready := res.Start // seeded with the request's Ready
			for _, up := range upstreams[res.DT] {
				if end, ok := endOf[up]; ok && end.After(ready) {
					ready = end
				}
			}
			res.Start, res.End = ready, ready
			var job *warehouse.Job
			if res.Err == nil && res.Rec.Action != core.ActionNoData {
				if wh, werr := r.warehouse(res.DT.Warehouse); werr == nil {
					j := wh.SubmitConcurrent(ready, res.Rec.SourceRowsScanned, r.model, workers)
					job, res.Start, res.End = &j, j.Start, j.End
				} else {
					res.End = ready.Add(r.model.Duration(res.Rec.SourceRowsScanned, warehouse.SizeXSmall))
				}
			}
			if res.Err == nil {
				endOf[res.DT] = res.End
			}
			usage := res.Usage
			res.DT.Place(res.Rec.DataTS, core.Execution{Wave: res.Wave, Worker: res.Worker,
				Start: res.Start, End: res.End, Job: job}, &usage)
		}
		results = append(results, executed...)
	}
	return results, nil
}

// runWave executes one wave's refreshes concurrently, at most `workers`
// at a time, and returns per-DT results in the wave's (name) order with
// Start seeded from each request's Ready time. The semaphore carries
// worker-slot tokens so each result records which slot executed it. The
// dispatch loop takes a slot before it starts a refresh, so refreshes
// start in the wave's order; with one worker they also commit in it.
func (r *Refresher) runWave(wave []Request, workers int, waveSpan *trace.Span) []Result {
	out := make([]Result, len(wave))
	slots := make(chan int, workers)
	for w := 0; w < workers; w++ {
		slots <- w
	}
	var wg sync.WaitGroup
	for i, req := range wave {
		slot := <-slots
		wg.Add(1)
		go func(i int, req Request, slot int) {
			defer wg.Done()
			defer func() { slots <- slot }()
			execSpan := waveSpan.Child("refresh.exec",
				trace.A("dt", req.DT.Name),
				trace.A("worker", strconv.Itoa(slot)))
			res := Result{DT: req.DT, Start: req.Ready, Worker: slot}
			meter := obs.StartMeter()
			res.Rec, res.Err, res.Panicked = r.refreshIsolated(req.DT, req.DataTS)
			if res.Err != nil && !res.Panicked && Transient(res.Err) {
				res.Retried = true
				res.Rec, res.Err, res.Panicked = r.refreshIsolated(req.DT, req.DataTS)
			}
			res.Usage = meter.Stop()
			execSpan.SetAttr("cpu", res.Usage.CPU.String())
			execSpan.SetAttr("alloc_bytes", strconv.FormatInt(res.Usage.AllocBytes, 10))
			execSpan.End()
			out[i] = res
		}(i, req, slot)
	}
	wg.Wait()
	return out
}

// refreshIsolated runs one controller refresh with panic confinement: a
// panicking refresh (a malformed plan, a corrupted row) fails that DT
// alone instead of tearing down the scheduler goroutine, and is recorded
// and counted like any failed refresh.
func (r *Refresher) refreshIsolated(dt *core.DynamicTable, dataTS time.Time) (rec core.RefreshRecord, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			err = fmt.Errorf("refresher: panic refreshing %s: %v\n%s", dt.Name, p, debug.Stack())
			rec = r.ctrl.Fail(dt, core.RefreshRecord{DataTS: dataTS}, err)
		}
	}()
	rec, err = r.refreshFn(dt, dataTS)
	return rec, err, false
}

// partition splits the requests into dependency waves: wave 0 holds DTs
// with no due upstream, wave k DTs whose deepest due upstream sits in
// wave k-1. Within a wave, requests are name-ordered so execution and
// accounting are deterministic. It also returns each DT's due upstreams
// for virtual-time readiness gating.
func (r *Refresher) partition(reqs []Request) ([][]Request, map[*core.DynamicTable][]*core.DynamicTable, error) {
	byDT := make(map[*core.DynamicTable]Request, len(reqs))
	for _, req := range reqs {
		byDT[req.DT] = req
	}
	upstreams := make(map[*core.DynamicTable][]*core.DynamicTable, len(reqs))
	for _, req := range reqs {
		ups, err := r.ctrl.Upstreams(req.DT)
		if err != nil {
			// Parity with serial scheduling: an unresolvable defining query
			// surfaces from the refresh itself, not the planner.
			continue
		}
		var due []*core.DynamicTable
		for _, up := range ups {
			if _, ok := byDT[up]; ok {
				due = append(due, up)
			}
		}
		sort.Slice(due, func(i, j int) bool { return due[i].Name < due[j].Name })
		upstreams[req.DT] = due
	}

	depth := make(map[*core.DynamicTable]int, len(reqs))
	var visit func(dt *core.DynamicTable, path map[*core.DynamicTable]bool) (int, error)
	visit = func(dt *core.DynamicTable, path map[*core.DynamicTable]bool) (int, error) {
		if d, ok := depth[dt]; ok {
			return d, nil
		}
		if path[dt] {
			return 0, fmt.Errorf("refresher: dependency cycle through %s", dt.Name)
		}
		path[dt] = true
		defer delete(path, dt)
		d := 0
		for _, up := range upstreams[dt] {
			ud, err := visit(up, path)
			if err != nil {
				return 0, err
			}
			if ud+1 > d {
				d = ud + 1
			}
		}
		depth[dt] = d
		return d, nil
	}

	names := make([]Request, len(reqs))
	copy(names, reqs)
	sort.Slice(names, func(i, j int) bool { return names[i].DT.Name < names[j].DT.Name })

	maxDepth := 0
	for _, req := range names {
		d, err := visit(req.DT, make(map[*core.DynamicTable]bool))
		if err != nil {
			return nil, nil, err
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	waves := make([][]Request, maxDepth+1)
	for _, req := range names {
		d := depth[req.DT]
		waves[d] = append(waves[d], req)
	}
	return waves, upstreams, nil
}

// Transient reports whether a refresh failure is worth one immediate
// retry: first-committer-wins conflicts (txn.ErrConflict) arise when
// concurrent DML commits between a refresh's read and its merge and
// resolve on re-execution. Planner errors, validation failures and
// panics are not transient.
func Transient(err error) bool {
	return errors.Is(err, txn.ErrConflict)
}

// Errs aggregates the failures of a tick deterministically: one error per
// failed DT, joined in result order (wave, then name). Skips (§3.3.3)
// are scheduling outcomes, not failures, and are excluded.
func Errs(results []Result) error {
	var errs []error
	for _, res := range results {
		if res.Err != nil && !errors.Is(res.Err, core.ErrSkipped) {
			errs = append(errs, fmt.Errorf("%s: %w", res.DT.Name, res.Err))
		}
	}
	return errors.Join(errs...)
}
