package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"dyntables/internal/adaptive"
	"dyntables/internal/exec"
	"dyntables/internal/hlc"
	"dyntables/internal/ivm"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/trace"
	"dyntables/internal/txn"
	"dyntables/internal/types"
)

// ErrSkipped is returned when a refresh is skipped because a previous
// refresh of the same DT is still running (§3.3.3).
var ErrSkipped = errors.New("core: refresh skipped (previous refresh still running)")

// ErrSuspended is returned when refreshing a suspended DT.
var ErrSuspended = errors.New("core: dynamic table is suspended")

// ErrUpstreamVersionMissing is the first §6.1 production validation: an
// upstream DT has no version for the exact data timestamp of this refresh,
// indicating a scheduler bug; the refresh fails rather than risk a
// snapshot-isolation violation.
var ErrUpstreamVersionMissing = errors.New("core: upstream DT version for exact data timestamp not found")

// Controller executes DT refreshes. It is the engine-side "compiler +
// transaction" path of §5.1: it binds the defining query (once per
// catalog DDL sequence, see compiled), resolves
// source versions for the refresh interval, chooses the refresh action,
// differentiates the plan when incremental, validates the changes and
// commits them.
//
// The controller keeps no registry of DTs: the catalog is the one
// registry. A DT's upstream DTs are resolved through the catalog entries
// of its plan's scans, once per bind (see compiled).
//
// Refresh is safe for concurrent callers refreshing *distinct* DTs (the
// parallel refresher runs dependency waves this way): per-DT state sits
// behind each DynamicTable's mutex, storage and catalog reads behind
// their own locks, and commits behind the transaction manager's
// per-table locks. The engine runs refreshes under its statement lock,
// so the catalog entries a bind reads do not change beneath it.
// Concurrent refreshes of the same DT serialize through the per-DT
// refresh lock — the second caller gets ErrSkipped (§3.3.3, §5.3).
type Controller struct {
	txns     *txn.Manager
	resolver plan.Resolver

	// entry looks up a catalog entry by ID: its current generation and,
	// when the entry holds a dynamic table, that DT (nil otherwise).
	// Wired by the engine to catalog lookups.
	entry func(entryID int64) (int64, *DynamicTable, error)
	// ddlSeq reads the catalog's DDL sequence, which every committed DDL
	// statement advances; a DT's compiled plan is valid at one value.
	ddlSeq func() int64

	// frontierSink, when set, observes every frontier advance (WAL
	// emission for refresh continuity across restarts). Written only
	// while no refresh runs (a durable engine installs it before Open
	// returns).
	frontierSink FrontierSink
	// seq numbers refresh records across every DT, in recording order.
	seq atomic.Int64

	// HistoryCapacity bounds the per-DT refresh-history ring of DTs this
	// controller builds (0 = core.DefaultHistoryCapacity). Written only
	// while refreshes are excluded (engine DDL lock).
	HistoryCapacity int

	// Columnar routes refresh boundary-snapshot evaluations through the
	// columnar execution path (shared per-version batches + vectorized
	// filters/projections). Change sets are identical either way; the
	// differential harness holds the two paths byte-equivalent. Set once
	// at engine construction (off only for the row reference path).
	Columnar bool

	// Adaptive, when set and enabled, chooses the effective refresh mode
	// of REFRESH_MODE=AUTO DTs per refresh from observed change volume
	// (§3.3.2); nil or disabled falls back to the static AUTO
	// resolution. Written once at engine construction; the chooser's own
	// gate handles runtime toggling.
	Adaptive *adaptive.Chooser

	// Tracer, when set, records one root span per refresh with child
	// spans for every pipeline phase (bind, differentiation operators,
	// merge commit). The root span ID lands in RefreshRecord.TraceRoot so
	// refresh history joins against TRACE_SPANS. Nil (or a disabled
	// recorder) costs one nil check per refresh. Written only at engine
	// construction.
	Tracer *trace.Recorder
}

// FrontierUpdate describes one frontier advance: everything a recovered
// engine needs so its next refresh of the DT proceeds incrementally from
// the same point — the pinned source versions, the data-timestamp mapping
// entry, and the dependency generations observed at the successful bind.
type FrontierUpdate struct {
	DataTS            time.Time
	Versions          ivm.VersionMap // storage table ID -> pinned seq
	VersionSeq        int64          // DT storage version holding the contents
	Commit            hlc.Timestamp  // zero for NO_DATA advances
	Deps              map[int64]int64
	SchemaFingerprint string
	Initialized       bool
	// AdaptiveMode and AdaptiveReason carry the adaptive chooser's
	// decision in force at this refresh, so WAL replay restores the last
	// decision even past the latest checkpoint. AdaptiveValid marks
	// records written by engines that know the adaptive state
	// definitively — for those, RefreshAuto means "decision cleared"
	// (evolved plan, plan no longer incrementalizable) and replay must
	// clear too, not skip; without it (legacy records) RefreshAuto
	// carries no information.
	AdaptiveValid  bool
	AdaptiveMode   sql.RefreshMode
	AdaptiveReason string
}

// FrontierSink observes frontier advances. Implementations must not call
// back into the controller.
type FrontierSink interface {
	FrontierAdvanced(dt *DynamicTable, u FrontierUpdate)
}

// SetFrontierSink registers the frontier observer (at most one; nil
// clears). It must not run beside a refresh.
func (c *Controller) SetFrontierSink(s FrontierSink) {
	c.frontierSink = s
}

func (c *Controller) emitFrontier(dt *DynamicTable, u FrontierUpdate) {
	if c.frontierSink != nil {
		c.frontierSink.FrontierAdvanced(dt, u)
	}
}

// RecordSkip records a scheduler-initiated skip (§3.3.3) in the DT's
// history; the scheduler routes its skip decisions here so skipped ticks
// are observable alongside executed refreshes.
func (c *Controller) RecordSkip(dt *DynamicTable, dataTS time.Time) {
	mode, reason := dt.ModeDecision()
	c.record(dt, RefreshRecord{DataTS: dataTS, Action: ActionSkip, RowsAfter: dt.Storage.RowCount(),
		EffectiveMode: mode, ModeReason: reason})
}

// record numbers a refresh record and appends it to the DT's history.
func (c *Controller) record(dt *DynamicTable, rec RefreshRecord) RefreshRecord {
	rec.Seq = c.seq.Add(1)
	dt.record(rec)
	return rec
}

// NewController wires a controller. entry resolves a catalog entry ID to
// its generation and, when the entry holds a dynamic table, that DT.
// ddlSeq must advance on every DDL statement that can change how the
// resolver resolves a name or what an entry holds.
func NewController(txns *txn.Manager, resolver plan.Resolver, entry func(int64) (int64, *DynamicTable, error), ddlSeq func() int64) *Controller {
	return &Controller{
		txns:     txns,
		resolver: resolver,
		entry:    entry,
		ddlSeq:   ddlSeq,
	}
}

// Adopt prepares a DT the engine built or restored for refreshes through
// this controller. The DT learns the controller's adaptive chooser, so
// its mode reporting can tell whether a sticky adaptive decision is
// actually in force (a disabled chooser falls back to the static
// resolution). A recovered DT's history keeps its sequence numbers,
// which the controller's numbering then continues past.
func (c *Controller) Adopt(dt *DynamicTable) {
	dt.setChooser(c.Adaptive)
	top := dt.numberHistory(func() int64 { return c.seq.Add(1) })
	for cur := c.seq.Load(); cur < top; cur = c.seq.Load() {
		if c.seq.CompareAndSwap(cur, top) {
			break
		}
	}
}

// Build validates a CREATE DYNAMIC TABLE statement: it binds the defining
// query and resolves the effective refresh mode (§3.3.2). The bound plan's
// schema is the DT's output schema and its Deps the entries it reads; the
// engine records both and constructs the DT with NewDynamicTable.
func (c *Controller) Build(stmt *sql.CreateDynamicTableStmt) (*plan.Bound, sql.RefreshMode, error) {
	bound, err := c.bind(stmt.Text)
	if err != nil {
		return nil, stmt.Mode, fmt.Errorf("core: invalid defining query for %s: %w", stmt.Name, err)
	}
	mode, err := resolveMode(stmt.Name, bound, stmt.Mode)
	if err != nil {
		return nil, stmt.Mode, err
	}
	return bound, mode, nil
}

func (c *Controller) bind(text string) (*plan.Bound, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("defining query is not a SELECT")
	}
	bound, err := plan.NewBinder(c.resolver).BindSelect(sel)
	if err != nil {
		return nil, err
	}
	bound.Plan = plan.Optimize(bound.Plan)
	return bound, nil
}

// hlcUpperBound converts a data timestamp to the inclusive upper bound for
// commit-timestamp resolution: every commit whose wall time is at or
// before the data timestamp is visible.
func hlcUpperBound(ts time.Time) hlc.Timestamp {
	return hlc.Timestamp{WallMicros: ts.UnixMicro(), Logical: math.MaxInt32}
}

// resolveVersions computes the version map for a plan's scans as of a
// data timestamp: base tables resolve by commit time; upstream DTs resolve
// through their data-timestamp mapping, failing with
// ErrUpstreamVersionMissing when no exact entry exists (§6.1 validation 1).
func (c *Controller) resolveVersions(cp *compiledPlan, dataTS time.Time) (ivm.VersionMap, error) {
	vm := ivm.VersionMap{}
	for i, scan := range cp.scans {
		id := scan.Table.ID()
		if _, done := vm[id]; done {
			continue
		}
		if up := cp.ups[i]; up != nil {
			seq, ok := up.VersionAtDataTS(dataTS)
			if !ok {
				return nil, fmt.Errorf("%w: %s has no version for %s",
					ErrUpstreamVersionMissing, up.Name, dataTS.UTC().Format(time.RFC3339Nano))
			}
			vm[id] = seq
			continue
		}
		v, err := scan.Table.VersionAsOf(hlcUpperBound(dataTS))
		if err != nil {
			return nil, err
		}
		vm[id] = v.Seq
	}
	return vm, nil
}

// Refresh runs one refresh of the DT at the given data timestamp. The
// returned record describes the action taken; an error return always
// corresponds to a record with ActionError or ActionSkip.
func (c *Controller) Refresh(dt *DynamicTable, dataTS time.Time) (RefreshRecord, error) {
	if dt.State() == StateSuspended {
		return RefreshRecord{DataTS: dataTS, Action: ActionSkip, Err: ErrSuspended}, ErrSuspended
	}
	root := c.Tracer.StartRoot("refresh", trace.A("dt", dt.Name))
	defer func() { c.Tracer.FinishRoot(root) }()
	if !dt.tryBeginRefresh() {
		mode, reason := dt.ModeDecision()
		rec := RefreshRecord{DataTS: dataTS, Action: ActionSkip, Err: ErrSkipped,
			RowsAfter: dt.Storage.RowCount(), EffectiveMode: mode, ModeReason: reason,
			TraceRoot: root.RootID()}
		root.SetAttr("action", rec.Action.String())
		return c.record(dt, rec), ErrSkipped
	}
	defer dt.endRefresh()

	rec, err := c.refreshLocked(dt, dataTS, root)
	rec.TraceRoot = root.RootID()
	if err != nil {
		root.SetAttr("action", ActionError.String())
		return c.Fail(dt, rec, err), err
	}
	root.SetAttr("action", rec.Action.String())
	root.SetAttr("scan_rows", strconv.FormatInt(rec.SourceRowsScanned, 10))
	root.SetAttr("scan_bytes", strconv.FormatInt(rec.ScanBytes, 10))
	dt.mu.Lock()
	dt.errorCount = 0
	dt.mu.Unlock()
	return c.record(dt, rec), nil
}

// Fail records a failed refresh: rec becomes the DT's ERROR record and
// the DT's error streak advances, suspending it at MaxConsecutiveErrors
// (§3.3.3). Refresh fails through it, and so does the refresher for a
// refresh that panicked.
func (c *Controller) Fail(dt *DynamicTable, rec RefreshRecord, err error) RefreshRecord {
	rec.Action = ActionError
	rec.Err = err
	rec = c.record(dt, rec)
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.errorCount++
	if dt.errorCount >= MaxConsecutiveErrors {
		dt.state = StateSuspended
	}
	return rec
}

// spanHook adapts a trace span to ivm.Env.Span, keeping ivm free of a
// trace dependency. A nil root yields a nil hook, so the delta
// evaluator's per-operator instrumentation disappears entirely when
// tracing is off.
func spanHook(root *trace.Span) func(string) func() {
	if root == nil {
		return nil
	}
	return func(name string) func() {
		return root.Child(name).End
	}
}

// refreshLocked performs the action decision and execution of §5.4.
// root (nil when tracing is disabled) carries the refresh's trace; the
// phases below record child spans under it.
func (c *Controller) refreshLocked(dt *DynamicTable, dataTS time.Time, root *trace.Span) (RefreshRecord, error) {
	rec := RefreshRecord{DataTS: dataTS}
	// Seed the mode fields with the decision currently in force; the
	// adaptive decision point below refines them once the interval's
	// cost signals are known.
	rec.EffectiveMode, rec.ModeReason = dt.ModeDecision()

	if !dataTS.After(dt.DataTimestamp()) && dt.Initialized() {
		// Data timestamps move strictly forward; re-refreshing at the same
		// timestamp is a NO_DATA no-op for idempotence.
		rec.Action = ActionNoData
		rec.RowsAfter = dt.Storage.RowCount()
		return rec, nil
	}

	// The defining query as bound at the current DDL sequence: rebuilt,
	// under a bind span, only when DDL or an upstream's schema change may
	// resolve its identifiers differently (§5.4).
	cp, err := c.compiled(dt, root)
	if err != nil {
		return rec, err
	}
	bound := cp.bound

	// Query evolution: a replaced dependency or changed output schema
	// forces reinitialization (§5.4, conservative policy).
	evolved, err := c.queryEvolved(dt, cp)
	if err != nil {
		return rec, err
	}

	vmTo, err := c.resolveVersions(cp, dataTS)
	if err != nil {
		return rec, err
	}

	counters := &exec.Counters{}
	env := &ivm.Env{
		Now:          dataTS,
		Counters:     counters,
		Columnar:     c.Columnar,
		Span:         spanHook(root),
		Accumulators: &dt.accumulators,
	}

	if !dt.Initialized() || evolved {
		if evolved {
			// The plan changed structurally (replaced dependency or new
			// output schema): any sticky adaptive decision was made for a
			// different plan, so adaptation restarts from a cold start —
			// and this record must not carry the just-invalidated
			// decision's reason. Re-seed before deriving the action, so
			// action and effective_mode agree.
			dt.ClearAdaptiveDecision()
			rec.EffectiveMode, rec.ModeReason = dt.ModeDecision()
		}
		action := ActionInitialize
		if dt.Initialized() {
			if rec.EffectiveMode == sql.RefreshIncremental {
				action = ActionReinitialize
			} else {
				action = ActionFull
			}
		}
		rec.Action = action
		return c.fullCompute(dt, cp, dataTS, vmTo, env, rec)
	}

	// NO_DATA when no source changed over the interval (§3.3.2) and the
	// result cannot change without them: CURRENT_TIMESTAMP moves it with
	// the data timestamp alone.
	frontier := dt.Frontier()
	changed := plan.Volatile(bound.Plan)
	for _, scan := range cp.scans {
		if changed {
			break
		}
		id := scan.Table.ID()
		from, ok := frontier.Versions[id]
		if !ok {
			changed = true // new dependency appeared without generation bump
			break
		}
		if scan.Table.ChangedSince(from, vmTo[id]) {
			changed = true
			break
		}
	}
	if !changed {
		rec.Action = ActionNoData
		rec.RowsAfter = dt.Storage.RowCount()
		c.advanceFrontier(dt, bound.Deps, dataTS, vmTo, int64(dt.Storage.VersionCount()), hlc.Zero)
		return rec, nil
	}

	// Per-refresh mode decision (§3.3.2): pinned modes resolve statically;
	// incrementalizable AUTO DTs consult the adaptive chooser, comparing
	// the interval's change volume against the full-recompute estimate
	// smoothed over recent refresh history.
	mode, reason, changeVol, fullEst := c.chooseMode(dt, cp, frontier, vmTo)
	rec.EffectiveMode, rec.ModeReason = mode, reason
	rec.SourceRowsChanged, rec.FullScanEstimate = changeVol, fullEst

	if mode == sql.RefreshFull {
		rec.Action = ActionFull
		return c.fullCompute(dt, cp, dataTS, vmTo, env, rec)
	}

	// INCREMENTAL: differentiate over the frontier interval. AUTO never
	// gets here with a plan that is not incrementalizable, and CREATE and
	// ALTER refuse such a pin, but a pin recorded before its plan stopped
	// being incrementalizable (upstream DDL, or CURRENT_TIMESTAMP before
	// it forced FULL) fails rather than store contents that break DVS.
	if err := ivm.Incrementalizable(bound.Plan); err != nil {
		return rec, fmt.Errorf("core: %s: REFRESH_MODE=INCREMENTAL unsupported: %w", dt.Name, err)
	}
	// The DT's contents at the frontier are the query's result at the
	// interval's start: the top affected-key rule reads its old side there.
	if seq, ok := dt.VersionAtDataTS(frontier.DataTS); ok {
		env.Stored, env.StoredSeq = dt.Storage, seq
	}
	cs, err := ivm.Delta(bound.Plan, ivm.Interval{From: frontier.Versions, To: vmTo}, env)
	if errors.Is(err, ivm.ErrSourceOverwritten) {
		// An upstream replace/overwrite invalidates stored results (§3.3.2).
		rec.Action = ActionReinitialize
		return c.fullCompute(dt, cp, dataTS, vmTo, env, rec)
	}
	if err != nil {
		return rec, err
	}
	rec.Action = ActionIncremental
	rec.SourceRowsScanned = counters.ScanRows
	rec.ScanBytes = counters.ScanBytes

	// §6.1 validations 2 and 3: at most one row per ($ROW_ID, $ACTION),
	// and never delete a row that does not exist. The second is the
	// storage commit's own check, which reports *storage.ErrMissingRow.
	if err := cs.ValidateWellFormed(); err != nil {
		return rec, fmt.Errorf("core: %s: refresh produced ill-formed changes: %w", dt.Name, err)
	}

	ins, del := cs.Counts()
	rec.Inserted, rec.Deleted = ins, del

	// Merge: apply the changes in a transaction (§5.3).
	mergeSpan := root.Child("merge")
	tx := c.txns.Begin()
	if err := tx.Write(dt.Storage, cs); err != nil {
		tx.Abort()
		mergeSpan.End()
		return rec, err
	}
	commit, err := tx.Commit()
	mergeSpan.End()
	var missing *storage.ErrMissingRow
	if errors.As(err, &missing) {
		return rec, fmt.Errorf("core: %s: refresh deletes nonexistent row %s", dt.Name, missing.RowID)
	}
	if err != nil {
		return rec, err
	}
	rec.RowsAfter = dt.Storage.RowCount()
	c.advanceFrontier(dt, bound.Deps, dataTS, vmTo, int64(dt.Storage.VersionCount()), commit)
	return rec, nil
}

// chooseMode resolves the effective refresh mode for one refresh and
// returns it with its reason and the interval's cost signals. Pinned
// modes and non-incrementalizable AUTO plans resolve statically; for
// incrementalizable AUTO plans with the adaptive chooser enabled, the
// decision compares the change volume recorded in the source version
// chains against the full-recompute estimate, smoothed over the DT's
// recent refresh history with hysteresis so the mode does not flap at
// the crossover.
func (c *Controller) chooseMode(dt *DynamicTable, cp *compiledPlan, frontier Frontier, vmTo ivm.VersionMap) (sql.RefreshMode, string, int64, int64) {
	// Cost signals are computed for every refresh — a walk over
	// version-chain lengths, no row materialization — so the refresh
	// history carries them even for pinned DTs.
	var changeVol, baseRows int64
	seen := map[int64]bool{}
	for _, scan := range cp.scans {
		id := scan.Table.ID()
		if seen[id] {
			continue
		}
		seen[id] = true
		changeVol += scan.Table.ChangeVolume(frontier.Versions[id], vmTo[id])
		if v, err := scan.Table.VersionBySeq(vmTo[id]); err == nil {
			baseRows += int64(v.RowCount)
		}
	}
	fullEst := baseRows + int64(dt.Storage.RowCount())

	if dt.DeclaredMode != sql.RefreshAuto {
		mode, reason := StaticResolution(dt.DeclaredMode, dt.DeclaredMode)
		return mode, reason, changeVol, fullEst
	}
	if err := ivm.Incrementalizable(cp.bound.Plan); err != nil {
		// Upstream DDL can make an AUTO plan non-incrementalizable after
		// Build: record the re-resolution (and drop any sticky adaptive
		// decision — it was made for a structurally different plan) so
		// every reporting surface agrees with what this refresh runs.
		reason := fmt.Sprintf("AUTO: %v", err)
		dt.ClearAdaptiveDecision()
		dt.setStaticResolution(sql.RefreshFull, reason)
		return sql.RefreshFull, reason, changeVol, fullEst
	}
	if c.Adaptive == nil || !c.Adaptive.Enabled() {
		mode, reason := StaticResolution(sql.RefreshAuto, sql.RefreshIncremental)
		dt.setStaticResolution(mode, reason)
		return mode, reason, changeVol, fullEst
	}

	cfg := c.Adaptive.Config()
	dec := c.Adaptive.Decide(dt.adaptivePrior(), dt.recentObservations(cfg.Window, cfg.AmpMemory),
		adaptive.Observation{ChangeRows: changeVol, FullRows: fullEst})
	mode := sql.RefreshIncremental
	if dec.Mode == adaptive.ModeFull {
		mode = sql.RefreshFull
	}
	dt.setAdaptiveDecision(mode, dec.Reason)
	return mode, dec.Reason, changeVol, fullEst
}

// StaticMode re-resolves a DT's static mode for its declared mode: the
// declared pin itself, or — for AUTO — INCREMENTAL exactly when the
// defining query is incrementalizable. ALTER ... SET REFRESH_MODE uses
// it to validate and install a new declaration.
func (c *Controller) StaticMode(dt *DynamicTable, declared sql.RefreshMode) (sql.RefreshMode, error) {
	cp, err := c.compiled(dt, nil)
	if err != nil {
		return declared, err
	}
	return resolveMode(dt.Name, cp.bound, declared)
}

// resolveMode maps a declared refresh mode to the static effective mode
// for a bound defining query: AUTO becomes INCREMENTAL when the plan is
// incrementalizable and FULL otherwise, and an INCREMENTAL pin on a
// non-incrementalizable plan is an error.
func resolveMode(name string, bound *plan.Bound, declared sql.RefreshMode) (sql.RefreshMode, error) {
	incErr := ivm.Incrementalizable(bound.Plan)
	switch declared {
	case sql.RefreshIncremental:
		if incErr != nil {
			return declared, fmt.Errorf("core: %s: REFRESH_MODE=INCREMENTAL unsupported: %w", name, incErr)
		}
		return sql.RefreshIncremental, nil
	case sql.RefreshFull:
		return sql.RefreshFull, nil
	default:
		if incErr == nil {
			return sql.RefreshIncremental, nil
		}
		return sql.RefreshFull, nil
	}
}

// fullCompute executes the defining query as of the data timestamp and
// overwrites the DT's contents (FULL / INITIALIZE / REINITIALIZE actions).
func (c *Controller) fullCompute(dt *DynamicTable, cp *compiledPlan, dataTS time.Time, vmTo ivm.VersionMap, env *ivm.Env, rec RefreshRecord) (RefreshRecord, error) {
	rows, err := ivm.EvalAsOf(cp.bound.Plan, vmTo, env)
	if err != nil {
		return rec, err
	}
	contents := make(map[string]types.Row, len(rows))
	for _, tr := range rows {
		contents[tr.ID] = tr.Row
	}
	if env.Counters != nil {
		rec.SourceRowsScanned = env.Counters.ScanRows
		rec.ScanBytes = env.Counters.ScanBytes
	}

	// Schema evolution: adopt the (possibly changed) output schema.
	dt.Storage.SetSchema(cp.bound.Plan.Schema())

	tx := c.txns.Begin()
	if err := tx.Overwrite(dt.Storage, contents); err != nil {
		tx.Abort()
		return rec, err
	}
	commit, err := tx.Commit()
	if err != nil {
		return rec, err
	}
	rec.Inserted = len(contents)
	rec.RowsAfter = len(contents)

	dt.mu.Lock()
	dt.initialized = true
	dt.deps = cp.bound.Deps
	dt.schemaFingerprint = cp.fingerprint
	dt.mu.Unlock()
	c.advanceFrontier(dt, cp.bound.Deps, dataTS, vmTo, int64(dt.Storage.VersionCount()), commit)
	return rec, nil
}

// advanceFrontier installs the new frontier and records the data-timestamp
// mapping (§5.3: "when a refresh commits, we add a new entry to the
// mapping"). The advance is also emitted to the frontier sink so the
// durability layer can replay it after a crash.
// deps is the compiled plan's Deps map, which the DT shares read-only.
func (c *Controller) advanceFrontier(dt *DynamicTable, deps map[int64]int64, dataTS time.Time, vm ivm.VersionMap, versionSeq int64, commit hlc.Timestamp) {
	dt.mu.Lock()
	dt.frontier = Frontier{DataTS: dataTS, Versions: vm.Clone()}
	dt.deps = deps
	dt.versionByDataTS[dataTS.UnixMicro()] = versionSeq
	if !commit.IsZero() {
		dt.commitByDataTS[dataTS.UnixMicro()] = commit
	}
	u := FrontierUpdate{
		DataTS:            dataTS,
		Versions:          vm.Clone(),
		VersionSeq:        versionSeq,
		Commit:            commit,
		Deps:              cloneDeps(deps),
		SchemaFingerprint: dt.schemaFingerprint,
		Initialized:       dt.initialized,
		AdaptiveValid:     true,
		AdaptiveMode:      dt.adaptiveMode,
		AdaptiveReason:    dt.adaptiveReason,
	}
	dt.mu.Unlock()
	c.emitFrontier(dt, u)
}

func cloneDeps(deps map[int64]int64) map[int64]int64 {
	out := make(map[int64]int64, len(deps))
	for k, v := range deps {
		out[k] = v
	}
	return out
}

// queryEvolved reports whether the DT must reinitialize because a
// dependency was replaced (generation bump) or the output schema changed
// (§5.4). Dropped dependencies surface as bind errors instead.
func (c *Controller) queryEvolved(dt *DynamicTable, cp *compiledPlan) (bool, error) {
	dt.mu.Lock()
	oldDeps := dt.deps
	oldSchema := dt.schemaFingerprint
	dt.mu.Unlock()

	if cp.fingerprint != oldSchema {
		return true, nil
	}
	for id := range cp.bound.Deps {
		gen, _, err := c.entry(id)
		if err != nil {
			return false, err
		}
		old, known := oldDeps[id]
		if !known {
			// A dependency the DT did not previously read (e.g. a view
			// now resolving to a different table): reinitialize.
			return true, nil
		}
		if gen != old {
			return true, nil
		}
	}
	// A dependency disappearing from the bound set also evolves the query.
	for id := range oldDeps {
		if _, still := cp.bound.Deps[id]; !still {
			return true, nil
		}
	}
	return false, nil
}

// ChooseInitTimestamp implements §3.1.2: an initialization reuses the most
// recent data timestamp among upstream DTs that is within the target lag;
// otherwise it uses the creation time. This avoids the quadratic refresh
// blow-up when users create DT chains in dependency order.
func (c *Controller) ChooseInitTimestamp(dt *DynamicTable, now time.Time) (time.Time, error) {
	cp, err := c.compiled(dt, nil)
	if err != nil {
		return time.Time{}, err
	}
	lag := dt.Lag.Duration
	if dt.Lag.Kind == sql.LagDownstream {
		// DOWNSTREAM DTs accept any upstream timestamp.
		lag = time.Duration(math.MaxInt64)
	}
	var best time.Time
	for _, up := range cp.ups {
		if up == nil {
			continue
		}
		ts := up.DataTimestamp()
		if ts.IsZero() {
			continue
		}
		if now.Sub(ts) <= lag && ts.After(best) {
			best = ts
		}
	}
	if best.IsZero() {
		return now, nil
	}
	return best, nil
}

// CheckDVS verifies delayed view semantics (§3.1.1 / §6.1): the DT's
// stored contents must equal the defining query evaluated as of the data
// timestamp, using the frontier's pinned versions. This is the strong
// assertion the paper's randomized workload testing checks for hundreds of
// thousands of generated DTs.
func (c *Controller) CheckDVS(dt *DynamicTable) error {
	if !dt.Initialized() {
		return fmt.Errorf("core: %s is not initialized", dt.Name)
	}
	cp, err := c.compiled(dt, nil)
	if err != nil {
		return err
	}
	frontier := dt.Frontier()
	env := &ivm.Env{Now: frontier.DataTS, Columnar: c.Columnar}
	expected, err := ivm.EvalAsOf(cp.bound.Plan, frontier.Versions, env)
	if err != nil {
		return err
	}
	// Compare the version the frontier's data timestamp maps to, not the
	// tip: a refresh running beside this check commits its new version
	// before it advances the frontier.
	seq, ok := dt.VersionAtDataTS(frontier.DataTS)
	if !ok {
		seq = int64(dt.Storage.VersionCount())
	}
	stored, err := dt.Storage.Rows(seq)
	if err != nil {
		return err
	}
	if len(expected) != len(stored) {
		return fmt.Errorf("core: DVS violation in %s: stored %d rows, query yields %d",
			dt.Name, len(stored), len(expected))
	}
	for _, tr := range expected {
		got, ok := stored[tr.ID]
		if !ok {
			return fmt.Errorf("core: DVS violation in %s: row %s missing from stored contents", dt.Name, tr.ID)
		}
		if !got.Equal(tr.Row) {
			return fmt.Errorf("core: DVS violation in %s: row %s stored as %v, query yields %v",
				dt.Name, tr.ID, got, tr.Row)
		}
	}
	return nil
}

// Upstreams returns the DTs that the defining query reads (directly), in
// scan order, as resolved when the plan was bound.
func (c *Controller) Upstreams(dt *DynamicTable) ([]*DynamicTable, error) {
	cp, err := c.compiled(dt, nil)
	if err != nil {
		return nil, err
	}
	var out []*DynamicTable
	for _, up := range cp.ups {
		if up != nil && !slices.Contains(out, up) {
			out = append(out, up)
		}
	}
	return out, nil
}
