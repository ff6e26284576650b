// Package core implements the paper's primary contribution: Dynamic
// Tables. A dynamic table owns a stored result, a frontier tracking the
// versions of every consumed source (§5.3), and a refresh controller that
// chooses and executes the NO_DATA / FULL / INCREMENTAL / REINITIALIZE
// refresh actions (§3.3.2, §5.4), upholding delayed view semantics: after
// every successful refresh, the stored contents equal the defining query
// evaluated as of the DT's data timestamp (§3.1.1).
package core

import (
	"fmt"
	"sync"
	"time"

	"dyntables/internal/adaptive"
	"dyntables/internal/catalog"
	"dyntables/internal/hlc"
	"dyntables/internal/ivm"
	"dyntables/internal/obs"
	"dyntables/internal/ring"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/warehouse"
)

// State is a DT's lifecycle state.
type State uint8

// The DT states.
const (
	// StateActive means the DT refreshes on schedule.
	StateActive State = iota
	// StateSuspended means refreshes are paused (manually or after
	// consecutive errors, §3.3.3).
	StateSuspended
)

// String names the state.
func (s State) String() string {
	if s == StateSuspended {
		return "SUSPENDED"
	}
	return "ACTIVE"
}

// MaxConsecutiveErrors is the auto-suspension threshold (§3.3.3).
const MaxConsecutiveErrors = 5

// DefaultHistoryCapacity bounds a DT's in-memory refresh history ring:
// the most recent DefaultHistoryCapacity records are kept, so
// long-running schedulers do not grow per-DT state without bound.
const DefaultHistoryCapacity = 1024

// Frontier is the map underlying a DT's data timestamp (§5.3): the version
// of each source table the DT has consumed, plus the refresh timestamp.
type Frontier struct {
	// DataTS is the data timestamp: the DT's contents equal the defining
	// query evaluated as of this time.
	DataTS time.Time
	// Versions pins the consumed version per source storage-table ID.
	Versions ivm.VersionMap
}

// Clone copies the frontier.
func (f Frontier) Clone() Frontier {
	return Frontier{DataTS: f.DataTS, Versions: f.Versions.Clone()}
}

// RefreshAction is the action a refresh took (§3.3.2).
type RefreshAction uint8

// The refresh actions.
const (
	ActionNoData RefreshAction = iota
	ActionFull
	ActionIncremental
	ActionReinitialize
	ActionInitialize
	ActionSkip
	ActionError
)

// String names the action.
func (a RefreshAction) String() string {
	switch a {
	case ActionNoData:
		return "NO_DATA"
	case ActionFull:
		return "FULL"
	case ActionIncremental:
		return "INCREMENTAL"
	case ActionReinitialize:
		return "REINITIALIZE"
	case ActionInitialize:
		return "INITIALIZE"
	case ActionSkip:
		return "SKIP"
	case ActionError:
		return "ERROR"
	default:
		return fmt.Sprintf("ACTION(%d)", uint8(a))
	}
}

// RefreshRecord describes one refresh attempt; the scheduler, the
// adaptive refresh-mode chooser, the experiment harness and
// INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY consume these.
type RefreshRecord struct {
	// Seq numbers the record in the controller's recording order across
	// every DT; it keeps increasing past ring evictions and reopens.
	Seq      int64
	DataTS   time.Time
	Action   RefreshAction
	Inserted int
	Deleted  int
	// RowsAfter is the DT's row count after the refresh.
	RowsAfter int
	// SourceRowsScanned approximates the work done reading sources.
	SourceRowsScanned int64
	// ScanBytes estimates the bytes of source rows the refresh read
	// (executor scan-side accounting). In-memory only: checkpoints do
	// not persist it.
	ScanBytes int64
	// EffectiveMode is the refresh mode in force for this refresh (FULL
	// or INCREMENTAL) and ModeReason explains why it was chosen: the
	// declared mode, the static AUTO resolution, or the adaptive
	// chooser's per-refresh decision (§3.3.2).
	EffectiveMode sql.RefreshMode
	ModeReason    string
	// SourceRowsChanged counts source rows changed over the refresh
	// interval (the adaptive chooser's incremental-cost signal) and
	// FullScanEstimate the full-recompute cost estimate (base
	// cardinality plus result size). Both are zero for refreshes that
	// reached no mode decision (skips, initializations, bind errors).
	SourceRowsChanged int64
	FullScanEstimate  int64
	// TraceRoot is the refresh's trace-root span ID (0 when tracing is
	// disabled), joinable against INFORMATION_SCHEMA.TRACE_SPANS.
	TraceRoot int64
	// Exec places the refresh on the virtual timeline; nil until the
	// refresher's accounting pass or a manual refresh writes it (see
	// DynamicTable.Place), and for records from older checkpoints.
	Exec *Execution
	// Usage is the host resource cost the refresher metered around the
	// refresh, both attempts of a retried one included; nil for refreshes
	// outside a scheduler tick. In-memory only: checkpoints do not
	// persist it.
	Usage *obs.Usage
	Err   error
}

// Execution is where and when a refresh ran: its dependency wave and
// worker slot (-1 outside a scheduler tick) and the virtual instants its
// warehouse job started and ended.
type Execution struct {
	Wave, Worker int
	Start, End   time.Time
	// Job is the warehouse job that billed the refresh: the row the DT
	// contributes to WAREHOUSE_METERING_HISTORY. Nil when no warehouse
	// billed it (NO_DATA, a failed refresh, a missing warehouse). In
	// memory only: checkpoints do not persist it.
	Job *warehouse.Job
}

// Duration is the refresh's virtual execution time (End - Start).
func (x Execution) Duration() time.Duration { return x.End.Sub(x.Start) }

// RefreshCounts are a DT's monotonic refresh counters: unlike the
// bounded history ring they never evict, so the /metrics counters
// derived from them never decrease while the engine runs.
type RefreshCounts struct {
	// Attempts counts every recorded refresh, Errors the failed ones.
	Attempts, Errors int64
	// Seconds sums the placed refreshes' virtual execution time.
	Seconds float64
	// CPUSeconds and AllocBytes sum the metered refreshes' Usage.
	CPUSeconds float64
	AllocBytes int64
}

// DynamicTable is the engine-side state of one DT. The catalog stores it
// as an Entry payload. All mutating access goes through the Controller,
// which serializes refreshes per DT with the refresh lock (§5.3: "Each
// Dynamic Table is locked when a refresh operation begins").
type DynamicTable struct {
	Name string
	// EntryID is the catalog identity; set when the engine installs the
	// DT in the catalog.
	EntryID int64
	// Text is the defining query's SQL text. The controller binds it
	// once per catalog DDL sequence and keeps the plan until DDL or an
	// upstream's schema change may resolve it differently (§5.4).
	Text string
	// Lag is the TARGET_LAG setting.
	Lag sql.TargetLag
	// Warehouse names the virtual warehouse refreshes run in.
	Warehouse string
	// DeclaredMode is the user's REFRESH_MODE; EffectiveMode is the
	// resolved FULL or INCREMENTAL (§3.3.2).
	DeclaredMode  sql.RefreshMode
	EffectiveMode sql.RefreshMode
	// Storage holds the DT's materialized contents.
	Storage *storage.Table

	// planMu guards compiled, the bound defining query the controller
	// keeps between refreshes (Controller.compiled).
	planMu   sync.Mutex
	compiled *compiledPlan

	mu sync.Mutex
	// refreshing guards against concurrent refreshes of the same DT.
	refreshing bool

	state       State
	initialized bool
	errorCount  int
	frontier    Frontier
	// deps records the catalog generation of each dependency at the last
	// successful bind; a generation bump signals replacement → REINITIALIZE
	// (§5.4).
	deps map[int64]int64
	// schemaFingerprint detects output schema changes from upstream DDL.
	schemaFingerprint string

	// adaptiveMode is the adaptive chooser's sticky per-DT decision for
	// REFRESH_MODE=AUTO DTs (RefreshAuto = no decision yet, i.e. the
	// static resolution applies); adaptiveReason explains the last
	// decision. Both survive recovery via checkpoints and frontier WAL
	// records. chooser (set at controller registration) gates whether
	// the sticky decision is actually in force: while the chooser is
	// disabled, refreshes run the static resolution, so reporting must
	// fall back to it too.
	adaptiveMode   sql.RefreshMode
	adaptiveReason string
	chooser        *adaptive.Chooser
	// staticMode/staticReason cache the latest refresh-time *static*
	// re-resolution of AUTO (RefreshAuto = none): upstream DDL can
	// change a plan's incrementalizability after Build, and reporting
	// must agree with what refreshes actually run. Not persisted — it is
	// re-derived by the first refresh after recovery.
	staticMode   sql.RefreshMode
	staticReason string

	// accumulators holds the stored accumulators of the defining query's
	// invertible aggregates between refreshes, which the refresh lock
	// serializes. In memory only: neither the WAL nor a checkpoint
	// carries it, and a refresh after recovery seeds it again.
	accumulators ivm.AggStore

	// versionByDataTS maps a data timestamp (µs) to the storage version
	// sequence holding the corresponding contents, and commitByDataTS to
	// the commit timestamp — the mapping §5.3 describes for resolving
	// upstream DT versions by refresh timestamp.
	versionByDataTS map[int64]int64
	commitByDataTS  map[int64]hlc.Timestamp

	// history is a bounded ring of refresh records (capacity historyCap;
	// 0 = DefaultHistoryCapacity), and counts the totals of every record
	// it has taken. priorDataTS is the data timestamp the DT held before
	// its oldest retained record: the newest DataTS of the successful
	// records the ring evicted, or the source's data timestamp for a
	// clone; zero while the ring holds the DT's whole history.
	// priorBusyUntil is BusyUntil's value from before the oldest retained
	// record: the End of the newest evicted successful record a scheduler
	// tick placed. It keeps a busy window that outlasts the ring's last
	// fire instants; checkpoints do not persist it.
	history        ring.Ring[RefreshRecord]
	historyCap     int
	counts         RefreshCounts
	priorDataTS    time.Time
	priorBusyUntil time.Time
}

// ObjectKind implements catalog.Object.
func (dt *DynamicTable) ObjectKind() catalog.ObjectKind { return catalog.KindDynamicTable }

// State returns the lifecycle state.
func (dt *DynamicTable) State() State {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.state
}

// Initialized reports whether the DT has been initialized; querying an
// uninitialized DT is an error (§3.1).
func (dt *DynamicTable) Initialized() bool {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.initialized
}

// Suspend pauses refreshes.
func (dt *DynamicTable) Suspend() {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.state = StateSuspended
}

// Resume reactivates the DT and clears the error counter; after the root
// cause is addressed the DT resumes from where it left off (§3.3.3).
func (dt *DynamicTable) Resume() {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.state = StateActive
	dt.errorCount = 0
}

// ErrorCount returns the consecutive-failure counter.
func (dt *DynamicTable) ErrorCount() int {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.errorCount
}

// Frontier returns a copy of the current frontier.
func (dt *DynamicTable) Frontier() Frontier {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.frontier.Clone()
}

// DataTimestamp returns the DT's data timestamp (§3.1.1).
func (dt *DynamicTable) DataTimestamp() time.Time {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.frontier.DataTS
}

// CurrentLag returns now minus the data timestamp (§3.2).
func (dt *DynamicTable) CurrentLag(now time.Time) time.Duration {
	return now.Sub(dt.DataTimestamp())
}

// ModeDecision returns the DT's current effective refresh mode and the
// reason it is in force: the adaptive chooser's last decision when one
// exists, otherwise the declared mode or the static AUTO resolution.
func (dt *DynamicTable) ModeDecision() (sql.RefreshMode, string) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.modeDecisionLocked()
}

func (dt *DynamicTable) modeDecisionLocked() (sql.RefreshMode, string) {
	// Precedence: a declared pin always wins; then the sticky adaptive
	// decision — but only while the chooser is enabled (a disabled
	// chooser means refreshes run the static resolution, and reporting
	// must agree with what actually runs; the decision itself is kept so
	// re-enabling resumes from it); then the latest refresh-time static
	// re-resolution; finally the build-time resolution.
	if dt.DeclaredMode != sql.RefreshAuto {
		return StaticResolution(dt.DeclaredMode, dt.EffectiveMode)
	}
	chooserOn := dt.chooser == nil || dt.chooser.Enabled()
	if dt.adaptiveMode != sql.RefreshAuto && chooserOn {
		return dt.adaptiveMode, dt.adaptiveReason
	}
	if dt.staticMode != sql.RefreshAuto {
		return dt.staticMode, dt.staticReason
	}
	return StaticResolution(sql.RefreshAuto, dt.EffectiveMode)
}

// StaticResolution is the single source of truth mapping a declared
// refresh mode (and, for AUTO, the static resolution) to the effective
// mode and its reason string. Refresh execution (Controller.chooseMode)
// and reporting (ModeDecision, EXPLAIN, INFORMATION_SCHEMA) both
// resolve through it, so the two surfaces cannot drift.
func StaticResolution(declared, autoResolved sql.RefreshMode) (sql.RefreshMode, string) {
	switch declared {
	case sql.RefreshFull:
		return sql.RefreshFull, "declared FULL"
	case sql.RefreshIncremental:
		return sql.RefreshIncremental, "declared INCREMENTAL"
	}
	if autoResolved == sql.RefreshIncremental {
		return sql.RefreshIncremental, "AUTO: defining query is incrementalizable"
	}
	return sql.RefreshFull, "AUTO: defining query is not incrementalizable"
}

// CurrentMode returns the effective refresh mode currently in force
// (ModeDecision without the reason).
func (dt *DynamicTable) CurrentMode() sql.RefreshMode {
	mode, _ := dt.ModeDecision()
	return mode
}

// maxObservationScan bounds how many history records one adaptive
// decision may inspect: a raised HISTORY_CAPACITY (100k+) must not turn
// the refresh-time decision into an O(capacity) walk under dt.mu. At
// the default capacity (1024) the bound never binds.
const maxObservationScan = 4096

// recentObservations extracts the adaptive chooser's cost signals from
// the refresh-history ring, oldest first. Records that reached no mode
// decision (skips, initializations, errors before version resolution)
// carry no estimate and are excluded; executed incremental refreshes
// also carry their measured work so the chooser can calibrate its
// amplification factor. The ring is walked newest-first and the walk
// stops as soon as `window` observations and `ampMemory` incremental
// observations are collected — the chooser consumes no more — so the
// per-refresh cost is O(window + ampMemory) in the common case. When
// incremental measurements are sparse (long FULL periods, NO_DATA
// stretches), the walk continues but never past maxObservationScan
// records; beyond that the chooser degrades gracefully to a smaller
// sample (and the default amplification).
func (dt *DynamicTable) recentObservations(window, ampMemory int) []adaptive.Observation {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	var rev []adaptive.Observation
	incN := 0
	start := dt.history.Len() - 1
	floor := 0
	if start+1 > maxObservationScan {
		floor = start + 1 - maxObservationScan
	}
	for i := start; i >= floor; i-- {
		r := dt.history.At(i)
		if r.FullScanEstimate <= 0 || r.Err != nil {
			continue
		}
		o := adaptive.Observation{
			ChangeRows: r.SourceRowsChanged,
			FullRows:   r.FullScanEstimate,
		}
		if r.Action == ActionIncremental {
			o.Incremental = true
			o.ActualWork = r.SourceRowsScanned + int64(r.Inserted+r.Deleted)
			incN++
		}
		rev = append(rev, o)
		if len(rev) >= window && incN >= ampMemory {
			break
		}
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// adaptivePrior maps the sticky adaptive decision into the chooser's
// mode space (ModeUnset when no decision has been made yet).
func (dt *DynamicTable) adaptivePrior() adaptive.Mode {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	switch dt.adaptiveMode {
	case sql.RefreshIncremental:
		return adaptive.ModeIncremental
	case sql.RefreshFull:
		return adaptive.ModeFull
	default:
		return adaptive.ModeUnset
	}
}

// setChooser records the controller's adaptive chooser for mode
// reporting; called by Controller.Adopt.
func (dt *DynamicTable) setChooser(c *adaptive.Chooser) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.chooser = c
}

// setAdaptiveDecision installs the chooser's per-refresh decision,
// superseding any cached static re-resolution.
func (dt *DynamicTable) setAdaptiveDecision(mode sql.RefreshMode, reason string) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.adaptiveMode = mode
	dt.adaptiveReason = reason
	dt.staticMode, dt.staticReason = sql.RefreshAuto, ""
}

// setStaticResolution caches a refresh-time static resolution of AUTO
// (non-incrementalizable plan, or chooser disabled), so reporting
// tracks what the refresh actually ran even after upstream DDL changed
// the plan's incrementalizability.
func (dt *DynamicTable) setStaticResolution(mode sql.RefreshMode, reason string) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.staticMode = mode
	dt.staticReason = reason
}

// ClearAdaptiveDecision drops the sticky adaptive decision and any
// cached static re-resolution, returning the DT to its declared/static
// mode resolution (used when a DT's declared mode is re-pinned via
// ALTER ... SET REFRESH_MODE).
func (dt *DynamicTable) ClearAdaptiveDecision() {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.adaptiveMode = sql.RefreshAuto
	dt.adaptiveReason = ""
	dt.staticMode, dt.staticReason = sql.RefreshAuto, ""
}

// VersionAtDataTS resolves the storage version holding the contents for
// an exact data timestamp. The refresh of a downstream DT fails when the
// exact version is missing — the first §6.1 production validation.
func (dt *DynamicTable) VersionAtDataTS(ts time.Time) (int64, bool) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	seq, ok := dt.versionByDataTS[ts.UnixMicro()]
	return seq, ok
}

// History returns a copy of the retained refresh records, oldest first.
// The ring keeps at most HistoryCapacity records.
func (dt *DynamicTable) History() []RefreshRecord {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.history.Snapshot()
}

// HistoryLen returns how many refresh records the ring retains, without
// copying them.
func (dt *DynamicTable) HistoryLen() int {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.history.Len()
}

// Counts returns the DT's monotonic refresh counters.
func (dt *DynamicTable) Counts() RefreshCounts {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.counts
}

// Place writes a refresh's execution, and the resource use metered
// around it (nil when unmetered), onto the newest record at its data
// timestamp and adds both to the counters. The controller records a
// refresh from inside it; wave placement and virtual timing are known
// only after the refresher's accounting pass (or a manual refresh's
// warehouse job), which places it here, once. A refresh that left no
// record (a suspended DT) places nothing.
func (dt *DynamicTable) Place(dataTS time.Time, x Execution, u *obs.Usage) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	for i := dt.history.Len() - 1; i >= 0; i-- {
		if r := dt.history.At(i); r.DataTS.Equal(dataTS) {
			r.Exec, r.Usage = &x, u
			dt.counts.Seconds += x.Duration().Seconds()
			if u != nil {
				dt.counts.CPUSeconds += u.CPU.Seconds()
				dt.counts.AllocBytes += u.AllocBytes
			}
			return
		}
	}
}

// LagSeries derives the DT's lag sawtooth (Figure 4) from its history
// ring, oldest first: one sample per successful refresh a scheduler tick
// placed (Exec.Wave >= 0), at the refresh's virtual end. The trough is
// the lag just after the commit, End - DataTS; the peak the lag just
// before it, End - base, where base is the DT's data timestamp before
// the refresh: the latest DataTS of the earlier successful records,
// manual and repair refreshes included, or, before the oldest retained
// one, the data timestamp the DT held then (a clone's source, evicted
// records); the refresh's own DataTS when there is none.
func (dt *DynamicTable) LagSeries() []obs.LagSample {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	var out []obs.LagSample
	base := dt.priorDataTS
	for i := 0; i < dt.history.Len(); i++ {
		r := dt.history.At(i)
		if !r.succeeded() {
			continue
		}
		prev := base
		if prev.IsZero() {
			prev = r.DataTS
		}
		if r.DataTS.After(base) {
			base = r.DataTS
		}
		if x := r.Exec; r.placedByTick() {
			out = append(out, obs.LagSample{
				DTName: dt.Name,
				At:     x.End,
				DataTS: r.DataTS,
				Peak:   x.End.Sub(prev),
				Trough: x.End.Sub(r.DataTS),
			})
		}
	}
	return out
}

// BusyUntil returns when the DT's last scheduled refresh ends: the End
// of the newest successful record a scheduler tick placed (the newest
// LagSeries sample), including one the ring has evicted, or the zero
// time when there is none. The scheduler skips a fire instant before it
// (§3.3.3).
func (dt *DynamicTable) BusyUntil() time.Time {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	for i := dt.history.Len() - 1; i >= 0; i-- {
		if r := dt.history.At(i); r.succeeded() && r.placedByTick() {
			return r.Exec.End
		}
	}
	return dt.priorBusyUntil
}

// HistoryCapacity returns the history ring's bound.
func (dt *DynamicTable) HistoryCapacity() int {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.historyCapLocked()
}

func (dt *DynamicTable) historyCapLocked() int {
	if dt.historyCap > 0 {
		return dt.historyCap
	}
	return DefaultHistoryCapacity
}

// SetHistoryCapacity rebounds the history ring, evicting the oldest
// records that no longer fit. n <= 0 restores DefaultHistoryCapacity.
func (dt *DynamicTable) SetHistoryCapacity(n int) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if n <= 0 {
		n = DefaultHistoryCapacity
	}
	dt.historyCap = n
	dt.resizeHistoryLocked()
}

// succeeded reports whether the refresh moved the DT's data timestamp
// (it neither failed nor was skipped).
func (r *RefreshRecord) succeeded() bool { return r.Err == nil && r.Action != ActionSkip }

// placedByTick reports whether a scheduler tick placed the refresh
// (Exec.Wave >= 0): manual refreshes place at wave -1, and exact-period
// repair refreshes are never placed.
func (r *RefreshRecord) placedByTick() bool { return r.Exec != nil && r.Exec.Wave >= 0 }

// evictLocked notes that r leaves the ring: a successful record's data
// timestamp becomes the one before the oldest retained record, and its
// End, if a scheduler tick placed it, the busy window before it. Callers
// hold dt.mu.
func (dt *DynamicTable) evictLocked(r *RefreshRecord) {
	if !r.succeeded() {
		return
	}
	if r.DataTS.After(dt.priorDataTS) {
		dt.priorDataTS = r.DataTS
	}
	if r.placedByTick() {
		dt.priorBusyUntil = r.Exec.End
	}
}

// resizeHistoryLocked rebounds the ring to the configured capacity,
// evicting the oldest records that no longer fit; callers hold dt.mu.
func (dt *DynamicTable) resizeHistoryLocked() {
	n := dt.historyCapLocked()
	for i := 0; i < dt.history.Len()-n; i++ {
		dt.evictLocked(dt.history.At(i))
	}
	dt.history.Resize(n)
}

// pushLocked appends r to the ring, noting the record a full ring
// evicts; callers hold dt.mu.
func (dt *DynamicTable) pushLocked(r RefreshRecord) {
	if dt.history.Len() == dt.history.Cap() {
		dt.evictLocked(dt.history.At(0))
	}
	dt.history.Push(r)
}

// installHistoryLocked replaces the ring's contents, keeping the newest
// records within capacity; callers hold dt.mu.
func (dt *DynamicTable) installHistoryLocked(recs []RefreshRecord) {
	dt.history = ring.Ring[RefreshRecord]{}
	dt.history.Resize(dt.historyCapLocked())
	for _, r := range recs {
		dt.pushLocked(r)
	}
}

// LastRecord returns the most recent refresh record.
func (dt *DynamicTable) LastRecord() (RefreshRecord, bool) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if dt.history.Len() == 0 {
		return RefreshRecord{}, false
	}
	return *dt.history.At(dt.history.Len() - 1), true
}

// CloneAt returns a zero-copy clone of the DT (§3.4): the storage version
// chain is shared up to the clone point, and the frontier and
// data-timestamp mappings are copied so the clone avoids reinitialization.
// The clone starts with an empty history whose prior data timestamp is
// the frontier's, so its first lag sample peaks from there. The clone is
// unregistered and unnamed; the engine assigns both.
func (dt *DynamicTable) CloneAt(at hlc.Timestamp) (*DynamicTable, error) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	st, err := dt.Storage.Clone(at)
	if err != nil {
		return nil, err
	}
	clone := &DynamicTable{
		Name:              dt.Name,
		Text:              dt.Text,
		Lag:               dt.Lag,
		Warehouse:         dt.Warehouse,
		DeclaredMode:      dt.DeclaredMode,
		EffectiveMode:     dt.EffectiveMode,
		Storage:           st,
		state:             dt.state,
		initialized:       dt.initialized,
		frontier:          dt.frontier.Clone(),
		deps:              make(map[int64]int64, len(dt.deps)),
		versionByDataTS:   make(map[int64]int64, len(dt.versionByDataTS)),
		commitByDataTS:    make(map[int64]hlc.Timestamp, len(dt.commitByDataTS)),
		schemaFingerprint: dt.schemaFingerprint,
		historyCap:        dt.historyCap,
		priorDataTS:       dt.frontier.DataTS,
		adaptiveMode:      dt.adaptiveMode,
		adaptiveReason:    dt.adaptiveReason,
		chooser:           dt.chooser,
	}
	for k, v := range dt.deps {
		clone.deps[k] = v
	}
	maxSeq := int64(st.VersionCount())
	for k, v := range dt.versionByDataTS {
		if v <= maxSeq {
			clone.versionByDataTS[k] = v
		}
	}
	for k, v := range dt.commitByDataTS {
		clone.commitByDataTS[k] = v
	}
	return clone, nil
}

// ---------------------------------------------------------------------------
// checkpoint export / recovery restore
// ---------------------------------------------------------------------------

// NewDynamicTable constructs a DT from its definition: the defining SQL,
// the resolved modes and the storage table holding its contents. CREATE,
// WAL replay and checkpoint restore all build DTs here, from the same
// record fields. No binding happens — recovery must not depend on catalog
// population order. Refresh-continuity state (frontier, mappings,
// history) starts empty; recovery installs it via RestoreState or
// ApplyFrontierUpdate.
func NewDynamicTable(name, text string, lag sql.TargetLag, wh string,
	declared, effective sql.RefreshMode, st *storage.Table) *DynamicTable {
	return &DynamicTable{
		Name:            name,
		Text:            text,
		Lag:             lag,
		Warehouse:       wh,
		DeclaredMode:    declared,
		EffectiveMode:   effective,
		Storage:         st,
		versionByDataTS: make(map[int64]int64),
		commitByDataTS:  make(map[int64]hlc.Timestamp),
	}
}

// DTCheckpoint is the serializable refresh-continuity state of a DT.
type DTCheckpoint struct {
	Suspended         bool
	Initialized       bool
	ErrorCount        int
	Frontier          Frontier
	Deps              map[int64]int64
	SchemaFingerprint string
	VersionByDataTS   map[int64]int64
	CommitByDataTS    map[int64]hlc.Timestamp
	History           []RefreshRecord
	// PriorDataTS is the data timestamp before the oldest History record
	// (zero when History is the DT's whole history).
	PriorDataTS time.Time
	// AdaptiveMode and AdaptiveReason checkpoint the adaptive chooser's
	// sticky decision so a recovered engine resumes in the same
	// effective mode (RefreshAuto = no decision).
	AdaptiveMode   sql.RefreshMode
	AdaptiveReason string
}

// Checkpoint exports the DT's refresh-continuity state.
func (dt *DynamicTable) Checkpoint() DTCheckpoint {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	cp := DTCheckpoint{
		Suspended:         dt.state == StateSuspended,
		Initialized:       dt.initialized,
		ErrorCount:        dt.errorCount,
		Frontier:          dt.frontier.Clone(),
		Deps:              cloneDeps(dt.deps),
		SchemaFingerprint: dt.schemaFingerprint,
		VersionByDataTS:   make(map[int64]int64, len(dt.versionByDataTS)),
		CommitByDataTS:    make(map[int64]hlc.Timestamp, len(dt.commitByDataTS)),
		History:           dt.history.Snapshot(),
		PriorDataTS:       dt.priorDataTS,
		AdaptiveMode:      dt.adaptiveMode,
		AdaptiveReason:    dt.adaptiveReason,
	}
	for k, v := range dt.versionByDataTS {
		cp.VersionByDataTS[k] = v
	}
	for k, v := range dt.commitByDataTS {
		cp.CommitByDataTS[k] = v
	}
	return cp
}

// RestoreState installs checkpointed refresh-continuity state.
func (dt *DynamicTable) RestoreState(cp DTCheckpoint) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.state = StateActive
	if cp.Suspended {
		dt.state = StateSuspended
	}
	dt.initialized = cp.Initialized
	dt.errorCount = cp.ErrorCount
	dt.frontier = cp.Frontier.Clone()
	dt.deps = cloneDeps(cp.Deps)
	dt.schemaFingerprint = cp.SchemaFingerprint
	dt.versionByDataTS = make(map[int64]int64, len(cp.VersionByDataTS))
	for k, v := range cp.VersionByDataTS {
		dt.versionByDataTS[k] = v
	}
	dt.commitByDataTS = make(map[int64]hlc.Timestamp, len(cp.CommitByDataTS))
	for k, v := range cp.CommitByDataTS {
		dt.commitByDataTS[k] = v
	}
	dt.adaptiveMode = cp.AdaptiveMode
	dt.adaptiveReason = cp.AdaptiveReason
	dt.priorDataTS = cp.PriorDataTS
	dt.installHistoryLocked(cp.History)
}

// ApplyFrontierUpdate replays one WAL frontier record: the same state
// transition advanceFrontier performed on the live engine, minus the
// storage commit (replayed separately as a commit record).
func (dt *DynamicTable) ApplyFrontierUpdate(u FrontierUpdate) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.frontier = Frontier{DataTS: u.DataTS, Versions: u.Versions.Clone()}
	dt.deps = cloneDeps(u.Deps)
	dt.schemaFingerprint = u.SchemaFingerprint
	dt.versionByDataTS[u.DataTS.UnixMicro()] = u.VersionSeq
	if !u.Commit.IsZero() {
		dt.commitByDataTS[u.DataTS.UnixMicro()] = u.Commit
	}
	if u.Initialized {
		dt.initialized = true
	}
	if u.AdaptiveValid {
		// The record carries the full adaptive state: RefreshAuto means
		// the decision was cleared (evolved plan), and replay must clear
		// too so recovery matches the pre-crash live engine.
		dt.adaptiveMode = u.AdaptiveMode
		dt.adaptiveReason = u.AdaptiveReason
	} else if u.AdaptiveMode != sql.RefreshAuto {
		// Legacy records only carry a decision when one was in force.
		dt.adaptiveMode = u.AdaptiveMode
		dt.adaptiveReason = u.AdaptiveReason
	}
	dt.errorCount = 0
}

// record appends a refresh record to the bounded ring and counts it
// (callers hold no locks).
func (dt *DynamicTable) record(r RefreshRecord) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	// Resizing is a no-op while the configured capacity is unchanged.
	dt.resizeHistoryLocked()
	dt.pushLocked(r)
	dt.counts.Attempts++
	if r.Err != nil {
		dt.counts.Errors++
	}
}

// numberHistory gives each retained record without a sequence number
// (one restored from an older checkpoint) the next number from next, and
// returns the highest number the ring holds.
func (dt *DynamicTable) numberHistory(next func() int64) int64 {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	var top int64
	for i := 0; i < dt.history.Len(); i++ {
		r := dt.history.At(i)
		if r.Seq == 0 {
			r.Seq = next()
		}
		top = max(top, r.Seq)
	}
	return top
}

// tryBeginRefresh acquires the per-DT refresh lock without blocking; a
// false return means a refresh is already running and the caller should
// skip (§3.3.3: no concurrent refreshes of the same DT).
func (dt *DynamicTable) tryBeginRefresh() bool {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if dt.refreshing {
		return false
	}
	dt.refreshing = true
	return true
}

func (dt *DynamicTable) endRefresh() {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.refreshing = false
}
