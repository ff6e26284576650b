// Package warehouse simulates Snowflake virtual warehouses (§3.3.1): named
// compute clusters that execute refresh jobs serially, bill per second
// while active, auto-suspend after idling, and auto-resume when work
// arrives. The simulation is driven by virtual time: submitting a job
// advances the warehouse's busy horizon and accrues billing, so schedulers
// and benches can measure cost and queueing without wall-clock time.
//
// A Warehouse is a catalog object (§3.4): the catalog is the only
// registry of warehouses, and the engine resolves a warehouse by name
// through its live catalog entry. DROP moves the warehouse, billing and
// all, to the catalog's graveyard; UNDROP brings it back; RENAME and SWAP
// change the entry's name, which the engine copies onto Name.
package warehouse

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dyntables/internal/catalog"
)

// Size is a warehouse size; each step doubles the node count (§3.3.1).
type Size int

// The warehouse sizes.
const (
	SizeXSmall Size = iota
	SizeSmall
	SizeMedium
	SizeLarge
	SizeXLarge
	Size2XLarge
	Size3XLarge
	Size4XLarge
)

// ParseSize parses a size name.
func ParseSize(s string) (Size, error) {
	switch strings.ToUpper(strings.ReplaceAll(s, "-", "")) {
	case "XSMALL", "XS":
		return SizeXSmall, nil
	case "SMALL", "S":
		return SizeSmall, nil
	case "MEDIUM", "M":
		return SizeMedium, nil
	case "LARGE", "L":
		return SizeLarge, nil
	case "XLARGE", "XL":
		return SizeXLarge, nil
	case "X2LARGE", "2XLARGE", "XXL":
		return Size2XLarge, nil
	case "X3LARGE", "3XLARGE":
		return Size3XLarge, nil
	case "X4LARGE", "4XLARGE":
		return Size4XLarge, nil
	default:
		return 0, fmt.Errorf("warehouse: unknown size %q", s)
	}
}

// String names the size.
func (s Size) String() string {
	names := []string{"XSMALL", "SMALL", "MEDIUM", "LARGE", "XLARGE", "2XLARGE", "3XLARGE", "4XLARGE"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("SIZE(%d)", int(s))
}

// Nodes returns the cluster's node count (doubles per size step).
func (s Size) Nodes() int { return 1 << uint(s) }

// CreditsPerHour returns the billing rate; like the node count it doubles
// per size step.
func (s Size) CreditsPerHour() float64 { return float64(s.Nodes()) }

// Credits bills d at the size's hourly rate, metered per second
// (§3.3.1: "granularity of seconds"): d rounds up to whole seconds.
func (s Size) Credits(d time.Duration) float64 {
	seconds := float64((d + time.Second - 1) / time.Second)
	return seconds / 3600 * s.CreditsPerHour()
}

// CostModel converts refresh work into execution time (§3.3.2: fixed plus
// variable costs, variable scaling linearly with changed data).
type CostModel struct {
	// Fixed is the per-refresh overhead (compile, commit, queueing).
	Fixed time.Duration
	// PerRow is the single-node time per source row processed.
	PerRow time.Duration
}

// DefaultCostModel matches the scale used by the experiments: a couple of
// seconds of fixed overhead plus a millisecond per row on one node.
var DefaultCostModel = CostModel{Fixed: 2 * time.Second, PerRow: time.Millisecond}

// Duration computes the job duration on a warehouse of the given size.
func (m CostModel) Duration(rows int64, size Size) time.Duration {
	variable := time.Duration(rows) * m.PerRow / time.Duration(size.Nodes())
	return m.Fixed + variable
}

// Job is one billed unit of submitted work.
type Job struct {
	// Warehouse names the warehouse that ran the job, and Size is its
	// size at submission.
	Warehouse string
	Size      Size
	// Submit is when the job became ready to run.
	Submit time.Time
	// Start is when the warehouse actually began it (after queueing).
	Start time.Time
	// End is when it finished.
	End time.Time
	// Rows is the work driver used for the duration.
	Rows int64
	// Credits is the job's own billed credits: its duration at the
	// size's hourly rate (Size.Credits).
	Credits float64
}

// Queued returns how long the job waited behind earlier jobs.
func (j Job) Queued() time.Duration { return j.Start.Sub(j.Submit) }

// Warehouse simulates one virtual warehouse. Name, Size and AutoSuspend
// change only under DDL, which no job submission runs beside.
type Warehouse struct {
	Name        string
	Size        Size
	AutoSuspend time.Duration // 0 = suspend immediately when idle

	mu sync.Mutex
	// busyUntil is the latest end among scheduled jobs (the aggregate busy
	// horizon across clusters).
	busyUntil time.Time
	// slotBusy tracks the busy horizon of each concurrency slot
	// (multi-cluster execution). Grown lazily by SubmitConcurrent; a
	// serial warehouse never allocates it and uses busyUntil alone.
	slotBusy []time.Time
	// everUsed marks whether any job ran.
	everUsed bool
	// billed accumulates active (billable) time.
	billed time.Duration
	// resumes counts suspend→resume transitions.
	resumes int
	// jobs counts submitted jobs; each job is returned to its submitter.
	jobs int
}

// New creates a warehouse.
func New(name string, size Size, autoSuspend time.Duration) *Warehouse {
	return &Warehouse{Name: name, Size: size, AutoSuspend: autoSuspend}
}

// ObjectKind implements catalog.Object.
func (w *Warehouse) ObjectKind() catalog.ObjectKind { return catalog.KindWarehouse }

// Submit schedules a job that becomes ready at `at` and processes `rows`
// rows under the cost model. Jobs run serially in submission order: the
// job starts at max(at, previous end). Billing accrues for run time plus
// any idle time shorter than the auto-suspend threshold; longer gaps
// suspend the warehouse (billing stops) and resume it when the job starts.
func (w *Warehouse) Submit(at time.Time, rows int64, m CostModel) Job {
	return w.SubmitConcurrent(at, rows, m, 1)
}

// SubmitConcurrent schedules a job like Submit, but allows up to `slots`
// jobs to overlap, modeling a multi-cluster warehouse that adds clusters
// to absorb concurrent refreshes (§3.3.1). The job takes the slot with
// the earliest busy horizon and starts at max(at, that horizon). Each
// overlapping job bills its full duration — every active cluster accrues
// credits — plus the usual idle-grace accounting against its slot.
// slots <= 1 is exactly Submit's serial behavior.
func (w *Warehouse) SubmitConcurrent(at time.Time, rows int64, m CostModel, slots int) Job {
	w.mu.Lock()
	defer w.mu.Unlock()
	if slots < 1 {
		slots = 1
	}
	for len(w.slotBusy) < slots {
		// New clusters come up idle behind the current horizon only on the
		// first growth; an existing serial warehouse folds its horizon into
		// slot 0 so serial submission is unchanged.
		if len(w.slotBusy) == 0 {
			w.slotBusy = append(w.slotBusy, w.busyUntil)
		} else {
			w.slotBusy = append(w.slotBusy, time.Time{})
		}
	}
	// Earliest-free slot; ties resolve to the lowest index so scheduling
	// is deterministic.
	slot := 0
	for i := 1; i < slots; i++ {
		if w.slotBusy[i].Before(w.slotBusy[slot]) {
			slot = i
		}
	}
	slotHorizon := w.slotBusy[slot]
	start := at
	if w.everUsed && slotHorizon.After(start) {
		start = slotHorizon
	}
	if !w.everUsed {
		w.resumes++
	} else {
		idle := start.Sub(slotHorizon)
		if idle > 0 && !slotHorizon.IsZero() {
			if idle >= w.AutoSuspend {
				// Suspended after the grace period; bill only the grace.
				w.billed += w.AutoSuspend
				w.resumes++
			} else {
				w.billed += idle
			}
		}
	}
	dur := m.Duration(rows, w.Size)
	end := start.Add(dur)
	w.billed += dur
	w.slotBusy[slot] = end
	if end.After(w.busyUntil) {
		w.busyUntil = end
	}
	w.everUsed = true
	w.jobs++
	return Job{Warehouse: w.Name, Size: w.Size, Submit: at, Start: start, End: end,
		Rows: rows, Credits: w.Size.Credits(dur)}
}

// State is the serializable billing-simulation state of a warehouse. The
// job count is not checkpointed; aggregate billing is.
type State struct {
	BusyUntil time.Time
	EverUsed  bool
	Billed    time.Duration
	Resumes   int
}

// State exports the billing state for checkpointing.
func (w *Warehouse) State() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return State{BusyUntil: w.busyUntil, EverUsed: w.everUsed, Billed: w.billed, Resumes: w.resumes}
}

// RestoreState reinstates checkpointed billing state during recovery.
// Per-slot horizons are not checkpointed; the aggregate busy horizon folds
// into the first slot on the next submission (conservative: recovered
// concurrent capacity frees up only after the pre-crash backlog drains).
func (w *Warehouse) RestoreState(st State) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.busyUntil = st.BusyUntil
	w.slotBusy = nil
	w.everUsed = st.EverUsed
	w.billed = st.Billed
	w.resumes = st.Resumes
}

// BusyUntil returns the end of the last scheduled job.
func (w *Warehouse) BusyUntil() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.busyUntil
}

// BilledTime returns the total active time accrued.
func (w *Warehouse) BilledTime() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.billed
}

// Credits converts the billed time to credits (Size.Credits).
func (w *Warehouse) Credits() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.Size.Credits(w.billed)
}

// Resumes counts how many times the warehouse resumed from suspension.
func (w *Warehouse) Resumes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.resumes
}

// JobCount returns how many jobs this process submitted to the warehouse.
func (w *Warehouse) JobCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs
}
