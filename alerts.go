package dyntables

// SQL-programmable alerts: the engine side of the watchdog subsystem.
// CREATE ALERT declares a condition (any SELECT — typically over the
// INFORMATION_SCHEMA observability surface) plus an action; the watchdog
// evaluates due alerts at the end of every scheduler pass, on the virtual
// clock, so simulations stay deterministic and dtserve's wall-clock
// ticker drives production alerting for free. internal/alert holds the
// pure state machine (hysteresis, suppression); this file owns the
// registry, the DDL surface, evaluation and actions, and the WAL hooks.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dyntables/internal/alert"
	"dyntables/internal/obs"
	"dyntables/internal/persist"
	"dyntables/internal/sql"
	"dyntables/internal/trace"
)

// DefaultAlertSuppression is the per-alert minimum gap between fired
// actions: a condition that resolves and re-trips inside the window
// transitions state but fires nothing, so a flapping condition cannot
// storm the action channel.
const DefaultAlertSuppression = 5 * time.Minute

// alertDetailRows bounds how many condition rows are sampled into the
// firing detail (and the webhook payload).
const alertDetailRows = 5

// alertEntry is one registered alert: the immutable definition plus the
// mutable evaluation state, guarded by Engine.alertMu.
type alertEntry struct {
	def       alert.Definition
	state     alert.State
	suspended bool
	// nextDue is the virtual instant of the next evaluation; zero means
	// due immediately.
	nextDue time.Time
}

// SetWebhookPoster overrides the webhook transport for every alert on
// this engine: post receives the URL and the encoded JSON payload and
// returns the HTTP status code. Tests install a hook here to capture
// firings without a network listener; nil restores real HTTP.
func (e *Engine) SetWebhookPoster(post func(url string, body []byte) (int, error)) {
	e.alertMu.Lock()
	defer e.alertMu.Unlock()
	e.alertNotifier.Post = post
}

// alertConfig derives the state-machine tuning for one alert.
func alertConfig(def alert.Definition) alert.Config {
	return alert.Config{Suppression: DefaultAlertSuppression}
}

// ---------------------------------------------------------------------------
// DDL surface
// ---------------------------------------------------------------------------

func (x *executor) execCreateAlert(stmt *sql.CreateAlertStmt) (*Result, error) {
	if err := x.e.execDDL(&persist.Record{Kind: persist.KindCreateAlert, CreateAlert: &persist.CreateAlertRecord{
		Name:           stmt.Name,
		Owner:          x.s.Role(),
		OrReplace:      stmt.OrReplace,
		ScheduleMicros: int64(stmt.Schedule / time.Microsecond),
		ConditionText:  stmt.ConditionText,
		ActionKind:     stmt.ActionKind,
		ActionURL:      stmt.ActionURL,
		ActionSQL:      stmt.ActionSQL,
	}}); err != nil {
		return nil, err
	}
	return &Result{Kind: "CREATE ALERT", Message: fmt.Sprintf("alert %s created", stmt.Name)}, nil
}

func (x *executor) execDropAlert(stmt *sql.DropStmt) (*Result, error) {
	if err := x.e.execDDL(&persist.Record{Kind: persist.KindDropAlert,
		DropAlert: &persist.DropAlertRecord{Name: stmt.Name}}); err != nil {
		return nil, err
	}
	return &Result{Kind: "DROP", Message: fmt.Sprintf("ALERT %s dropped", stmt.Name)}, nil
}

func (x *executor) execAlterAlert(stmt *sql.AlterStmt) (*Result, error) {
	if stmt.Action != "SUSPEND" && stmt.Action != "RESUME" {
		return nil, fmt.Errorf("dyntables: ALTER ALERT supports only SUSPEND and RESUME")
	}
	if err := x.e.execDDL(&persist.Record{Kind: persist.KindAlterAlert,
		AlterAlert: &persist.AlterAlertRecord{Name: stmt.Name, Action: stmt.Action}}); err != nil {
		return nil, err
	}
	return &Result{Kind: "ALTER", Message: stmt.Action}, nil
}

// ---------------------------------------------------------------------------
// evaluation
// ---------------------------------------------------------------------------

// dueAlert is a snapshot of one alert taken under alertMu, evaluated
// without the lock (condition queries take statement read locks of
// their own).
type dueAlert struct {
	def   alert.Definition
	state alert.State
}

// evaluateAlerts runs the watchdog over every due, unsuspended alert.
// Called at the end of RunScheduler after the tick lock is released.
func (e *Engine) evaluateAlerts() {
	if e.closed.Load() {
		return
	}
	now := e.clk.Now()
	e.alertMu.Lock()
	due := make([]dueAlert, 0, len(e.alerts))
	for _, entry := range e.alerts {
		if entry.suspended || now.Before(entry.nextDue) {
			continue
		}
		entry.nextDue = now.Add(entry.def.Schedule)
		if entry.def.Schedule <= 0 {
			// Schedule 0: due again on the very next pass.
			entry.nextDue = time.Time{}
		}
		due = append(due, dueAlert{def: entry.def, state: entry.state})
	}
	e.alertMu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].def.Name < due[j].def.Name })
	for _, d := range due {
		e.evaluateAlert(d, now)
	}
}

// evaluateAlert evaluates one alert: it runs the condition SELECT
// through a session under the owner's role, steps the state machine,
// runs the action on a fresh firing, records the evaluation in the obs
// ring, and WAL-logs the state so recovery resumes without re-firing.
func (e *Engine) evaluateAlert(d dueAlert, now time.Time) {
	started := time.Now()
	root := e.trc.StartRoot("alert.evaluate", trace.A("alert", d.def.Name))
	ev := obs.AlertEvent{
		Alert:  d.def.Name,
		At:     now,
		Action: d.def.ActionText(),
		RootID: root.RootID(),
	}

	s := e.NewSession()
	defer s.Close()
	s.SetRole(d.def.Owner)

	condTrue, detail, err := e.evalAlertCondition(s, d.def, root)
	if err != nil {
		ev.Error = err.Error()
	}
	next, fired := alert.Step(d.state, condTrue, now, alertConfig(d.def))
	ev.Result = condTrue
	ev.Status = string(next.Status)
	ev.Fired = fired
	ev.Detail = strings.Join(detail, "; ")

	if fired {
		if actErr := e.runAlertAction(s, d.def, now, detail, root); actErr != nil {
			ev.ActionErr = actErr.Error()
		}
	}

	// Install the new state unless the alert was dropped or replaced
	// while evaluating.
	e.alertMu.Lock()
	entry, ok := e.alerts[d.def.Name]
	if ok && entry.def == d.def {
		entry.state = next
	} else {
		ok = false
	}
	var nextDue time.Time
	if ok {
		nextDue = entry.nextDue
	}
	e.alertMu.Unlock()
	if ok && (fired || next.Status != d.state.Status) {
		e.logAlertState(d.def.Name, next, nextDue)
	}

	ev.Duration = time.Since(started)
	e.trc.FinishRoot(root)
	e.rec.RecordAlert(ev)
}

// evalAlertCondition runs the condition SELECT and reports whether it
// returned rows (the EXISTS semantics), plus a bounded sample of the
// rows rendered as strings.
func (e *Engine) evalAlertCondition(s *Session, def alert.Definition, root *trace.Span) (bool, []string, error) {
	sp := root.Child("alert.condition")
	defer sp.End()
	res, err := s.Query(def.ConditionText)
	if err != nil {
		return false, nil, err
	}
	var detail []string
	for i, row := range res.Rows {
		if i >= alertDetailRows {
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		detail = append(detail, strings.Join(parts, ", "))
	}
	return len(res.Rows) > 0, detail, nil
}

// runAlertAction executes the alert's declared action on a firing.
func (e *Engine) runAlertAction(s *Session, def alert.Definition, now time.Time, detail []string, root *trace.Span) error {
	sp := root.Child("alert.action", trace.A("action", string(def.Action)))
	defer sp.End()
	switch def.Action {
	case alert.ActionWebhook:
		e.alertMu.Lock()
		n := *e.alertNotifier
		e.alertMu.Unlock()
		return n.Send(def.WebhookURL, alert.Payload{
			Alert:   def.Name,
			FiredAt: now,
			Status:  string(alert.Firing),
			Rows:    detail,
		})
	case alert.ActionSQL:
		_, err := s.Exec(def.ActionSQL)
		return err
	default:
		return nil
	}
}

// ---------------------------------------------------------------------------
// surfacing: SHOW ALERTS + INFORMATION_SCHEMA
// ---------------------------------------------------------------------------

// alertEntries snapshots the registry for INFORMATION_SCHEMA.ALERTS
// (and SHOW ALERTS), sorted by name. An alert never evaluated shows as
// OK.
func (e *Engine) alertEntries() []alertEntry {
	e.alertMu.Lock()
	entries := make([]alertEntry, 0, len(e.alerts))
	for _, entry := range e.alerts {
		snap := *entry
		if snap.state.Status == "" {
			snap.state.Status = alert.OK
		}
		entries = append(entries, snap)
	}
	e.alertMu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].def.Name < entries[j].def.Name })
	return entries
}

// ---------------------------------------------------------------------------
// durability bridge
// ---------------------------------------------------------------------------

// alertSnapshots serializes the registry for checkpointing, sorted by
// name for deterministic snapshots.
func (e *Engine) alertSnapshots() []alertSnap {
	e.alertMu.Lock()
	defer e.alertMu.Unlock()
	out := make([]alertSnap, 0, len(e.alerts))
	for _, entry := range e.alerts {
		out = append(out, alertSnap{
			def:       entry.def,
			state:     entry.state,
			suspended: entry.suspended,
			nextDue:   entry.nextDue,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].def.Name < out[j].def.Name })
	return out
}

// alertSnap is the engine-side serialized form of one alert, handed to
// the durability layer.
type alertSnap struct {
	def       alert.Definition
	state     alert.State
	suspended bool
	nextDue   time.Time
}

// installAlert registers an alert during checkpoint restore, overwriting
// any previous registration of the same name.
func (e *Engine) installAlert(s alertSnap) {
	e.alertMu.Lock()
	defer e.alertMu.Unlock()
	e.alerts[s.def.Name] = &alertEntry{
		def:       s.def,
		state:     s.state,
		suspended: s.suspended,
		nextDue:   s.nextDue,
	}
}

// setAlertState applies a replayed evaluation-state transition.
func (e *Engine) setAlertState(name string, st alert.State, nextDue time.Time) {
	e.alertMu.Lock()
	defer e.alertMu.Unlock()
	if entry, ok := e.alerts[name]; ok {
		entry.state = st
		entry.nextDue = nextDue
	}
}
