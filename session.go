package dyntables

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyntables/internal/exec"
	"dyntables/internal/obs"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/trace"
	"dyntables/internal/types"
)

// Session is a unit of interaction with an Engine: it carries the role
// used for privilege checks and provides statement execution with context
// cancellation and bind parameters. Sessions are cheap; create one per
// goroutine or per request. A single Session serializes its own role
// accesses but statements from different sessions run concurrently.
type Session struct {
	eng *Engine
	// id is the engine-unique session number reported in
	// INFORMATION_SCHEMA.QUERY_HISTORY.
	id int64

	mu   sync.RWMutex
	role string

	// stmts tracks prepared statements so Close can invalidate them.
	stmts  map[*Stmt]struct{}
	closed bool
}

// NewSession creates a session with the default ADMIN role.
func (e *Engine) NewSession() *Session {
	s := &Session{eng: e, id: e.sessSeq.Add(1), role: "ADMIN", stmts: make(map[*Stmt]struct{})}
	e.sessMu.Lock()
	if e.sessions != nil {
		e.sessions[s] = struct{}{}
	}
	e.sessMu.Unlock()
	return s
}

// Engine returns the session's engine.
func (s *Session) Engine() *Engine { return s.eng }

// ID returns the session's engine-unique number, matching the
// session_id column of INFORMATION_SCHEMA.QUERY_HISTORY.
func (s *Session) ID() int64 { return s.id }

// Close releases the session: every statement prepared on it is
// invalidated (its Exec/Query calls fail afterwards) and the session
// stops accepting statements. Close is idempotent. The engine's Close
// closes every live session the same way.
func (s *Session) Close() error {
	s.eng.sessMu.Lock()
	delete(s.eng.sessions, s)
	s.eng.sessMu.Unlock()
	s.invalidate()
	return nil
}

// invalidate marks the session and its prepared statements closed.
func (s *Session) invalidate() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	stmts := make([]*Stmt, 0, len(s.stmts))
	for st := range s.stmts {
		stmts = append(stmts, st)
	}
	s.stmts = make(map[*Stmt]struct{})
	s.mu.Unlock()
	for _, st := range stmts {
		st.markClosed()
	}
}

// checkOpen verifies both the session and its engine accept statements.
func (s *Session) checkOpen() error {
	if err := s.eng.checkOpen(); err != nil {
		return err
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return fmt.Errorf("dyntables: session is closed")
	}
	return nil
}

// SetRole switches the session role used for privilege checks.
func (s *Session) SetRole(role string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.role = role
}

// Role returns the session role.
func (s *Session) Role() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.role
}

// NamedArg binds a value to a `:name` placeholder; construct with Named.
type NamedArg struct {
	Name  string
	Value any
}

// Named returns a NamedArg for use as an ExecContext/QueryContext
// argument: Named("id", 7) binds the `:id` placeholder.
func Named(name string, value any) NamedArg {
	return NamedArg{Name: name, Value: value}
}

// ExecContext parses and executes one SQL statement with the given bind
// arguments. Positional `?` placeholders bind plain arguments in order;
// `:name` placeholders bind NamedArg values. The context cancels
// execution between rows.
func (s *Session) ExecContext(ctx context.Context, text string, args ...any) (*Result, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := rejectStoredPlaceholders(stmt); err != nil {
		return nil, err
	}
	positional, names := sql.CollectPlaceholders(stmt)
	params, err := bindArgs(positional, names, args)
	if err != nil {
		return nil, err
	}
	return s.execStatement(ctx, text, stmt, params)
}

// Exec is ExecContext with a background context.
func (s *Session) Exec(text string, args ...any) (*Result, error) {
	return s.ExecContext(context.Background(), text, args...)
}

// MustExec runs Exec and panics on error; intended for examples and tests.
func (s *Session) MustExec(text string, args ...any) *Result {
	res, err := s.Exec(text, args...)
	if err != nil {
		panic(fmt.Sprintf("dyntables: %v", err))
	}
	return res
}

// QueryContext executes a SELECT and returns a streaming Rows cursor. The
// plan is bound and its source versions pinned under the statement lock,
// then the lock is released: iterating the cursor never blocks DDL, and
// canceling ctx aborts the scan and releases the cursor.
func (s *Session) QueryContext(ctx context.Context, text string, args ...any) (*Rows, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("dyntables: Query requires a SELECT statement")
	}
	positional, names := sql.CollectPlaceholders(stmt)
	params, err := bindArgs(positional, names, args)
	if err != nil {
		return nil, err
	}
	return s.queryCursor(ctx, text, sel, params)
}

// queryCursor opens the streaming cursor shared by Session.QueryContext
// and Stmt.QueryContext: the plan binds and pins under the statement
// lock, then the cursor streams lock-free. The statement's QUERY_HISTORY
// event is recorded when the cursor is released (served rows and total
// wall time are only known then); a bind error records an ERROR event
// immediately.
func (s *Session) queryCursor(ctx context.Context, text string, sel *sql.SelectStmt, params *plan.Params) (*Rows, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	e := s.eng
	start := time.Now()
	root := e.trc.StartRoot("statement", trace.A("kind", "SELECT"))
	e.stmtMu.RLock()
	x := &executor{e: e, s: s, ctx: ctx, params: params}
	cur, err := x.selectCursor(sel)
	e.stmtMu.RUnlock()
	if err != nil {
		root.SetAttr("status", "ERROR")
		e.trc.FinishRoot(root)
		e.rec.RecordStatement(obs.StatementEvent{
			SessionID: s.id, Role: s.Role(), Text: strings.TrimSpace(text), Kind: "SELECT",
			Status: "ERROR", Start: start, Duration: time.Since(start),
			RootID: root.RootID(), Error: err.Error(),
		})
		return nil, err
	}
	cur.sess = s
	cur.text = strings.TrimSpace(text)
	cur.start = start
	cur.root = root
	return cur, nil
}

// Query executes a SELECT with a background context and materializes the
// full result.
func (s *Session) Query(text string, args ...any) (*Result, error) {
	res, err := s.ExecContext(context.Background(), text, args...)
	if err != nil {
		return nil, err
	}
	if res.Kind != "SELECT" {
		return nil, fmt.Errorf("dyntables: Query requires a SELECT, got %s", res.Kind)
	}
	return res, nil
}

// ExecScriptContext executes a semicolon-separated script, stopping at
// the first error or context cancellation. Scripts do not take bind
// arguments.
func (s *Session) ExecScriptContext(ctx context.Context, text string) ([]*Result, error) {
	stmts, err := sql.ParseScript(text)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for i, stmt := range stmts {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if err := rejectStoredPlaceholders(stmt); err != nil {
			return out, fmt.Errorf("statement %d: %w", i+1, err)
		}
		res, err := s.execStatement(ctx, text, stmt, nil)
		if err != nil {
			return out, fmt.Errorf("statement %d: %w", i+1, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// ExecScript is ExecScriptContext with a background context.
func (s *Session) ExecScript(text string) ([]*Result, error) {
	return s.ExecScriptContext(context.Background(), text)
}

// ManualRefreshContext refreshes a DT (and, as needed, its upstream DTs)
// at a data timestamp chosen after the command was issued (§3.1.2).
// Requires the OPERATE privilege.
func (s *Session) ManualRefreshContext(ctx context.Context, name string) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	e := s.eng
	e.stmtMu.RLock()
	err := e.checkOpen()
	if err == nil {
		x := &executor{e: e, s: s, ctx: ctx}
		err = x.manualRefresh(name)
	}
	e.stmtMu.RUnlock()
	e.afterWrite()
	return err
}

// ManualRefresh is ManualRefreshContext with a background context.
func (s *Session) ManualRefresh(name string) error {
	return s.ManualRefreshContext(context.Background(), name)
}

// Describe returns a DT's monitoring snapshot; requires the MONITOR
// privilege.
func (s *Session) Describe(name string) (*DynamicTableStatus, error) {
	e := s.eng
	e.stmtMu.RLock()
	defer e.stmtMu.RUnlock()
	x := &executor{e: e, s: s, ctx: context.Background()}
	return x.describe(name)
}

// execStatement routes one parsed statement through the engine's
// statement lock: DDL takes the exclusive lock, everything else runs as a
// parallel reader. Once the lock is released, a durable engine may fold
// the WAL into a checkpoint. Every statement publishes one QUERY_HISTORY
// event and one root trace; text carries the submitted SQL (bind-argument
// values are never recorded).
func (s *Session) execStatement(ctx context.Context, text string, stmt sql.Statement, params *plan.Params) (*Result, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	e := s.eng
	start := time.Now()
	root := e.trc.StartRoot("statement")
	if reqID := obs.RequestIDFrom(ctx); reqID != "" {
		root.SetAttr("request_id", reqID)
	}
	meter := obs.StartMeter()
	res, err := s.execStatementLocked(ctx, stmt, params)
	use := meter.Stop()
	ev := obs.StatementEvent{
		SessionID: s.id,
		Role:      s.Role(),
		Text:      strings.TrimSpace(text),
		Start:     start,
		Duration:  time.Since(start),
		RootID:    root.RootID(),
		Usage:     &use,
	}
	switch {
	case err == nil:
		ev.Status = "SUCCESS"
		ev.Kind = res.Kind
		if res.Kind == "SELECT" {
			ev.Rows = int64(len(res.Rows))
		} else {
			ev.Rows = int64(res.RowsAffected)
		}
		root.SetAttr("kind", res.Kind)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		ev.Status = "CANCELED"
		ev.Error = err.Error()
	default:
		ev.Status = "ERROR"
		ev.Error = err.Error()
	}
	root.SetAttr("status", ev.Status)
	root.SetAttr("cpu", use.CPU.String())
	e.trc.FinishRoot(root)
	e.rec.RecordStatement(ev)
	e.afterWrite()
	return res, err
}

func (s *Session) execStatementLocked(ctx context.Context, stmt sql.Statement, params *plan.Params) (*Result, error) {
	e := s.eng
	if isDDL(stmt) {
		e.stmtMu.Lock()
		defer e.stmtMu.Unlock()
	} else {
		e.stmtMu.RLock()
		defer e.stmtMu.RUnlock()
	}
	// Re-check under the lock: a concurrent Close drains in-flight
	// statements via the exclusive lock, so anything passing here commits
	// before the final checkpoint, and anything after it fails cleanly
	// instead of writing to a closed WAL.
	if err := e.checkOpen(); err != nil {
		return nil, err
	}
	x := &executor{e: e, s: s, ctx: ctx, params: params}
	return x.execStmt(stmt)
}

// isDDL reports whether the statement changes the catalog and must
// exclude concurrent readers. SHOW and EXPLAIN only read engine
// metadata, so they run as parallel readers like queries.
func isDDL(stmt sql.Statement) bool {
	switch s := stmt.(type) {
	case *sql.SelectStmt, *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt,
		*sql.ShowStmt, *sql.ExplainStmt:
		return false
	case *sql.AlterStmt:
		// ALTER DYNAMIC TABLE … REFRESH is a manual refresh: it runs beside
		// other statements, as Session.ManualRefresh and scheduler waves do.
		return s.Action != "REFRESH"
	default:
		return true
	}
}

// rejectStoredPlaceholders refuses placeholders in defining queries that
// are stored and re-executed later (views, dynamic tables): there is no
// session to supply values at refresh time.
func rejectStoredPlaceholders(stmt sql.Statement) error {
	switch stmt.(type) {
	case *sql.CreateViewStmt, *sql.CreateDynamicTableStmt, *sql.CreateAlertStmt:
		if n, names := sql.CollectPlaceholders(stmt); n > 0 || len(names) > 0 {
			return fmt.Errorf("dyntables: bind placeholders are not allowed in stored defining queries")
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// prepared statements
// ---------------------------------------------------------------------------

// Stmt is a prepared statement: the SQL is parsed and its placeholders
// collected once; each execution binds fresh arguments and re-binds
// against the current catalog (so prepared statements survive concurrent
// DDL). A Stmt is safe for concurrent use. Statements belong to the
// session that prepared them: closing the session (or the engine)
// invalidates them.
type Stmt struct {
	sess   *Session
	text   string
	parsed sql.Statement
	isSel  bool
	// positional and names cache the placeholder shape collected at
	// Prepare time.
	positional int
	names      []string

	closed atomic.Bool
}

// Prepare parses a statement for repeated execution with `?` and `:name`
// placeholders. The statement is tracked by the session and invalidated
// when the session or engine closes.
func (s *Session) Prepare(text string) (*Stmt, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := rejectStoredPlaceholders(stmt); err != nil {
		return nil, err
	}
	_, isSel := stmt.(*sql.SelectStmt)
	positional, names := sql.CollectPlaceholders(stmt)
	st := &Stmt{
		sess: s, text: text, parsed: stmt, isSel: isSel,
		positional: positional, names: names,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("dyntables: session is closed")
	}
	s.stmts[st] = struct{}{}
	s.mu.Unlock()
	return st, nil
}

func (st *Stmt) checkOpen() error {
	if st.closed.Load() {
		return fmt.Errorf("dyntables: prepared statement is closed")
	}
	return nil
}

// ExecContext executes the prepared statement with the given arguments.
func (st *Stmt) ExecContext(ctx context.Context, args ...any) (*Result, error) {
	if err := st.checkOpen(); err != nil {
		return nil, err
	}
	params, err := bindArgs(st.positional, st.names, args)
	if err != nil {
		return nil, err
	}
	return st.sess.execStatement(ctx, st.text, st.parsed, params)
}

// Exec is ExecContext with a background context.
func (st *Stmt) Exec(args ...any) (*Result, error) {
	return st.ExecContext(context.Background(), args...)
}

// QueryContext executes a prepared SELECT, returning a streaming cursor.
func (st *Stmt) QueryContext(ctx context.Context, args ...any) (*Rows, error) {
	if err := st.checkOpen(); err != nil {
		return nil, err
	}
	if !st.isSel {
		return nil, fmt.Errorf("dyntables: prepared statement is not a SELECT")
	}
	params, err := bindArgs(st.positional, st.names, args)
	if err != nil {
		return nil, err
	}
	return st.sess.queryCursor(ctx, st.text, st.parsed.(*sql.SelectStmt), params)
}

// Close releases the prepared statement: the session stops tracking it
// and subsequent Exec/Query calls fail. Close is idempotent.
func (st *Stmt) Close() error {
	if st.closed.CompareAndSwap(false, true) {
		s := st.sess
		s.mu.Lock()
		delete(s.stmts, st)
		s.mu.Unlock()
	}
	return nil
}

// markClosed invalidates the statement during session close (the session
// already dropped its tracking entry).
func (st *Stmt) markClosed() { st.closed.Store(true) }

// ---------------------------------------------------------------------------
// argument binding
// ---------------------------------------------------------------------------

// bindArgs validates the call arguments against the statement's
// placeholder shape (as returned by sql.CollectPlaceholders) and converts
// them to SQL values.
func bindArgs(positional int, names []string, args []any) (*plan.Params, error) {
	if positional > 0 && len(names) > 0 {
		return nil, fmt.Errorf("dyntables: statement mixes positional (?) and named (:name) placeholders")
	}

	var pos []types.Value
	named := map[string]types.Value{}
	for i, a := range args {
		if na, ok := a.(NamedArg); ok {
			v, err := toValue(na.Value)
			if err != nil {
				return nil, fmt.Errorf("dyntables: argument :%s: %w", na.Name, err)
			}
			named[strings.ToUpper(na.Name)] = v
			continue
		}
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("dyntables: argument %d: %w", i+1, err)
		}
		pos = append(pos, v)
	}
	if len(pos) > 0 && len(named) > 0 {
		return nil, fmt.Errorf("dyntables: cannot mix positional and named arguments in one call")
	}

	switch {
	case positional > 0:
		if len(named) > 0 {
			return nil, fmt.Errorf("dyntables: statement uses positional (?) placeholders; bind plain arguments, not dyntables.Named")
		}
		if len(pos) != positional {
			return nil, fmt.Errorf("dyntables: statement has %d positional placeholders, got %d arguments",
				positional, len(pos))
		}
	case len(names) > 0:
		if len(pos) > 0 {
			return nil, fmt.Errorf("dyntables: statement uses named (:name) placeholders; bind with dyntables.Named")
		}
		for _, n := range names {
			if _, ok := named[n]; !ok {
				return nil, fmt.Errorf("dyntables: no value bound for placeholder :%s", strings.ToLower(n))
			}
		}
		if len(named) > len(names) {
			want := map[string]bool{}
			for _, n := range names {
				want[n] = true
			}
			for n := range named {
				if !want[n] {
					return nil, fmt.Errorf("dyntables: argument :%s matches no placeholder", strings.ToLower(n))
				}
			}
		}
	default:
		if len(args) > 0 {
			return nil, fmt.Errorf("dyntables: statement has no placeholders, got %d arguments", len(args))
		}
		return nil, nil
	}
	return &plan.Params{Positional: pos, Named: named}, nil
}

// toValue converts a Go argument to a SQL value.
func toValue(a any) (types.Value, error) {
	switch v := a.(type) {
	case nil:
		return types.Null, nil
	case types.Value:
		return v, nil
	case bool:
		return types.NewBool(v), nil
	case int:
		return types.NewInt(int64(v)), nil
	case int8:
		return types.NewInt(int64(v)), nil
	case int16:
		return types.NewInt(int64(v)), nil
	case int32:
		return types.NewInt(int64(v)), nil
	case int64:
		return types.NewInt(v), nil
	case uint8:
		return types.NewInt(int64(v)), nil
	case uint16:
		return types.NewInt(int64(v)), nil
	case uint32:
		return types.NewInt(int64(v)), nil
	case float32:
		return types.NewFloat(float64(v)), nil
	case float64:
		return types.NewFloat(v), nil
	case string:
		return types.NewString(v), nil
	case time.Time:
		return types.NewTimestamp(v), nil
	case time.Duration:
		return types.NewInterval(v), nil
	case map[string]any:
		return types.NewVariant(v), nil
	case []any:
		return types.NewVariant(v), nil
	default:
		return types.Null, fmt.Errorf("unsupported argument type %T", a)
	}
}

// ---------------------------------------------------------------------------
// streaming cursor
// ---------------------------------------------------------------------------

// Rows is a streaming query cursor. Rows are pulled from the executor one
// at a time: iterate with Next/Scan, or range over Seq. Always Close the
// cursor (Close is idempotent); cancellation of the query context also
// releases it on the next Next call.
type Rows struct {
	cols []string
	it   exec.RowIter
	eng  *Engine

	// QUERY_HISTORY accounting, set by queryCursor: the statement event
	// closes at cursor release with the served row count. sess is nil
	// for cursors opened outside the session path (internal scans).
	sess   *Session
	text   string
	start  time.Time
	root   *trace.Span
	served int64

	// unpin releases the storage version pins taken at plan time, which
	// keep the cursor's snapshot safe from the compaction sweep. Nil for
	// cursors opened over pin-free plans.
	unpin func()

	cur      types.Row
	err      error
	released bool
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row, reporting whether one is available. It
// returns false at the end of the result set, on error, or once the query
// context is canceled; check Err afterwards.
func (r *Rows) Next() bool {
	if r.released || r.err != nil {
		return false
	}
	tr, ok, err := r.it.Next()
	if err != nil {
		r.err = err
		r.release()
		return false
	}
	if !ok {
		r.release()
		return false
	}
	r.cur = tr.Row
	r.served++
	return true
}

// Row returns the current row's values.
func (r *Rows) Row() types.Row { return r.cur }

// Scan copies the current row into dest pointers. Supported destination
// types: *int64, *int, *float64, *string, *bool, *time.Time,
// *types.Value and *any.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("dyntables: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("dyntables: Scan expects %d destinations, got %d", len(r.cur), len(dest))
	}
	for i, d := range dest {
		if err := scanValue(r.cur[i], d); err != nil {
			return fmt.Errorf("dyntables: Scan column %d (%s): %w", i, r.cols[i], err)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any; context
// cancellation surfaces as the context's error.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor. It is idempotent and safe to call at any
// point of the iteration.
func (r *Rows) Close() error {
	r.release()
	return nil
}

func (r *Rows) release() {
	if r.released {
		return
	}
	r.released = true
	r.it.Close()
	if r.unpin != nil {
		r.unpin()
	}
	r.eng.cursors.Add(-1)
	if r.sess == nil {
		return
	}
	status, errText := "SUCCESS", ""
	if r.err != nil {
		errText = r.err.Error()
		if errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded) {
			status = "CANCELED"
		} else {
			status = "ERROR"
		}
	}
	r.root.SetAttr("status", status)
	r.eng.trc.FinishRoot(r.root)
	r.eng.rec.RecordStatement(obs.StatementEvent{
		SessionID: r.sess.id, Role: r.sess.Role(), Text: r.text, Kind: "SELECT",
		Status: status, Rows: r.served, Start: r.start, Duration: time.Since(r.start),
		RootID: r.root.RootID(), Error: errText,
	})
}

// Seq adapts the cursor to a Go 1.23 range-over-func iterator. Each
// iteration yields a row and a nil error; a terminal error (including
// context cancellation) is yielded once with a nil row. The cursor is
// closed when the loop exits.
func (r *Rows) Seq() iter.Seq2[types.Row, error] {
	return func(yield func(types.Row, error) bool) {
		defer r.Close()
		for r.Next() {
			if !yield(r.cur, nil) {
				return
			}
		}
		if r.err != nil {
			yield(nil, r.err)
		}
	}
}

// unwrapValue converts a SQL value to its natural Go representation.
func unwrapValue(v types.Value) any {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindString:
		return v.Str()
	case types.KindBool:
		return v.Bool()
	case types.KindTimestamp:
		return v.Time()
	case types.KindInterval:
		return v.Interval()
	case types.KindVariant:
		return v.Variant()
	default:
		return v
	}
}

// scanValue converts a SQL value into a Go destination pointer.
func scanValue(v types.Value, dest any) error {
	switch d := dest.(type) {
	case *types.Value:
		*d = v
		return nil
	case *any:
		*d = unwrapValue(v)
		return nil
	}
	if v.IsNull() {
		return fmt.Errorf("cannot scan NULL into %T (use *types.Value or *any)", dest)
	}
	switch d := dest.(type) {
	case *int64:
		c, err := types.Cast(v, types.KindInt)
		if err != nil {
			return err
		}
		*d = c.Int()
	case *int:
		c, err := types.Cast(v, types.KindInt)
		if err != nil {
			return err
		}
		*d = int(c.Int())
	case *float64:
		c, err := types.Cast(v, types.KindFloat)
		if err != nil {
			return err
		}
		*d = c.Float()
	case *string:
		c, err := types.Cast(v, types.KindString)
		if err != nil {
			return err
		}
		*d = c.Str()
	case *bool:
		c, err := types.Cast(v, types.KindBool)
		if err != nil {
			return err
		}
		*d = c.Bool()
	case *time.Time:
		c, err := types.Cast(v, types.KindTimestamp)
		if err != nil {
			return err
		}
		*d = c.Time()
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return nil
}
