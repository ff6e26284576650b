package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyntables/internal/obs"
)

// Protocol defaults.
const (
	// DefaultPageSize is the cursor page size when a fetch names no limit.
	DefaultPageSize = 256
	// MaxPageSize caps the per-fetch row limit a client may request.
	MaxPageSize = 4096
	// DefaultIdleTimeout reaps sessions and statements untouched this
	// long, releasing abandoned cursors' pinned snapshots.
	DefaultIdleTimeout = 5 * time.Minute
	// AdminRole is the role with unrestricted protocol access; with no
	// tokens configured every caller gets it.
	AdminRole = "ADMIN"
)

// Config parameterizes a Server.
type Config struct {
	// Backend is the engine the server fronts. Required.
	Backend Backend
	// Tokens maps bearer tokens to roles. Empty means open access: every
	// caller is ADMIN and may choose a role per session.
	Tokens map[string]string
	// PageSize is the default cursor page size; 0 means DefaultPageSize.
	PageSize int
	// IdleTimeout reaps idle sessions/statements; 0 means
	// DefaultIdleTimeout, negative disables the reaper.
	IdleTimeout time.Duration
}

// Server implements the HTTP/JSON cursor protocol over a Backend. Create
// one with New, mount Handler on an http.Server, and call Shutdown
// before closing the engine.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu       sync.Mutex
	sessions map[string]*session
	stmts    map[string]*statement

	draining   atomic.Bool
	reaperStop chan struct{}
	reaperDone chan struct{}
	stopOnce   sync.Once
}

// session is one remote session: an engine session plus its open
// statements. The maps and lastUsed are guarded by Server.mu.
type session struct {
	id       string
	token    string
	role     string
	sess     Session
	stmts    map[string]*statement
	lastUsed time.Time
}

// statement is one open cursor statement. mu serializes fetches against
// cancellation; lastUsed is guarded by Server.mu.
type statement struct {
	id     string
	sess   *session
	cancel context.CancelFunc

	mu        sync.Mutex
	cur       Cursor
	cols      []string
	served    int64  // rows handed out so far
	page      []byte // most recent page's encoded body, kept for idempotent retry
	pageRows  int    // rows in the cached page
	pageStart int64  // `after` value the cached page answered
	done      bool
	closed    bool

	lastUsed time.Time
}

// close cancels the statement's context (aborting any in-flight scan),
// then closes the cursor, releasing its pinned snapshot. Idempotent and
// safe against a concurrent fetch: the fetch holds mu, its scan aborts
// on the canceled context, and close finishes once the fetch returns.
func (st *statement) close() {
	st.cancel()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	if st.cur != nil {
		st.cur.Close()
		st.cur = nil
	}
	st.page = nil
}

// New builds a Server over the backend and registers its routes.
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("server: Config.Backend is required")
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.PageSize > MaxPageSize {
		cfg.PageSize = MaxPageSize
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		sessions: make(map[string]*session),
		stmts:    make(map[string]*statement),
	}
	s.routes()
	if cfg.IdleTimeout > 0 {
		s.reaperStop = make(chan struct{})
		s.reaperDone = make(chan struct{})
		go s.reap()
	}
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCloseSession)
	s.mux.HandleFunc("POST /v1/sessions/{id}/statements", s.handleStatements)
	s.mux.HandleFunc("POST /v1/sessions/{id}/role", s.handleRole)
	s.mux.HandleFunc("GET /v1/statements/{id}/rows", s.handleFetch)
	s.mux.HandleFunc("DELETE /v1/statements/{id}", s.handleCancelStatement)
	s.mux.HandleFunc("GET /v1/info/{table}", s.handleInfo)
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	s.mux.HandleFunc("POST /v1/dts/{name}/refresh-mode", s.handleRefreshMode)
	s.mux.HandleFunc("POST /v1/admin/advance", s.handleAdvance)
	s.mux.HandleFunc("POST /v1/admin/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/pprof/", s.adminOnly(pprof.Index))
	s.mux.HandleFunc("GET /debug/pprof/cmdline", s.adminOnly(pprof.Cmdline))
	s.mux.HandleFunc("GET /debug/pprof/profile", s.adminOnly(pprof.Profile))
	s.mux.HandleFunc("GET /debug/pprof/symbol", s.adminOnly(pprof.Symbol))
	s.mux.HandleFunc("GET /debug/pprof/trace", s.adminOnly(pprof.Trace))
}

// Handler returns the protocol handler: the route mux wrapped in the
// drain gate and the per-endpoint request-metrics middleware feeding
// INFORMATION_SCHEMA.SERVER_REQUEST_HISTORY.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		meta := &reqMeta{}
		ctx := context.WithValue(r.Context(), metaKey{}, meta)
		// Honor a client-supplied request ID: echo it back, thread it
		// through the context (the engine stamps it on the statement root
		// span) and record it in SERVER_REQUEST_HISTORY, so remote traces
		// are correlatable end to end.
		requestID := r.Header.Get("X-Request-Id")
		if requestID != "" {
			ctx = obs.WithRequestID(ctx, requestID)
			w.Header().Set("X-Request-Id", requestID)
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// Health and scrape endpoints stay reachable while draining so
		// monitoring observes the shutdown instead of losing the target.
		// ServeMux records the matched route in r.Pattern; a drained request
		// never reaches the mux, so only that path matches on its own.
		if s.draining.Load() && r.URL.Path != "/v1/status" && r.URL.Path != "/metrics" {
			writeError(sw, errf(http.StatusServiceUnavailable, "draining", "server is draining"))
			_, r.Pattern = s.mux.Handler(r)
		} else {
			s.mux.ServeHTTP(sw, r)
		}
		pattern := r.Pattern
		if pattern == "" {
			pattern = r.URL.Path
		}
		s.cfg.Backend.Recorder().RecordRequest(obs.RequestEvent{
			Method:      r.Method,
			Endpoint:    pattern,
			Status:      sw.status,
			Role:        meta.role,
			SessionID:   meta.sessionID,
			StatementID: meta.statementID,
			Rows:        meta.rows,
			Start:       start,
			Duration:    time.Since(start),
			RequestID:   requestID,
		})
	})
}

// Drain makes every request except GET /v1/status fail with 503 while
// in-flight requests finish; part of the graceful-shutdown sequence.
func (s *Server) Drain() { s.draining.Store(true) }

// Shutdown drains the server, stops the idle reaper, cancels every open
// statement (closing its cursor and releasing its pinned snapshot) and
// closes every session. Call it after the HTTP listener has stopped
// accepting and before closing the engine.
func (s *Server) Shutdown() {
	s.Drain()
	s.stopOnce.Do(func() {
		if s.reaperStop != nil {
			close(s.reaperStop)
			<-s.reaperDone
		}
	})
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[string]*session)
	s.stmts = make(map[string]*statement)
	s.mu.Unlock()
	for _, sess := range sessions {
		for _, st := range sess.stmts {
			st.close()
		}
		sess.sess.Close()
	}
}

// reap closes sessions and statements idle past the configured timeout,
// so abandoned remote cursors cannot pin snapshots forever.
func (s *Server) reap() {
	defer close(s.reaperDone)
	tick := s.cfg.IdleTimeout / 4
	if tick < time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case now := <-t.C:
			cutoff := now.Add(-s.cfg.IdleTimeout)
			s.mu.Lock()
			var deadSessions []*session
			var deadStmts []*statement
			for id, sess := range s.sessions {
				if sess.lastUsed.Before(cutoff) {
					deadSessions = append(deadSessions, sess)
					delete(s.sessions, id)
					for sid := range sess.stmts {
						delete(s.stmts, sid)
					}
					continue
				}
				for sid, st := range sess.stmts {
					if st.lastUsed.Before(cutoff) {
						deadStmts = append(deadStmts, st)
						delete(s.stmts, sid)
						delete(sess.stmts, sid)
					}
				}
			}
			s.mu.Unlock()
			for _, st := range deadStmts {
				st.close()
			}
			for _, sess := range deadSessions {
				for _, st := range sess.stmts {
					st.close()
				}
				sess.sess.Close()
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Request plumbing: errors, metrics meta, auth
// ---------------------------------------------------------------------------

// httpError is a protocol error: an HTTP status plus the machine-readable
// code and message serialized as {"error":{"code","message"}}.
type httpError struct {
	status int
	code   string
	msg    string
}

func errf(status int, code, format string, args ...any) *httpError {
	return &httpError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, e *httpError) {
	var body errorBody
	body.Error.Code = e.code
	body.Error.Message = e.msg
	writeJSON(w, e.status, body)
}

// writeJSON answers with v encoded by encoding/json. It encodes before
// writing the header, so a failed encode answers an error, never a 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, errf(http.StatusInternalServerError, "encode_failed", "%v", err))
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody answers with an encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// unencodable is the protocol error for a result the wire codec cannot
// encode. The statement ran; its result holds a value JSON has no form for.
func unencodable(err error) *httpError {
	return errf(http.StatusUnprocessableEntity, "unencodable_value", "%v", err)
}

// bodyPool recycles the buffers buffered results are encoded into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody caps the size of a buffer kept in bodyPool, so one large
// result does not stay pinned after it is sent.
const maxPooledBody = 1 << 20

// writeResult answers with a buffered result's statementBody, or a script's
// with script set. The body is encoded in full before anything is written.
func writeResult(w http.ResponseWriter, script bool, results ...*Result) {
	buf := bodyPool.Get().(*[]byte)
	var body []byte
	var err error
	if script {
		body, err = appendScriptBody((*buf)[:0], results)
	} else {
		body, err = appendResultBody((*buf)[:0], results[0])
	}
	if err != nil {
		writeError(w, unencodable(err))
	} else {
		writeBody(w, http.StatusOK, body)
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyPool.Put(buf)
	}
}

// statusWriter captures the response status for the metrics middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// reqMeta is filled in by handlers and read by the metrics middleware.
type reqMeta struct {
	role        string
	sessionID   string
	statementID string
	rows        int
}

type metaKey struct{}

func metaFrom(r *http.Request) *reqMeta {
	if m, ok := r.Context().Value(metaKey{}).(*reqMeta); ok {
		return m
	}
	return &reqMeta{}
}

// authRole resolves the caller's role from the bearer token. With no
// tokens configured the protocol is open and every caller is ADMIN.
func (s *Server) authRole(r *http.Request) (role, token string, hErr *httpError) {
	if len(s.cfg.Tokens) == 0 {
		return AdminRole, "", nil
	}
	h := r.Header.Get("Authorization")
	tok, ok := strings.CutPrefix(h, "Bearer ")
	if !ok || tok == "" {
		return "", "", errf(http.StatusUnauthorized, "unauthenticated", "missing bearer token")
	}
	role, known := s.cfg.Tokens[tok]
	if !known {
		return "", "", errf(http.StatusUnauthorized, "unauthenticated", "unknown token")
	}
	return role, tok, nil
}

// sessionFor resolves the {id} path session and checks the caller's
// token is the one that created it.
func (s *Server) sessionFor(r *http.Request) (*session, *httpError) {
	_, token, hErr := s.authRole(r)
	if hErr != nil {
		return nil, hErr
	}
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		sess.lastUsed = time.Now()
	}
	s.mu.Unlock()
	if !ok {
		return nil, errf(http.StatusNotFound, "no_such_session", "unknown session %q", id)
	}
	if len(s.cfg.Tokens) > 0 && sess.token != token {
		return nil, errf(http.StatusForbidden, "forbidden", "session %q belongs to another token", id)
	}
	meta := metaFrom(r)
	meta.role = sess.role
	meta.sessionID = sess.id
	return sess, nil
}

// statementFor resolves the {id} path statement with the same ownership
// check as sessionFor.
func (s *Server) statementFor(r *http.Request) (*statement, *httpError) {
	_, token, hErr := s.authRole(r)
	if hErr != nil {
		return nil, hErr
	}
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.stmts[id]
	if ok {
		st.lastUsed = time.Now()
		st.sess.lastUsed = st.lastUsed
	}
	s.mu.Unlock()
	if !ok {
		return nil, errf(http.StatusNotFound, "no_such_statement", "unknown statement %q", id)
	}
	if len(s.cfg.Tokens) > 0 && st.sess.token != token {
		return nil, errf(http.StatusForbidden, "forbidden", "statement %q belongs to another token", id)
	}
	meta := metaFrom(r)
	meta.role = st.sess.role
	meta.sessionID = st.sess.id
	meta.statementID = st.id
	return st, nil
}

func decodeBody(r *http.Request, v any) *httpError {
	if r.Body == nil || r.ContentLength == 0 {
		return nil
	}
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return errf(http.StatusBadRequest, "bad_request", "malformed body: %v", err)
	}
	return nil
}

// sqlError maps an engine execution error to a protocol error:
// cancellations report as such, privilege denials map to 403, everything
// else is a plain statement error.
func sqlError(err error) *httpError {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return errf(499, "canceled", "statement canceled: %v", err)
	case strings.Contains(err.Error(), "privilege"), strings.Contains(err.Error(), " lacks "):
		return errf(http.StatusForbidden, "forbidden", "%v", err)
	default:
		return errf(http.StatusBadRequest, "sql_error", "%v", err)
	}
}

func newID(prefix string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}

// ---------------------------------------------------------------------------
// Wire bodies
// ---------------------------------------------------------------------------

type createSessionRequest struct {
	Role string `json:"role,omitempty"`
}

type sessionBody struct {
	SessionID string `json:"session_id"`
	Role      string `json:"role"`
}

type statementRequest struct {
	SQL    string    `json:"sql,omitempty"`
	Script string    `json:"script,omitempty"`
	Args   []wireArg `json:"args,omitempty"`
	Cursor bool      `json:"cursor,omitempty"`
}

// resultBody, statementBody and rowsBody are the result bodies as the Go
// client decodes them. Their json tags define the wire form; the server
// writes it with the append functions in codec.go and the client reads it
// with decode.go, and FuzzWireCodec checks both against encoding/json.
type resultBody struct {
	Kind         string   `json:"kind"`
	Columns      []string `json:"columns,omitempty"`
	Rows         [][]any  `json:"rows,omitempty"`
	RowsAffected int      `json:"rows_affected,omitempty"`
	Message      string   `json:"message,omitempty"`
}

type statementBody struct {
	StatementID string       `json:"statement_id,omitempty"`
	Columns     []string     `json:"columns,omitempty"`
	Result      *resultBody  `json:"result,omitempty"`
	Results     []resultBody `json:"results,omitempty"`
}

type rowsBody struct {
	Rows  [][]any `json:"rows"`
	After int64   `json:"after"`
	Done  bool    `json:"done"`
}

type roleRequest struct {
	Role string `json:"role"`
}

type modeRequest struct {
	Mode string `json:"mode"`
}

type advanceRequest struct {
	Duration string `json:"duration"`
}

type statusBody struct {
	Now        string `json:"now"`
	Draining   bool   `json:"draining"`
	Sessions   int    `json:"sessions"`
	Statements int    `json:"statements"`
	// Engine-level state from Backend.Status. Uptime and checkpoint age
	// are host wall-clock seconds; checkpoint_age_seconds is -1 when no
	// checkpoint has run (or the engine is in-memory).
	UptimeSeconds        float64 `json:"uptime_seconds"`
	EngineSessions       int     `json:"engine_sessions"`
	OpenCursors          int64   `json:"open_cursors"`
	Durable              bool    `json:"durable"`
	WALBytes             int64   `json:"wal_bytes"`
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	role, token, hErr := s.authRole(r)
	if hErr != nil {
		writeError(w, hErr)
		return
	}
	var req createSessionRequest
	if hErr := decodeBody(r, &req); hErr != nil {
		writeError(w, hErr)
		return
	}
	// Open access lets the caller pick a role; token mode pins the
	// session to the token's role.
	if len(s.cfg.Tokens) == 0 && req.Role != "" {
		role = strings.ToUpper(req.Role)
	}
	be := s.cfg.Backend.NewSession()
	be.SetRole(role)
	sess := &session{
		id:       newID("s"),
		token:    token,
		role:     role,
		sess:     be,
		stmts:    make(map[string]*statement),
		lastUsed: time.Now(),
	}
	s.mu.Lock()
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	meta := metaFrom(r)
	meta.role = role
	meta.sessionID = sess.id
	writeJSON(w, http.StatusOK, sessionBody{SessionID: sess.id, Role: role})
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	sess, hErr := s.sessionFor(r)
	if hErr != nil {
		writeError(w, hErr)
		return
	}
	s.mu.Lock()
	delete(s.sessions, sess.id)
	stmts := make([]*statement, 0, len(sess.stmts))
	for id, st := range sess.stmts {
		stmts = append(stmts, st)
		delete(s.stmts, id)
	}
	s.mu.Unlock()
	for _, st := range stmts {
		st.close()
	}
	if err := sess.sess.Close(); err != nil {
		writeError(w, errf(http.StatusInternalServerError, "close_failed", "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

func (s *Server) handleStatements(w http.ResponseWriter, r *http.Request) {
	sess, hErr := s.sessionFor(r)
	if hErr != nil {
		writeError(w, hErr)
		return
	}
	var req statementRequest
	if hErr := decodeBody(r, &req); hErr != nil {
		writeError(w, hErr)
		return
	}
	meta := metaFrom(r)

	if req.Script != "" {
		if req.SQL != "" || req.Cursor {
			writeError(w, errf(http.StatusBadRequest, "bad_request", "script is exclusive with sql/cursor"))
			return
		}
		// The request context drives execution: a client disconnect
		// cancels the running script.
		results, err := sess.sess.ExecScriptContext(r.Context(), req.Script)
		if err != nil {
			writeError(w, sqlError(err))
			return
		}
		for _, res := range results {
			meta.rows += len(res.Rows)
		}
		writeResult(w, true, results...)
		return
	}
	if req.SQL == "" {
		writeError(w, errf(http.StatusBadRequest, "bad_request", "missing sql"))
		return
	}
	pos, named, err := decodeArgs(req.Args)
	if err != nil {
		writeError(w, errf(http.StatusBadRequest, "bad_request", "%v", err))
		return
	}

	if req.Cursor {
		// Cursor statements outlive this request, so they get a
		// detached context; DELETE (or session close / idle reaping)
		// cancels it.
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := sess.sess.QueryContext(ctx, req.SQL, pos, named)
		if err != nil {
			cancel()
			writeError(w, sqlError(err))
			return
		}
		st := &statement{
			id:        newID("q"),
			sess:      sess,
			cancel:    cancel,
			cur:       cur,
			cols:      cur.Columns(),
			pageStart: -1,
			lastUsed:  time.Now(),
		}
		s.mu.Lock()
		if _, alive := s.sessions[sess.id]; !alive {
			s.mu.Unlock()
			st.close()
			writeError(w, errf(http.StatusNotFound, "no_such_session", "session closed"))
			return
		}
		s.stmts[st.id] = st
		sess.stmts[st.id] = st
		s.mu.Unlock()
		meta.statementID = st.id
		writeBody(w, http.StatusOK, appendCursorBody(nil, st.id, st.cols))
		return
	}

	res, err := sess.sess.ExecContext(r.Context(), req.SQL, pos, named)
	if err != nil {
		writeError(w, sqlError(err))
		return
	}
	meta.rows = len(res.Rows)
	writeResult(w, false, res)
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	st, hErr := s.statementFor(r)
	if hErr != nil {
		writeError(w, hErr)
		return
	}
	after := int64(0)
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, errf(http.StatusBadRequest, "bad_request", "bad after %q", v))
			return
		}
		after = n
	}
	limit := s.cfg.PageSize
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, errf(http.StatusBadRequest, "bad_request", "bad limit %q", v))
			return
		}
		if n < limit {
			limit = n
		}
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		writeError(w, errf(http.StatusGone, "gone", "statement closed"))
		return
	}
	meta := metaFrom(r)

	// Idempotent retry: a client that lost the response re-asks with the
	// same `after`; the cached page answers it without re-reading the
	// cursor.
	if after == st.pageStart {
		meta.rows = st.pageRows
		writeBody(w, http.StatusOK, st.page)
		return
	}
	if after != st.served {
		writeError(w, errf(http.StatusConflict, "conflict",
			"cursor is at row %d, cannot serve after=%d", st.served, after))
		return
	}
	if st.done {
		writeBody(w, http.StatusOK, appendPageEnd(appendPageStart(nil), st.served, true))
		return
	}

	// The page is encoded row by row as the cursor yields it, into the
	// buffer of the page it replaces as the retry cache.
	body := appendPageStart(st.page[:0])
	n := 0
	var encErr error
	for n < limit && st.cur.Next() {
		if n > 0 {
			body = append(body, ',')
		}
		if body, encErr = appendRow(body, st.cur.Row(), st.cols); encErr != nil {
			break
		}
		n++
	}
	if n < limit || encErr != nil {
		// Exhausted, failed, or at a row the wire cannot carry: release
		// the cursor and its pinned snapshot now rather than waiting for
		// DELETE or the reaper.
		var hErr *httpError
		if err := st.cur.Err(); err != nil {
			hErr = sqlError(err)
		} else if encErr != nil {
			// The cursor has moved past the page's rows, so the statement
			// cannot resume: it closes with the error.
			hErr = unencodable(encErr)
		}
		st.cur.Close()
		st.cur = nil
		if hErr != nil {
			st.closed = true
			st.page = nil
			writeError(w, hErr)
			return
		}
		st.done = true
	}
	st.served = after + int64(n)
	st.page = appendPageEnd(body, st.served, st.done)
	st.pageStart, st.pageRows = after, n
	meta.rows = n
	writeBody(w, http.StatusOK, st.page)
}

func (s *Server) handleCancelStatement(w http.ResponseWriter, r *http.Request) {
	st, hErr := s.statementFor(r)
	if hErr != nil {
		writeError(w, hErr)
		return
	}
	s.mu.Lock()
	delete(s.stmts, st.id)
	delete(st.sess.stmts, st.id)
	s.mu.Unlock()
	st.close()
	writeJSON(w, http.StatusOK, map[string]bool{"canceled": true})
}

func (s *Server) handleRole(w http.ResponseWriter, r *http.Request) {
	sess, hErr := s.sessionFor(r)
	if hErr != nil {
		writeError(w, hErr)
		return
	}
	if len(s.cfg.Tokens) > 0 && sess.role != AdminRole {
		writeError(w, errf(http.StatusForbidden, "forbidden", "only ADMIN sessions may switch roles"))
		return
	}
	var req roleRequest
	if hErr := decodeBody(r, &req); hErr != nil {
		writeError(w, hErr)
		return
	}
	if req.Role == "" {
		writeError(w, errf(http.StatusBadRequest, "bad_request", "missing role"))
		return
	}
	role := strings.ToUpper(req.Role)
	sess.sess.SetRole(role)
	s.mu.Lock()
	sess.role = role
	s.mu.Unlock()
	metaFrom(r).role = role
	writeJSON(w, http.StatusOK, sessionBody{SessionID: sess.id, Role: role})
}

// infoTables maps /v1/info/{table} keys to virtual-table names. The
// endpoint is a thin veneer: each read runs SELECT * through a scratch
// session, so privileges and planning behave exactly like SQL access.
var infoTables = map[string]string{
	"dynamic-tables":     "INFORMATION_SCHEMA.DYNAMIC_TABLES",
	"refresh-history":    "INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY",
	"graph-history":      "INFORMATION_SCHEMA.DYNAMIC_TABLE_GRAPH_HISTORY",
	"warehouse-metering": "INFORMATION_SCHEMA.WAREHOUSE_METERING_HISTORY",
	"server-requests":    "INFORMATION_SCHEMA.SERVER_REQUEST_HISTORY",
	"query-history":      "INFORMATION_SCHEMA.QUERY_HISTORY",
	"trace-spans":        "INFORMATION_SCHEMA.TRACE_SPANS",
	"resource-history":   "INFORMATION_SCHEMA.RESOURCE_HISTORY",
	"dt-health":          "INFORMATION_SCHEMA.DT_HEALTH",
	"alerts":             "INFORMATION_SCHEMA.ALERTS",
	"alert-history":      "INFORMATION_SCHEMA.ALERT_HISTORY",
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	role, _, hErr := s.authRole(r)
	if hErr != nil {
		writeError(w, hErr)
		return
	}
	meta := metaFrom(r)
	meta.role = role
	name, ok := infoTables[r.PathValue("table")]
	if !ok {
		writeError(w, errf(http.StatusNotFound, "no_such_table", "unknown info table %q", r.PathValue("table")))
		return
	}
	be := s.cfg.Backend.NewSession()
	defer be.Close()
	be.SetRole(role)
	res, err := be.ExecContext(r.Context(), "SELECT * FROM "+name, nil, nil)
	if err != nil {
		writeError(w, sqlError(err))
		return
	}
	meta.rows = len(res.Rows)
	writeResult(w, false, res)
}

// handleAlerts serves GET /v1/alerts: the registered watchdog alerts
// with their firing state, via the same scratch-session SQL veneer as
// /v1/info so privileges behave exactly like SQL access.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	role, _, hErr := s.authRole(r)
	if hErr != nil {
		writeError(w, hErr)
		return
	}
	meta := metaFrom(r)
	meta.role = role
	be := s.cfg.Backend.NewSession()
	defer be.Close()
	be.SetRole(role)
	res, err := be.ExecContext(r.Context(), "SELECT * FROM INFORMATION_SCHEMA.ALERTS", nil, nil)
	if err != nil {
		writeError(w, sqlError(err))
		return
	}
	meta.rows = len(res.Rows)
	writeResult(w, false, res)
}

var identRe = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_$]*$`)

func (s *Server) handleRefreshMode(w http.ResponseWriter, r *http.Request) {
	role, _, hErr := s.authRole(r)
	if hErr != nil {
		writeError(w, hErr)
		return
	}
	meta := metaFrom(r)
	meta.role = role
	name := r.PathValue("name")
	if !identRe.MatchString(name) {
		writeError(w, errf(http.StatusBadRequest, "bad_request", "bad dynamic table name %q", name))
		return
	}
	var req modeRequest
	if hErr := decodeBody(r, &req); hErr != nil {
		writeError(w, hErr)
		return
	}
	mode := strings.ToUpper(req.Mode)
	switch mode {
	case "AUTO", "FULL", "INCREMENTAL":
	default:
		writeError(w, errf(http.StatusBadRequest, "bad_request", "bad refresh mode %q (want AUTO, FULL or INCREMENTAL)", req.Mode))
		return
	}
	be := s.cfg.Backend.NewSession()
	defer be.Close()
	be.SetRole(role)
	res, err := be.ExecContext(r.Context(),
		fmt.Sprintf("ALTER DYNAMIC TABLE %s SET REFRESH_MODE = %s", name, mode), nil, nil)
	if err != nil {
		writeError(w, sqlError(err))
		return
	}
	writeResult(w, false, res)
}

// adminOnly wraps a handler (the pprof endpoints) behind requireAdmin,
// so profiling a token-mode daemon needs an ADMIN bearer token while
// open-access development daemons stay reachable.
func (s *Server) adminOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if _, hErr := s.requireAdmin(r); hErr != nil {
			writeError(w, hErr)
			return
		}
		h(w, r)
	}
}

// requireAdmin gates the admin endpoints in token mode.
func (s *Server) requireAdmin(r *http.Request) (string, *httpError) {
	role, _, hErr := s.authRole(r)
	if hErr != nil {
		return "", hErr
	}
	if len(s.cfg.Tokens) > 0 && role != AdminRole {
		return "", errf(http.StatusForbidden, "forbidden", "admin endpoint requires the ADMIN role")
	}
	metaFrom(r).role = role
	return role, nil
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if _, hErr := s.requireAdmin(r); hErr != nil {
		writeError(w, hErr)
		return
	}
	var req advanceRequest
	if hErr := decodeBody(r, &req); hErr != nil {
		writeError(w, hErr)
		return
	}
	d, err := time.ParseDuration(req.Duration)
	if err != nil || d < 0 {
		writeError(w, errf(http.StatusBadRequest, "bad_request", "bad duration %q", req.Duration))
		return
	}
	now := s.cfg.Backend.AdvanceTime(d)
	if err := s.cfg.Backend.RunScheduler(); err != nil {
		writeError(w, errf(http.StatusInternalServerError, "scheduler_error", "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"now": now.UTC().Format(time.RFC3339Nano)})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if _, hErr := s.requireAdmin(r); hErr != nil {
		writeError(w, hErr)
		return
	}
	if err := s.cfg.Backend.Checkpoint(); err != nil {
		writeError(w, errf(http.StatusInternalServerError, "checkpoint_failed", "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	nSessions, nStmts := len(s.sessions), len(s.stmts)
	s.mu.Unlock()
	bs := s.cfg.Backend.Status()
	age := -1.0
	if bs.Durable && bs.CheckpointAge >= 0 {
		age = bs.CheckpointAge.Seconds()
	}
	writeJSON(w, http.StatusOK, statusBody{
		Now:                  s.cfg.Backend.Now().UTC().Format(time.RFC3339Nano),
		Draining:             s.draining.Load(),
		Sessions:             nSessions,
		Statements:           nStmts,
		UptimeSeconds:        bs.Uptime.Seconds(),
		EngineSessions:       bs.Sessions,
		OpenCursors:          bs.OpenCursors,
		Durable:              bs.Durable,
		WALBytes:             bs.WALBytes,
		CheckpointAgeSeconds: age,
	})
}

// handleMetrics serves the Prometheus text exposition. The backend
// renders from snapshot accessors, so a slow scrape never holds an
// engine lock.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(s.cfg.Backend.MetricsText()))
}
