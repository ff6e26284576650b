package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is a Go client for the cursor protocol. It is safe for
// concurrent use; sessions created from it are not (mirroring the
// engine's Session contract).
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// NewClient builds a client for a dtserve daemon. addr is a host:port or
// http:// URL; token is the bearer token, empty for open-access servers.
func NewClient(addr, token string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base:  strings.TrimRight(addr, "/"),
		token: token,
		hc:    &http.Client{},
	}
}

// SetHTTPClient swaps the underlying http.Client (shared transports for
// high-fanout load tests, custom timeouts).
func (c *Client) SetHTTPClient(hc *http.Client) { c.hc = hc }

// ProtocolError is a server-reported protocol error.
type ProtocolError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code (e.g. "sql_error",
	// "conflict", "draining").
	Code string
	// Message is the human-readable description.
	Message string
}

// Error implements the error interface.
func (e *ProtocolError) Error() string {
	return fmt.Sprintf("server: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// NamedArg binds a value to a :name placeholder in client calls.
type NamedArg struct {
	// Name is the placeholder name, without the colon.
	Name string
	// Value is the bound value.
	Value any
}

// Named builds a NamedArg, mirroring the engine's Named helper.
func Named(name string, value any) NamedArg { return NamedArg{Name: name, Value: value} }

// do sends one JSON request and reads the reply into out, which may be
// nil. The result bodies, *statementBody and *rowsBody, are read with the
// wire scanner (decode.go); every other body with encoding/json.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Code == "" {
			return &ProtocolError{Status: resp.StatusCode, Code: "http_error", Message: resp.Status}
		}
		return &ProtocolError{Status: resp.StatusCode, Code: eb.Error.Code, Message: eb.Error.Message}
	}
	switch body := out.(type) {
	case nil:
		io.Copy(io.Discard, resp.Body)
		return nil
	case *statementBody:
		data, err := readBody(resp)
		if err != nil {
			return err
		}
		return decodeStatementBody(data, body)
	case *rowsBody:
		data, err := readBody(resp)
		if err != nil {
			return err
		}
		return decodeRowsBody(data, body)
	default:
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		return dec.Decode(out)
	}
}

// maxPresized caps the buffer readBody allocates up front from a
// response's declared length.
const maxPresized = 16 << 20

// readBody reads a whole response body as one string, into a buffer sized
// from Content-Length when the server sent one.
func readBody(resp *http.Response) (string, error) {
	var b bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		b.Grow(int(min(n, maxPresized)) + bytes.MinRead)
	}
	_, err := b.ReadFrom(resp.Body)
	return b.String(), err
}

// Status is the daemon's liveness snapshot.
type Status struct {
	// Now is the engine clock's current time.
	Now time.Time
	// Draining reports whether the server is shutting down.
	Draining bool
	// Sessions and Statements count open protocol objects.
	Sessions, Statements int
}

// Status fetches the daemon's liveness snapshot (unauthenticated).
func (c *Client) Status(ctx context.Context) (*Status, error) {
	var body statusBody
	if err := c.do(ctx, http.MethodGet, "/v1/status", nil, &body); err != nil {
		return nil, err
	}
	now, _ := time.Parse(time.RFC3339Nano, body.Now)
	return &Status{Now: now, Draining: body.Draining, Sessions: body.Sessions, Statements: body.Statements}, nil
}

// Advance advances a virtual-clock daemon's time and runs its scheduler
// (ADMIN only in token mode).
func (c *Client) Advance(ctx context.Context, d time.Duration) error {
	return c.do(ctx, http.MethodPost, "/v1/admin/advance", advanceRequest{Duration: d.String()}, nil)
}

// Checkpoint forces a durability checkpoint (ADMIN only in token mode).
func (c *Client) Checkpoint(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/admin/checkpoint", nil, nil)
}

// Info reads one INFORMATION_SCHEMA table by its endpoint key
// (dynamic-tables, refresh-history, graph-history, warehouse-metering,
// server-requests).
func (c *Client) Info(ctx context.Context, table string) (*ClientResult, error) {
	var body statementBody
	if err := c.do(ctx, http.MethodGet, "/v1/info/"+table, nil, &body); err != nil {
		return nil, err
	}
	return clientResultFrom(body.Result), nil
}

// SetRefreshMode pins or unpins a dynamic table's refresh mode remotely
// by issuing ALTER DYNAMIC TABLE ... SET REFRESH_MODE under the caller's
// role. mode is AUTO, FULL or INCREMENTAL.
func (c *Client) SetRefreshMode(ctx context.Context, dt, mode string) (*ClientResult, error) {
	var body statementBody
	if err := c.do(ctx, http.MethodPost, "/v1/dts/"+dt+"/refresh-mode", modeRequest{Mode: mode}, &body); err != nil {
		return nil, err
	}
	return clientResultFrom(body.Result), nil
}

// NewSession opens a remote session. role is honored only on open-access
// servers; token mode pins the role to the token's.
func (c *Client) NewSession(ctx context.Context, role string) (*RemoteSession, error) {
	var body sessionBody
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", createSessionRequest{Role: role}, &body); err != nil {
		return nil, err
	}
	return &RemoteSession{c: c, id: body.SessionID, role: body.Role}, nil
}

// RemoteSession is a session on a remote daemon. Like the engine's
// Session, it is not safe for concurrent use.
type RemoteSession struct {
	c    *Client
	id   string
	role string
}

// ID returns the server-assigned session id.
func (s *RemoteSession) ID() string { return s.id }

// Role returns the session's active role as of the last round-trip.
func (s *RemoteSession) Role() string { return s.role }

// ClientResult is a buffered statement result as decoded from the wire.
// Cell values are plain JSON decodings: json.Number for numerics, string
// for text/timestamps/intervals, bool, nil for NULL.
type ClientResult struct {
	// Kind labels the statement class (SELECT, CREATE, INSERT, ...).
	Kind string
	// Columns and Rows carry tabular output.
	Columns []string
	Rows    [][]any
	// RowsAffected counts rows written by DML.
	RowsAffected int
	// Message is the server's acknowledgement for DDL and commands.
	Message string
}

func clientResultFrom(body *resultBody) *ClientResult {
	if body == nil {
		return &ClientResult{}
	}
	return &ClientResult{
		Kind:         body.Kind,
		Columns:      body.Columns,
		Rows:         body.Rows,
		RowsAffected: body.RowsAffected,
		Message:      body.Message,
	}
}

// encodeCallArgs splits Go-level args (values and NamedArgs) into wire
// form.
func encodeCallArgs(args []any) ([]wireArg, error) {
	out := make([]wireArg, 0, len(args))
	for _, a := range args {
		name := ""
		v := a
		if na, ok := a.(NamedArg); ok {
			name, v = na.Name, na.Value
		}
		wa, err := encodeArg(v)
		if err != nil {
			return nil, err
		}
		wa.Name = name
		out = append(out, wa)
	}
	return out, nil
}

// Exec executes one statement with bind args, buffering the result.
func (s *RemoteSession) Exec(ctx context.Context, sql string, args ...any) (*ClientResult, error) {
	wargs, err := encodeCallArgs(args)
	if err != nil {
		return nil, err
	}
	var body statementBody
	err = s.c.do(ctx, http.MethodPost, "/v1/sessions/"+s.id+"/statements",
		statementRequest{SQL: sql, Args: wargs}, &body)
	if err != nil {
		return nil, err
	}
	return clientResultFrom(body.Result), nil
}

// ExecScript executes a multi-statement script, stopping at the first
// error.
func (s *RemoteSession) ExecScript(ctx context.Context, script string) ([]*ClientResult, error) {
	var body statementBody
	err := s.c.do(ctx, http.MethodPost, "/v1/sessions/"+s.id+"/statements",
		statementRequest{Script: script}, &body)
	if err != nil {
		return nil, err
	}
	out := make([]*ClientResult, len(body.Results))
	for i := range body.Results {
		out[i] = clientResultFrom(&body.Results[i])
	}
	return out, nil
}

// Query opens a server-side cursor for a SELECT and returns a paging
// iterator over it. The server pins a consistent snapshot until the
// cursor is exhausted, canceled with Close, or reaped idle.
func (s *RemoteSession) Query(ctx context.Context, sql string, args ...any) (*RemoteRows, error) {
	return s.query(ctx, 0, sql, args...)
}

// QueryPaged is Query with an explicit page size (rows per fetch).
func (s *RemoteSession) QueryPaged(ctx context.Context, pageSize int, sql string, args ...any) (*RemoteRows, error) {
	return s.query(ctx, pageSize, sql, args...)
}

func (s *RemoteSession) query(ctx context.Context, pageSize int, sql string, args ...any) (*RemoteRows, error) {
	wargs, err := encodeCallArgs(args)
	if err != nil {
		return nil, err
	}
	var body statementBody
	err = s.c.do(ctx, http.MethodPost, "/v1/sessions/"+s.id+"/statements",
		statementRequest{SQL: sql, Args: wargs, Cursor: true}, &body)
	if err != nil {
		return nil, err
	}
	return &RemoteRows{
		s:        s,
		ctx:      ctx,
		id:       body.StatementID,
		cols:     body.Columns,
		pageSize: pageSize,
	}, nil
}

// SetRole switches the session's active role (requires an ADMIN token in
// token mode).
func (s *RemoteSession) SetRole(ctx context.Context, role string) error {
	var body sessionBody
	if err := s.c.do(ctx, http.MethodPost, "/v1/sessions/"+s.id+"/role", roleRequest{Role: role}, &body); err != nil {
		return err
	}
	s.role = body.Role
	return nil
}

// Close closes the remote session, cancelling its open statements and
// releasing their cursors.
func (s *RemoteSession) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+s.id, nil, nil)
}

// RemoteRows iterates a server-side cursor page by page, mirroring the
// engine's Rows shape (Columns/Next/Row/Err/Close). Not safe for
// concurrent use.
type RemoteRows struct {
	s        *RemoteSession
	ctx      context.Context
	id       string
	cols     []string
	pageSize int

	buf    [][]any
	i      int
	after  int64
	done   bool
	closed bool
	err    error
}

// ID returns the server-assigned statement id.
func (r *RemoteRows) ID() string { return r.id }

// Columns returns the result column names.
func (r *RemoteRows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row, fetching pages from the server as
// needed; it reports false at exhaustion or error.
func (r *RemoteRows) Next() bool {
	if r.err != nil || r.closed {
		return false
	}
	if r.i < len(r.buf) {
		r.i++
		return true
	}
	if r.done {
		return false
	}
	path := fmt.Sprintf("/v1/statements/%s/rows?after=%d", r.id, r.after)
	if r.pageSize > 0 {
		path += "&limit=" + strconv.Itoa(r.pageSize)
	}
	var body rowsBody
	if err := r.s.c.do(r.ctx, http.MethodGet, path, nil, &body); err != nil {
		r.err = err
		return false
	}
	r.buf, r.i = body.Rows, 0
	r.after, r.done = body.After, body.Done
	if len(r.buf) == 0 {
		return false
	}
	r.i = 1
	return true
}

// Row returns the current row; valid until the next call to Next.
func (r *RemoteRows) Row() []any {
	if r.i == 0 || r.i > len(r.buf) {
		return nil
	}
	return r.buf[r.i-1]
}

// Err returns the terminal error, if any, once Next has returned false.
func (r *RemoteRows) Err() error { return r.err }

// Close cancels the statement server-side (DELETE), releasing the
// cursor and its pinned snapshot; idempotent.
func (r *RemoteRows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.s.c.do(ctx, http.MethodDelete, "/v1/statements/"+r.id, nil, nil)
	var pe *ProtocolError
	if errors.As(err, &pe) && (pe.Status == http.StatusNotFound || pe.Status == http.StatusGone) {
		// Already exhausted or reaped server-side.
		return nil
	}
	return err
}
