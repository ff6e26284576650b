// Package server_test exercises the HTTP cursor protocol end to end
// against a real engine: the server side runs over the root package's
// backend adapter, the client side is the package's own Go client, so
// every test crosses the full wire path.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dyntables"
	"dyntables/internal/server"
)

// newTestServer stands up an engine, the protocol server over it, and an
// httptest listener. The returned engine is seeded with a warehouse.
func newTestServer(t *testing.T, tokens map[string]string, idle time.Duration) (*dyntables.Engine, *server.Server, *httptest.Server) {
	t.Helper()
	eng := dyntables.New()
	eng.MustExec(`CREATE WAREHOUSE wh`)
	srv := server.New(server.Config{
		Backend:     dyntables.NewServerBackend(eng),
		Tokens:      tokens,
		IdleTimeout: idle,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown()
		ts.Close()
	})
	return eng, srv, ts
}

func mustSession(t *testing.T, c *server.Client, role string) *server.RemoteSession {
	t.Helper()
	sess, err := c.NewSession(context.Background(), role)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	return sess
}

func TestEndToEndProtocol(t *testing.T) {
	eng, _, ts := newTestServer(t, nil, -1)
	ctx := context.Background()
	cli := server.NewClient(ts.URL, "")
	sess := mustSession(t, cli, "")

	results, err := sess.ExecScript(ctx, `
		CREATE TABLE src (a INT, b INT);
		INSERT INTO src VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);
		CREATE DYNAMIC TABLE d TARGET_LAG = '2 minutes' WAREHOUSE = wh
			AS SELECT a, b FROM src WHERE b >= 20;
	`)
	if err != nil {
		t.Fatalf("ExecScript: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[1].RowsAffected != 5 {
		t.Errorf("insert affected %d rows, want 5", results[1].RowsAffected)
	}

	if err := cli.Advance(ctx, 2*time.Minute); err != nil {
		t.Fatalf("Advance: %v", err)
	}

	// Streaming cursor with a page size smaller than the result.
	rows, err := sess.QueryPaged(ctx, 2, `SELECT a, b FROM src ORDER BY a`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got := rows.Columns(); len(got) != 2 || got[0] != "a" {
		t.Errorf("columns = %v", got)
	}
	var as []string
	for rows.Next() {
		as = append(as, fmt.Sprint(rows.Row()[0]))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if strings.Join(as, ",") != "1,2,3,4,5" {
		t.Errorf("cursor rows = %v", as)
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if n := eng.OpenCursors(); n != 0 {
		t.Errorf("OpenCursors = %d after exhausted cursor", n)
	}

	// Positional and named bind args.
	res, err := sess.Exec(ctx, `SELECT b FROM src WHERE a = ?`, int64(2))
	if err != nil {
		t.Fatalf("positional arg: %v", err)
	}
	if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0][0]) != "20" {
		t.Errorf("positional result = %+v", res.Rows)
	}
	res, err = sess.Exec(ctx, `SELECT b FROM src WHERE a = :x`, server.Named("x", 3))
	if err != nil {
		t.Fatalf("named arg: %v", err)
	}
	if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0][0]) != "30" {
		t.Errorf("named result = %+v", res.Rows)
	}

	// Info endpoints read the virtual tables.
	info, err := cli.Info(ctx, "dynamic-tables")
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if len(info.Rows) != 1 || fmt.Sprint(info.Rows[0][0]) != "d" {
		t.Errorf("info rows = %+v", info.Rows)
	}
	if _, err := cli.Info(ctx, "no-such-table"); err == nil {
		t.Error("unknown info table should fail")
	}

	// Remote refresh-mode override issues the ALTER and reports back.
	mod, err := cli.SetRefreshMode(ctx, "d", "full")
	if err != nil {
		t.Fatalf("SetRefreshMode: %v", err)
	}
	if !strings.Contains(mod.Message, "REFRESH_MODE = FULL") {
		t.Errorf("override message = %q", mod.Message)
	}
	if _, err := cli.SetRefreshMode(ctx, "d", "SOMETIMES"); err == nil {
		t.Error("bad mode should fail")
	}
	if _, err := cli.SetRefreshMode(ctx, "d; DROP TABLE src", "FULL"); err == nil {
		t.Error("bad identifier should fail")
	}

	// The server's own requests are queryable through plain SQL.
	res, err = sess.Exec(ctx, `SELECT endpoint, status FROM INFORMATION_SCHEMA.SERVER_REQUEST_HISTORY WHERE endpoint = 'POST /v1/sessions'`)
	if err != nil {
		t.Fatalf("request history: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Error("no request-history rows for POST /v1/sessions")
	}

	st, err := cli.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Sessions != 1 || st.Draining {
		t.Errorf("status = %+v", st)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}

	if _, err := sess.Exec(ctx, `SELECT 1`); err == nil {
		t.Error("closed session should reject statements")
	}
}

// postJSON is a raw-protocol helper for tests that need direct control
// over the wire (retry/conflict paging).
func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	_ = dec.Decode(&out)
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	_ = dec.Decode(&out)
	return resp, out
}

func TestCursorPagingRetryAndConflict(t *testing.T) {
	_, _, ts := newTestServer(t, nil, -1)
	cli := server.NewClient(ts.URL, "")
	sess := mustSession(t, cli, "")
	if _, err := sess.ExecScript(context.Background(), `
		CREATE TABLE n (v INT);
		INSERT INTO n VALUES (1), (2), (3), (4), (5);
	`); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+sess.ID()+"/statements",
		map[string]any{"sql": "SELECT v FROM n ORDER BY v", "cursor": true})
	if resp.StatusCode != 200 {
		t.Fatalf("create statement: http %d %v", resp.StatusCode, body)
	}
	stID := body["statement_id"].(string)

	fetch := func(after, limit int) (*http.Response, map[string]any) {
		return getJSON(t, fmt.Sprintf("%s/v1/statements/%s/rows?after=%d&limit=%d", ts.URL, stID, after, limit))
	}
	resp, page1 := fetch(0, 2)
	if resp.StatusCode != 200 || fmt.Sprint(page1["after"]) != "2" {
		t.Fatalf("page1: http %d %v", resp.StatusCode, page1)
	}
	// Idempotent retry of the same page returns identical rows.
	resp, retry := fetch(0, 2)
	if resp.StatusCode != 200 || fmt.Sprint(retry["rows"]) != fmt.Sprint(page1["rows"]) {
		t.Fatalf("retry: http %d %v vs %v", resp.StatusCode, retry, page1)
	}
	// A gap is a conflict: the cursor cannot rewind further than one page.
	resp, body = fetch(4, 2)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("gap fetch: http %d %v, want 409", resp.StatusCode, body)
	}
	// Drain the rest; the final page reports done.
	resp, page2 := fetch(2, 10)
	if resp.StatusCode != 200 || page2["done"] != true {
		t.Fatalf("page2: http %d %v", resp.StatusCode, page2)
	}
	if rows := page2["rows"].([]any); len(rows) != 3 {
		t.Fatalf("page2 rows = %v", rows)
	}
	// Fetching past the end keeps answering done with no rows.
	resp, tail := fetch(5, 10)
	if resp.StatusCode != 200 || tail["done"] != true {
		t.Fatalf("tail: http %d %v", resp.StatusCode, tail)
	}
}

// TestCancellationReleasesCursors is the disconnect-propagation
// coverage: canceling a statement (DELETE), closing its session, or
// shutting the server down must close the engine cursor and release its
// pinned snapshot — OpenCursors is the leak detector.
func TestCancellationReleasesCursors(t *testing.T) {
	eng, srv, ts := newTestServer(t, nil, -1)
	ctx := context.Background()
	cli := server.NewClient(ts.URL, "")
	sess := mustSession(t, cli, "")

	var ins strings.Builder
	ins.WriteString(`INSERT INTO big VALUES (0)`)
	for i := 1; i < 500; i++ {
		fmt.Fprintf(&ins, ", (%d)", i)
	}
	if _, err := sess.ExecScript(ctx, "CREATE TABLE big (v INT);\n"+ins.String()+";"); err != nil {
		t.Fatal(err)
	}

	// DELETE on the statement mid-iteration.
	rows, err := sess.QueryPaged(ctx, 10, `SELECT v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && rows.Next(); i++ {
	}
	if n := eng.OpenCursors(); n != 1 {
		t.Fatalf("OpenCursors = %d with one open statement", n)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("statement cancel: %v", err)
	}
	if n := eng.OpenCursors(); n != 0 {
		t.Errorf("OpenCursors = %d after DELETE, want 0", n)
	}
	// The canceled statement is gone: further fetches fail.
	resp, _ := getJSON(t, fmt.Sprintf("%s/v1/statements/%s/rows?after=10", ts.URL, rows.ID()))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("fetch after cancel: http %d, want 404", resp.StatusCode)
	}

	// Session close cascades to all open statements.
	r1, err := sess.QueryPaged(ctx, 10, `SELECT v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sess.QueryPaged(ctx, 10, `SELECT v FROM big WHERE v > 100`)
	if err != nil {
		t.Fatal(err)
	}
	r1.Next()
	r2.Next()
	if n := eng.OpenCursors(); n != 2 {
		t.Fatalf("OpenCursors = %d with two open statements", n)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if n := eng.OpenCursors(); n != 0 {
		t.Errorf("OpenCursors = %d after session close, want 0", n)
	}

	// Server shutdown releases whatever is still open.
	sess2 := mustSession(t, cli, "")
	r3, err := sess2.QueryPaged(ctx, 10, `SELECT v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	r3.Next()
	if n := eng.OpenCursors(); n != 1 {
		t.Fatalf("OpenCursors = %d before shutdown", n)
	}
	srv.Shutdown()
	if n := eng.OpenCursors(); n != 0 {
		t.Errorf("OpenCursors = %d after shutdown, want 0", n)
	}
}

func TestIdleReaperReleasesAbandonedCursors(t *testing.T) {
	eng, _, ts := newTestServer(t, nil, 100*time.Millisecond)
	ctx := context.Background()
	cli := server.NewClient(ts.URL, "")
	sess := mustSession(t, cli, "")
	if _, err := sess.ExecScript(ctx, `
		CREATE TABLE n (v INT);
		INSERT INTO n VALUES (1), (2), (3);
	`); err != nil {
		t.Fatal(err)
	}
	rows, err := sess.QueryPaged(ctx, 1, `SELECT v FROM n`)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	if n := eng.OpenCursors(); n != 1 {
		t.Fatalf("OpenCursors = %d", n)
	}
	// Abandon the cursor and the session; the reaper (ticking at 1s)
	// must release both.
	deadline := time.Now().Add(10 * time.Second)
	for eng.OpenCursors() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle reaper never released the abandoned cursor")
		}
		time.Sleep(50 * time.Millisecond)
	}
	st, err := cli.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 0 || st.Statements != 0 {
		t.Errorf("status after reap = %+v", st)
	}
}

func TestTokenAuthAndRoles(t *testing.T) {
	_, _, ts := newTestServer(t, map[string]string{
		"admintok": "ADMIN",
		"rdtok":    "analyst",
	}, -1)
	ctx := context.Background()

	// Unauthenticated: status is open, everything else is 401.
	open := server.NewClient(ts.URL, "")
	if _, err := open.Status(ctx); err != nil {
		t.Fatalf("status should be unauthenticated: %v", err)
	}
	_, err := open.NewSession(ctx, "")
	var pe *server.ProtocolError
	if !errors.As(err, &pe) || pe.Status != http.StatusUnauthorized {
		t.Fatalf("tokenless session create: %v", err)
	}
	bad := server.NewClient(ts.URL, "wrong")
	if _, err := bad.NewSession(ctx, ""); !errors.As(err, &pe) || pe.Status != http.StatusUnauthorized {
		t.Fatalf("bad-token session create: %v", err)
	}

	admin := server.NewClient(ts.URL, "admintok")
	adminSess := mustSession(t, admin, "")
	if adminSess.Role() != "ADMIN" {
		t.Errorf("admin role = %q", adminSess.Role())
	}
	if _, err := adminSess.ExecScript(ctx, `
		CREATE TABLE t (v INT);
		INSERT INTO t VALUES (1);
	`); err != nil {
		t.Fatal(err)
	}

	reader := server.NewClient(ts.URL, "rdtok")
	readerSess := mustSession(t, reader, "SHOULD_BE_IGNORED")
	if readerSess.Role() != "analyst" {
		t.Errorf("reader role = %q, want token-pinned analyst", readerSess.Role())
	}
	// Privileges flow through: the analyst has no SELECT on the
	// admin-owned table.
	if _, err := readerSess.Exec(ctx, `SELECT v FROM t`); !errors.As(err, &pe) || pe.Status != http.StatusForbidden {
		t.Fatalf("analyst select: %v, want 403", err)
	}
	// Sessions are token-scoped.
	if _, err := reader.NewSession(ctx, ""); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/sessions/"+adminSess.ID()+"/statements", map[string]any{"sql": "SELECT 1"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("tokenless statement on admin session: http %d, want 401", resp.StatusCode)
	}
	if err := readerSess.SetRole(ctx, "ADMIN"); !errors.As(err, &pe) || pe.Status != http.StatusForbidden {
		t.Fatalf("analyst role switch: %v, want 403", err)
	}
	if err := reader.Advance(ctx, time.Minute); !errors.As(err, &pe) || pe.Status != http.StatusForbidden {
		t.Fatalf("analyst advance: %v, want 403", err)
	}
	if err := admin.Advance(ctx, time.Minute); err != nil {
		t.Fatalf("admin advance: %v", err)
	}
	if err := adminSess.SetRole(ctx, "ops"); err != nil {
		t.Fatalf("admin role switch: %v", err)
	}
	if adminSess.Role() != "OPS" {
		t.Errorf("switched role = %q", adminSess.Role())
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	eng, srv, ts := newTestServer(t, nil, -1)
	ctx := context.Background()
	cli := server.NewClient(ts.URL, "")
	sess := mustSession(t, cli, "")

	srv.Drain()
	var pe *server.ProtocolError
	if _, err := cli.NewSession(ctx, ""); !errors.As(err, &pe) || pe.Status != http.StatusServiceUnavailable {
		t.Fatalf("session create while draining: %v, want 503", err)
	}
	if _, err := sess.Exec(ctx, `SELECT 1`); !errors.As(err, &pe) || pe.Status != http.StatusServiceUnavailable {
		t.Fatalf("statement while draining: %v, want 503", err)
	}
	st, err := cli.Status(ctx)
	if err != nil {
		t.Fatalf("status while draining: %v", err)
	}
	if !st.Draining {
		t.Error("status does not report draining")
	}
	// The rejected requests are recorded under their route, not their path.
	res, err := eng.Query(`SELECT status FROM INFORMATION_SCHEMA.SERVER_REQUEST_HISTORY WHERE endpoint = 'POST /v1/sessions'`)
	if err != nil {
		t.Fatal(err)
	}
	var sawDrained bool
	for _, r := range res.Rows {
		sawDrained = sawDrained || r[0].Int() == http.StatusServiceUnavailable
	}
	if !sawDrained {
		t.Errorf("SERVER_REQUEST_HISTORY for POST /v1/sessions = %v, want a 503", res.Rows)
	}
}

// TestPprofAdminGate checks the profiling endpoints honor the admin
// gate: token-mode daemons demand an ADMIN bearer token, while
// open-access daemons serve everyone.
func TestPprofAdminGate(t *testing.T) {
	_, _, ts := newTestServer(t, map[string]string{
		"admintok": "ADMIN",
		"rdtok":    "analyst",
	}, -1)

	get := func(token string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/debug/pprof/", nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(""); code != http.StatusUnauthorized {
		t.Errorf("tokenless pprof: http %d, want 401", code)
	}
	if code := get("rdtok"); code != http.StatusForbidden {
		t.Errorf("non-admin pprof: http %d, want 403", code)
	}
	if code := get("admintok"); code != http.StatusOK {
		t.Errorf("admin pprof: http %d, want 200", code)
	}

	_, _, open := newTestServer(t, nil, -1)
	req, err := http.NewRequest(http.MethodGet, open.URL+"/debug/pprof/", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("open-access pprof: http %d, want 200", resp.StatusCode)
	}
}

// TestUnencodableValue runs results holding +Inf, which JSON has no form
// for: a buffered statement and a script answer the unencodable_value
// error naming the column, and a cursor whose next page holds one closes
// with that error, releasing its cursor.
func TestUnencodableValue(t *testing.T) {
	eng, _, ts := newTestServer(t, nil, -1)
	ctx := context.Background()
	cli := server.NewClient(ts.URL, "")
	sess := mustSession(t, cli, "")
	wantUnencodable := func(what string, err error, col string) {
		t.Helper()
		var pe *server.ProtocolError
		if !errors.As(err, &pe) || pe.Code != "unencodable_value" || !strings.Contains(pe.Message, `"`+col+`"`) {
			t.Fatalf("%s: %v, want an unencodable_value error naming column %s", what, err, col)
		}
	}

	_, err := sess.Exec(ctx, `SELECT 1e308 * 10.0 AS big`)
	wantUnencodable("Exec", err, "big")
	_, err = sess.ExecScript(ctx, `SELECT 1 AS one; SELECT -1e308 * 10.0 AS small`)
	wantUnencodable("ExecScript", err, "small")
	// The session still works.
	if res, err := sess.Exec(ctx, `SELECT 1e308 AS big`); err != nil || len(res.Rows) != 1 {
		t.Fatalf("finite float after the error: %v, %v", res, err)
	}

	if _, err := sess.ExecScript(ctx, `
		CREATE TABLE f (a INT, x FLOAT);
		INSERT INTO f VALUES (1, 1.0), (2, 2.0), (3, 1e308), (4, 4.0);
	`); err != nil {
		t.Fatal(err)
	}
	rows, err := sess.QueryPaged(ctx, 2, `SELECT a, x * 10.0 AS y FROM f ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if n != 2 {
		t.Errorf("cursor served %d rows before the unencodable page, want 2", n)
	}
	wantUnencodable("cursor", rows.Err(), "y")
	if got := eng.OpenCursors(); got != 0 {
		t.Errorf("OpenCursors = %d after the failed page, want 0", got)
	}
	// The statement is closed: a retry of the failed page is gone, not a
	// page that skips the rows the cursor moved past.
	resp, _ := getJSON(t, fmt.Sprintf("%s/v1/statements/%s/rows?after=2&limit=2", ts.URL, rows.ID()))
	if resp.StatusCode != http.StatusGone {
		t.Errorf("fetch after the failed page: http %d, want 410", resp.StatusCode)
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
