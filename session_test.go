package dyntables

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/txn"
)

// ---------------------------------------------------------------------------
// placeholder binding
// ---------------------------------------------------------------------------

func TestPositionalPlaceholders(t *testing.T) {
	e := New()
	s := e.NewSession()
	ctx := context.Background()
	s.MustExec(`CREATE TABLE t (a INT, b TEXT)`)

	if _, err := s.ExecContext(ctx, `INSERT INTO t VALUES (?, ?)`, 1, "one"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecContext(ctx, `INSERT INTO t VALUES (?, ?), (?, ?)`, 2, "two", 3, "three"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`SELECT a, b FROM t WHERE a > ? ORDER BY a`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Str() != "two" || res.Rows[1][1].Str() != "three" {
		t.Fatalf("unexpected rows: %v", res.Rows)
	}
}

func TestNamedPlaceholders(t *testing.T) {
	e := New()
	s := e.NewSession()
	ctx := context.Background()
	s.MustExec(`CREATE TABLE t (a INT, b TEXT)`)
	s.MustExec(`INSERT INTO t VALUES (1, 'one'), (2, 'two')`)

	res, err := s.ExecContext(ctx,
		`SELECT b FROM t WHERE a = :id AND b <> :other`,
		Named("id", 2), Named("other", "zzz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "two" {
		t.Fatalf("unexpected rows: %v", res.Rows)
	}
	// The same name may appear several times and binds once.
	res, err = s.ExecContext(ctx, `SELECT count(*) FROM t WHERE a = :v OR a = :v + 1`, Named("v", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("want 2, got %v", res.Rows[0][0])
	}
}

func TestPlaceholderArgErrors(t *testing.T) {
	e := New()
	s := e.NewSession()
	ctx := context.Background()
	s.MustExec(`CREATE TABLE t (a INT, b TEXT)`)

	cases := []struct {
		name string
		sql  string
		args []any
		want string
	}{
		{"missing positional", `SELECT * FROM t WHERE a = ?`, nil, "1 positional placeholders, got 0"},
		{"extra positional", `SELECT * FROM t WHERE a = ?`, []any{1, 2}, "1 positional placeholders, got 2"},
		{"args without placeholders", `SELECT * FROM t`, []any{1}, "no placeholders"},
		{"missing named", `SELECT * FROM t WHERE a = :id`, nil, "no value bound for placeholder :id"},
		{"unknown named", `SELECT * FROM t WHERE a = :id`,
			[]any{Named("id", 1), Named("bogus", 2)}, ":bogus matches no placeholder"},
		{"positional args for named stmt", `SELECT * FROM t WHERE a = :id`, []any{1}, "bind with dyntables.Named"},
		{"named args for positional stmt", `SELECT * FROM t WHERE a = ?`,
			[]any{Named("a", 1)}, "bind plain arguments"},
		{"mixed placeholders", `SELECT * FROM t WHERE a = ? AND b = :b`,
			[]any{1, Named("b", "x")}, "mixes positional"},
		{"mixed arg styles", `SELECT * FROM t WHERE a = ? AND a = ?`,
			[]any{1, Named("b", "x")}, "cannot mix positional and named arguments"},
		{"unsupported type", `SELECT * FROM t WHERE a = ?`,
			[]any{struct{ X int }{1}}, "unsupported argument type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.ExecContext(ctx, tc.sql, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestPlaceholderTypeMismatch(t *testing.T) {
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE TABLE t (a INT)`)
	_, err := s.Exec(`INSERT INTO t VALUES (?)`, "not-a-number")
	if err == nil || !strings.Contains(err.Error(), "cannot cast") {
		t.Fatalf("want cast error, got %v", err)
	}
}

func TestPlaceholdersRejectedInStoredQueries(t *testing.T) {
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE TABLE t (a INT)`)
	s.MustExec(`CREATE WAREHOUSE wh`)
	for _, stmt := range []string{
		`CREATE VIEW v AS SELECT a FROM t WHERE a > ?`,
		`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
		 AS SELECT a FROM t WHERE a > :min`,
	} {
		if _, err := s.Exec(stmt); err == nil ||
			!strings.Contains(err.Error(), "stored defining queries") {
			t.Fatalf("want stored-query placeholder rejection for %q, got %v", stmt, err)
		}
	}
}

// ---------------------------------------------------------------------------
// prepared statements
// ---------------------------------------------------------------------------

func TestPreparedStatements(t *testing.T) {
	e := New()
	s := e.NewSession()
	ctx := context.Background()
	s.MustExec(`CREATE TABLE t (a INT, b TEXT)`)

	ins, err := s.Prepare(`INSERT INTO t VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ins.ExecContext(ctx, i, fmt.Sprintf("row-%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	q, err := s.Prepare(`SELECT a, b FROM t WHERE a >= :lo AND a < :hi ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := q.QueryContext(ctx, Named("lo", 3), Named("hi", 5))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		var a int64
		var b string
		if err := rows.Scan(&a, &b); err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
	rows.Close()
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "row-3" || got[1] != "row-4" {
		t.Fatalf("unexpected rows: %v", got)
	}

	// Re-execution with different arguments reuses the parse.
	res, err := q.sess.Query(`SELECT count(*) FROM t`)
	if err != nil || res.Rows[0][0].Int() != 10 {
		t.Fatalf("count: %v %v", res, err)
	}
	if _, err := ins.Exec(1); err == nil {
		t.Fatal("want arg-count error on prepared exec")
	}

	// Prepared statements survive DDL on unrelated objects.
	s.MustExec(`CREATE TABLE other (x INT)`)
	if _, err := ins.Exec(99, "after-ddl"); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// streaming cursor
// ---------------------------------------------------------------------------

func TestRowsCursorStreaming(t *testing.T) {
	e := New()
	s := e.NewSession()
	ctx := context.Background()
	s.MustExec(`CREATE TABLE t (a INT)`)
	ins, _ := s.Prepare(`INSERT INTO t VALUES (?)`)
	for i := 0; i < 100; i++ {
		ins.MustExecArgs(t, i)
	}

	rows, err := s.QueryContext(ctx, `SELECT a FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if e.OpenCursors() != 1 {
		t.Fatalf("want 1 open cursor, got %d", e.OpenCursors())
	}
	if cols := rows.Columns(); len(cols) != 1 || cols[0] != "a" {
		t.Fatalf("columns: %v", cols)
	}
	n := 0
	for rows.Next() {
		var a int64
		if err := rows.Scan(&a); err != nil {
			t.Fatal(err)
		}
		if a != int64(n) {
			t.Fatalf("row %d: got %d", n, a)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("want 100 rows, got %d", n)
	}
	rows.Close()
	rows.Close() // idempotent
	if e.OpenCursors() != 0 {
		t.Fatalf("cursor not released: %d", e.OpenCursors())
	}
}

// MustExecArgs is a test helper for prepared inserts.
func (st *Stmt) MustExecArgs(t *testing.T, args ...any) {
	t.Helper()
	if _, err := st.Exec(args...); err != nil {
		t.Fatal(err)
	}
}

func TestRowsCursorCancellation(t *testing.T) {
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE TABLE t (a INT)`)
	ins, _ := s.Prepare(`INSERT INTO t VALUES (?)`)
	for i := 0; i < 500; i++ {
		ins.MustExecArgs(t, i)
	}

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := s.QueryContext(ctx, `SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("want row %d, got end of stream (err=%v)", i, rows.Err())
		}
	}
	cancel()
	if rows.Next() {
		t.Fatal("Next succeeded after cancellation")
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", rows.Err())
	}
	// Abandoning the cursor mid-iteration released its resources without
	// an explicit Close.
	if e.OpenCursors() != 0 {
		t.Fatalf("canceled cursor not released: %d open", e.OpenCursors())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRowsSeqAdapter(t *testing.T) {
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE TABLE t (a INT)`)
	s.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)

	rows, err := s.QueryContext(context.Background(), `SELECT a FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for row, err := range rows.Seq() {
		if err != nil {
			t.Fatal(err)
		}
		sum += row[0].Int()
	}
	if sum != 6 {
		t.Fatalf("want 6, got %d", sum)
	}
	if e.OpenCursors() != 0 {
		t.Fatalf("Seq did not release the cursor: %d open", e.OpenCursors())
	}

	// Breaking out of the loop early also releases the cursor.
	rows, err = s.QueryContext(context.Background(), `SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	for range rows.Seq() {
		break
	}
	if e.OpenCursors() != 0 {
		t.Fatalf("early break did not release the cursor: %d open", e.OpenCursors())
	}
}

// ---------------------------------------------------------------------------
// roles
// ---------------------------------------------------------------------------

func TestSessionRoles(t *testing.T) {
	e := New()
	admin := e.NewSession()
	admin.MustExec(`CREATE TABLE t (a INT)`)
	admin.MustExec(`INSERT INTO t VALUES (1)`)

	restricted := e.NewSession()
	restricted.SetRole("ANALYST")
	if _, err := restricted.Query(`SELECT * FROM t`); err == nil ||
		!strings.Contains(err.Error(), `role "ANALYST" lacks SELECT`) {
		t.Fatalf("want privilege error, got %v", err)
	}
	// The admin session is unaffected by the other session's role.
	if _, err := admin.Query(`SELECT * FROM t`); err != nil {
		t.Fatal(err)
	}
	if restricted.Role() != "ANALYST" {
		t.Fatalf("session role: %s", restricted.Role())
	}

	// Switching back restores the privileges.
	restricted.SetRole("ADMIN")
	if _, err := restricted.Query(`SELECT * FROM t`); err != nil {
		t.Fatalf("SELECT after switching back to ADMIN: %v", err)
	}
}

// ---------------------------------------------------------------------------
// concurrency
// ---------------------------------------------------------------------------

// TestConcurrentSessions drives N sessions issuing mixed DDL, DML, SELECT
// and refresh traffic in parallel; run under -race it checks the engine's
// concurrent-session guarantees end to end.
func TestConcurrentSessions(t *testing.T) {
	const sessions = 12
	const ops = 25

	e := New()
	boot := e.NewSession()
	boot.MustExec(`CREATE WAREHOUSE wh`)
	boot.MustExec(`CREATE TABLE shared (id INT, sess INT, amount INT)`)
	boot.MustExec(`CREATE DYNAMIC TABLE shared_totals TARGET_LAG = '1 minute' WAREHOUSE = wh
	               AS SELECT sess, count(*) c, sum(amount) total FROM shared GROUP BY sess`)

	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := e.NewSession()
			ctx := context.Background()
			own := fmt.Sprintf("own_%d", id)
			// Per-session DDL exercises the writer path of the
			// statement lock.
			if _, err := s.ExecContext(ctx, fmt.Sprintf(`CREATE TABLE %s (v INT)`, own)); err != nil {
				errCh <- err
				return
			}
			ins, err := s.Prepare(`INSERT INTO shared VALUES (?, ?, ?)`)
			if err != nil {
				errCh <- err
				return
			}
			for op := 0; op < ops; op++ {
				switch op % 5 {
				case 0: // DML on the shared table
					if _, err := ins.ExecContext(ctx, op, id, op%11); err != nil {
						errCh <- fmt.Errorf("session %d insert: %w", id, err)
						return
					}
				case 1: // DML on the private table
					if _, err := s.ExecContext(ctx, fmt.Sprintf(`INSERT INTO %s VALUES (?)`, own), op); err != nil {
						errCh <- err
						return
					}
				case 2: // streaming SELECT over the shared table
					rows, err := s.QueryContext(ctx, `SELECT sess, count(*) FROM shared GROUP BY sess`)
					if err != nil {
						errCh <- err
						return
					}
					for rows.Next() {
					}
					rows.Close()
					if err := rows.Err(); err != nil {
						errCh <- err
						return
					}
				case 3: // manual refresh; overlaps and conflicts are expected
					if err := s.ManualRefreshContext(ctx, "shared_totals"); err != nil &&
						!errors.Is(err, core.ErrSkipped) && !errors.Is(err, txn.ErrConflict) {
						errCh <- fmt.Errorf("session %d refresh: %w", id, err)
						return
					}
				case 4: // scheduler pass over advancing virtual time
					e.AdvanceTime(10 * time.Second)
					if err := e.RunScheduler(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The engine is consistent afterwards: every insert is visible and
	// the DT still upholds delayed view semantics after a final refresh.
	res, err := boot.Query(`SELECT count(*) FROM shared`)
	if err != nil {
		t.Fatal(err)
	}
	wantShared := int64(sessions * ((ops + 4) / 5))
	if got := res.Rows[0][0].Int(); got != wantShared {
		t.Fatalf("shared rows: want %d, got %d", wantShared, got)
	}
	if err := boot.ManualRefresh("shared_totals"); err != nil &&
		!errors.Is(err, core.ErrSkipped) {
		t.Fatal(err)
	}
	if err := e.CheckDVS("shared_totals"); err != nil {
		t.Fatal(err)
	}
	if e.OpenCursors() != 0 {
		t.Fatalf("cursor leak: %d open", e.OpenCursors())
	}
}

// TestConcurrentSessionRoleIsolation checks that role changes in one
// session never leak into statements running concurrently in another.
func TestConcurrentSessionRoleIsolation(t *testing.T) {
	e := New()
	admin := e.NewSession()
	admin.MustExec(`CREATE TABLE t (a INT)`)
	admin.MustExec(`INSERT INTO t VALUES (1)`)

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		s := e.NewSession() // stays ADMIN
		for i := 0; i < 200; i++ {
			if _, err := s.Query(`SELECT * FROM t`); err != nil {
				errCh <- fmt.Errorf("admin session lost access: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		s := e.NewSession()
		for i := 0; i < 200; i++ {
			s.SetRole("NOBODY")
			if _, err := s.Query(`SELECT * FROM t`); err == nil {
				errCh <- fmt.Errorf("restricted session gained access")
				return
			}
			s.SetRole("ADMIN")
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestStmtCloseInvalidation covers the prepared-statement lifecycle: a
// closed Stmt refuses execution, closing a session invalidates every
// statement prepared on it, and closing the engine invalidates every
// session's statements.
func TestStmtCloseInvalidation(t *testing.T) {
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE TABLE t (id INT)`)

	// Stmt.Close is no longer a silent no-op.
	st, err := s.Prepare(`INSERT INTO t VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Stmt.Close is not idempotent: %v", err)
	}
	if _, err := st.Exec(2); err == nil {
		t.Fatal("Exec on a closed statement should fail")
	}

	// Session.Close invalidates statements prepared on the session.
	s2 := e.NewSession()
	stExec, err := s2.Prepare(`INSERT INTO t VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	stQuery, err := s2.Prepare(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stExec.Exec(3); err == nil {
		t.Fatal("Exec should fail after session close")
	}
	if _, err := stQuery.QueryContext(context.Background()); err == nil {
		t.Fatal("Query should fail after session close")
	}
	if _, err := s2.Prepare(`SELECT 1 FROM t`); err == nil {
		t.Fatal("Prepare should fail on a closed session")
	}
	if _, err := s2.Exec(`INSERT INTO t VALUES (4)`); err == nil {
		t.Fatal("Exec should fail on a closed session")
	}

	// Engine.Close invalidates statements across all sessions.
	s3 := e.NewSession()
	st3, err := s3.Prepare(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st3.QueryContext(context.Background()); err == nil {
		t.Fatal("statement should be invalidated by engine close")
	}
}
