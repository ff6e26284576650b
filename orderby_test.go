package dyntables

import (
	"strings"
	"testing"
)

// expectOrdered runs query and compares its rows, in order, with want.
func expectOrdered(t *testing.T, e *Engine, query string, want ...string) {
	t.Helper()
	res, err := e.Query(query)
	if err != nil {
		t.Fatalf("query %q: %v", query, err)
	}
	var got []string
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		got = append(got, "["+strings.Join(parts, " ")+"]")
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("query %q:\ngot  %v\nwant %v", query, got, want)
	}
}

// TestOrderByQualifiedName orders by a qualified column when two joined
// tables each give the output a column of that name: the name resolves
// to the select item that is that column, or, when no item is, to a
// hidden sort column bound in the FROM scope.
func TestOrderByQualifiedName(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE t (g INT, x INT)`)
	e.MustExec(`CREATE TABLE u (g INT, y INT)`)
	e.MustExec(`INSERT INTO t VALUES (2, 20), (1, 10), (3, 30)`)
	e.MustExec(`INSERT INTO u VALUES (3, 300), (2, 200), (4, 400)`)
	expectOrdered(t, e, `SELECT a.g, b.g FROM t a LEFT JOIN u b ON a.g = b.g ORDER BY a.g`,
		"[1 NULL]", "[2 2]", "[3 3]")
	expectOrdered(t, e, `SELECT a.g, b.g FROM t a FULL JOIN u b ON a.g = b.g ORDER BY b.g DESC, a.g`,
		"[NULL 4]", "[3 3]", "[2 2]", "[1 NULL]")
	expectOrdered(t, e, `SELECT a.g AS left_g, b.g FROM t a JOIN u b ON a.g = b.g ORDER BY a.g DESC`,
		"[3 3]", "[2 2]")
	// b.y is no select item: a hidden sort column.
	expectOrdered(t, e, `SELECT a.x, b.g FROM t a JOIN u b ON a.g = b.g ORDER BY b.y DESC`,
		"[30 3]", "[20 2]")
	expectOrdered(t, e, `SELECT DISTINCT a.g FROM t a ORDER BY a.g DESC`, "[3]", "[2]", "[1]")
}

// TestOrderByNullsFirstLast places NULLs by NULLS FIRST|LAST, and by
// default sorts NULL lowest: first ascending and last descending.
func TestOrderByNullsFirstLast(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE n (id INT, v INT)`)
	e.MustExec(`INSERT INTO n VALUES (1, 2), (2, NULL), (3, 1), (4, NULL)`)
	for _, c := range []struct {
		order string
		want  []string
	}{
		{"v, id", []string{"[2 NULL]", "[4 NULL]", "[3 1]", "[1 2]"}},
		{"v DESC, id", []string{"[1 2]", "[3 1]", "[2 NULL]", "[4 NULL]"}},
		{"v NULLS FIRST, id", []string{"[2 NULL]", "[4 NULL]", "[3 1]", "[1 2]"}},
		{"v ASC NULLS LAST, id", []string{"[3 1]", "[1 2]", "[2 NULL]", "[4 NULL]"}},
		{"v DESC NULLS FIRST, id DESC", []string{"[4 NULL]", "[2 NULL]", "[1 2]", "[3 1]"}},
		{"v desc nulls last, id", []string{"[1 2]", "[3 1]", "[2 NULL]", "[4 NULL]"}},
		{"2 NULLS LAST, 1", []string{"[3 1]", "[1 2]", "[2 NULL]", "[4 NULL]"}},
	} {
		expectOrdered(t, e, `SELECT id, v FROM n ORDER BY `+c.order, c.want...)
	}
	// A hidden sort column takes NULLS LAST too.
	expectOrdered(t, e, `SELECT id FROM n ORDER BY v NULLS LAST, id DESC`, "[3]", "[1]", "[4]", "[2]")
	for _, q := range []string{
		`SELECT id FROM n ORDER BY v NULLS`,
		`SELECT id FROM n ORDER BY v NULLS MIDDLE`,
		`SELECT id, row_number() OVER (PARTITION BY id ORDER BY v NULLS FIRST) FROM n`,
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("query %q: want an error", q)
		}
	}
}
