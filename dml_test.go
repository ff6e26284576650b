package dyntables

import (
	"fmt"
	"sort"
	"testing"

	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// dmlFixture is a table whose rows exercise typed and NULL values in
// every column: id 0..11, s cycles through strings and NULL, v through
// small integers and NULL.
func dmlFixture(t *testing.T) (*Engine, *Session) {
	t.Helper()
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE TABLE t (id INT, s STRING, v INT)`)
	strs := []string{"'ab'", "'abc'", "NULL", "'x'", "'AB'", "'b'"}
	for id := 0; id < 12; id++ {
		v := fmt.Sprint(id % 7)
		if id%5 == 4 {
			v = "NULL"
		}
		s.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %s, %s)`, id, strs[id%len(strs)], v))
	}
	return e, s
}

// dumpRows renders a table's latest contents by row ID.
func dumpRows(t *testing.T, e *Engine, name string) map[string]string {
	t.Helper()
	_, tbl, err := e.baseTable(name)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tbl.Rows(int64(tbl.VersionCount()))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(rows))
	for id, r := range rows {
		out[id] = r.Key()
	}
	return out
}

// rowAtATime is the reference: the statement's WHERE and SET evaluated
// one stored row at a time with the scalar evaluator, the way DML ran
// before it moved to the columnar path. It returns the contents the
// statement must leave and the number of rows it must report.
func rowAtATime(t *testing.T, e *Engine, text string, args []types.Value) (map[string]string, int, error) {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	var where sql.Expr
	var set []sql.Assignment
	switch st := stmt.(type) {
	case *sql.DeleteStmt:
		where = st.Where
	case *sql.UpdateStmt:
		where, set = st.Where, st.Set
	default:
		t.Fatalf("not DML: %s", text)
	}
	_, tbl, err := e.baseTable("t")
	if err != nil {
		t.Fatal(err)
	}
	schema := tbl.Schema()
	boundWhere, assignments, err := plan.NewBinder(e).BindDMLExprs("t", schema, where, set)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tbl.Rows(int64(tbl.VersionCount()))
	if err != nil {
		t.Fatal(err)
	}
	ev := &plan.EvalContext{Now: e.clk.Now(), Params: &plan.Params{Positional: args}}
	out := make(map[string]string, len(rows))
	affected := 0
	for id, row := range rows {
		match := true
		if boundWhere != nil {
			if match, err = plan.EvalBool(boundWhere, row, ev); err != nil {
				return nil, 0, err
			}
		}
		switch {
		case !match:
			out[id] = row.Key()
		case set == nil: // DELETE drops the row
			affected++
		default:
			next := row.Clone()
			for _, a := range assignments {
				v, err := plan.Eval(a.Expr, row, ev)
				if err != nil {
					return nil, 0, err
				}
				if next[a.ColumnIdx], err = coerce(v, schema.Column(a.ColumnIdx).Kind); err != nil {
					return nil, 0, err
				}
			}
			if !next.Equal(row) {
				affected++
			}
			out[id] = next.Key()
		}
	}
	return out, affected, nil
}

// TestDMLColumnarMatchesRowAtATime runs UPDATE and DELETE with WHERE
// clauses the vectorized evaluator handles natively and ones it sends to
// its row fallback, under NULL three-valued logic and with bind
// parameters, and checks each against the row-at-a-time reference.
func TestDMLColumnarMatchesRowAtATime(t *testing.T) {
	wheres := []struct {
		name, where string
		args        []any
	}{
		{"range", `id >= 3 AND id < 8`, nil},
		{"eq", `v = 2`, nil},
		{"or-null", `v > 3 OR s = 'x'`, nil},
		{"not-null", `NOT (v > 3)`, nil},
		{"not-or-null", `NOT (v > 3 OR s = 'x')`, nil},
		{"not-and-null", `NOT (v < 3 AND id > 2)`, nil},
		{"is-null", `s IS NULL OR v IS NULL`, nil},
		{"arith", `v IS NOT NULL AND (id + v) % 2 = 0`, nil},
		{"null-literal", `v = NULL`, nil},
		{"short-circuit", `id <> 5 AND v / (id - 5) >= 0`, nil},
		{"cast-neg", `v::STRING = '3' OR -v < -4`, nil},
		{"case", `CASE WHEN v > 3 THEN true WHEN s IS NULL THEN NULL ELSE id < 2 END`, nil},
		{"function", `UPPER(s) = 'AB' OR COALESCE(v, 100) > 50`, nil},
		{"in", `id IN (1, 3, 5, 11) OR v IN (6)`, nil},
		{"params", `id >= ? AND id < ?`, []any{int64(2), int64(9)}},
		{"params-null", `v > ? OR s = ?`, []any{int64(4), "b"}},
		{"all", ``, nil},
	}
	for _, kind := range []string{"DELETE FROM t", "UPDATE t SET v = v * 10 + 1, s = CONCAT(s, '!')"} {
		for _, w := range wheres {
			text := kind
			if w.where != "" {
				text += " WHERE " + w.where
			}
			t.Run(text, func(t *testing.T) {
				e, s := dmlFixture(t)
				defer e.Close()
				var args []types.Value
				for _, a := range w.args {
					v, err := toValue(a)
					if err != nil {
						t.Fatal(err)
					}
					args = append(args, v)
				}
				want, wantAffected, err := rowAtATime(t, e, text, args)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				res, err := s.Exec(text, w.args...)
				if err != nil {
					t.Fatal(err)
				}
				if res.RowsAffected != wantAffected {
					t.Errorf("rows affected = %d, row-at-a-time reference %d", res.RowsAffected, wantAffected)
				}
				if got := dumpRows(t, e, "t"); !equalDumps(got, want) {
					t.Errorf("contents differ from the row-at-a-time reference:\n got  %v\n want %v", sortedDump(got), sortedDump(want))
				}
			})
		}
	}
}

// TestDMLWhereErrorCommitsNothing: a WHERE that fails on some row fails
// the statement, and the table keeps its version and contents.
func TestDMLWhereErrorCommitsNothing(t *testing.T) {
	for _, text := range []string{
		`DELETE FROM t WHERE v / (id - 5) > 0`,
		`UPDATE t SET v = 0 WHERE id > 2 AND v / (id - 5) > 0`,
		`DELETE FROM t WHERE id < 100 AND s + 1 > 0`,
	} {
		t.Run(text, func(t *testing.T) {
			e, s := dmlFixture(t)
			defer e.Close()
			if _, _, err := rowAtATime(t, e, text, nil); err == nil {
				t.Fatal("reference evaluation did not fail; the case does not test an erroring WHERE")
			}
			_, tbl, err := e.baseTable("t")
			if err != nil {
				t.Fatal(err)
			}
			before, versions := dumpRows(t, e, "t"), tbl.VersionCount()
			if _, err := s.Exec(text); err == nil {
				t.Fatal("statement succeeded; want the WHERE's evaluation error")
			}
			if tbl.VersionCount() != versions || !equalDumps(dumpRows(t, e, "t"), before) {
				t.Errorf("failed statement committed: %d versions -> %d", versions, tbl.VersionCount())
			}
		})
	}
}

func equalDumps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for id, r := range a {
		if b[id] != r {
			return false
		}
	}
	return true
}

func sortedDump(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for id, r := range m {
		out = append(out, id+"="+r)
	}
	sort.Strings(out)
	return out
}
