package main

import (
	"fmt"
	"maps"
	"math/rand"
	"strconv"
	"strings"
)

// The generator is the only source of inputs: the engine sees nothing but
// the SQL text (and bind values) produced here, and the same seed produces
// byte-identical SQL. Beside each statement the generator updates a shadow
// model — live id range, per-grp counts and sums, bytes written — that the
// correctness checks read instead of trusting the engine.
//
// facts(id, dim, grp, v, note) rows are a pure function of id:
// dim = id % 1000, grp = id % 97, v = id % 101, note = 'n<id>'. Live ids are
// always the contiguous range [lo, next): loads and INSERTs append at next,
// DELETEs remove from lo, UPDATEs bump v by one over a seeded id range.

const factsDDL = `CREATE TABLE facts (id INT, dim INT, grp INT, v INT, note STRING)`
const dimsDDL = `CREATE TABLE dims (dim INT, name STRING)`

// dtKinds lists the four dynamic-table kinds in creation (and name) order.
var dtKinds = []string{"agg", "filter", "join", "window"}

var dtQueries = map[string]string{
	"filter": `SELECT id, dim, v FROM facts WHERE v > 50`,
	"agg":    `SELECT grp, count(*) c, sum(v) total FROM facts GROUP BY grp`,
	"join":   `SELECT f.id, f.v, d.name FROM facts f JOIN dims d ON f.dim = d.dim`,
	"window": `SELECT id, dim, v, row_number() OVER (PARTITION BY dim ORDER BY v, id) rn FROM facts`,
}

// dtDDL is the CREATE statement of one DT kind. Full siblings (dt_<kind>_full)
// exist only in traced runs, as the denominator of core.incr_over_full.
func dtDDL(kind string, full bool) string {
	name, mode := "dt_"+kind, "INCREMENTAL"
	if full {
		name, mode = name+"_full", "FULL"
	}
	return fmt.Sprintf(`CREATE DYNAMIC TABLE %s TARGET_LAG = '2 minutes' WAREHOUSE = wh REFRESH_MODE = %s AS %s`,
		name, mode, dtQueries[kind])
}

// Statement texts of the read mix; keys and ranges travel as bind values.
const (
	pointReadSQL = `SELECT v FROM facts WHERE id = ?`
	rangeScanSQL = `SELECT id, v FROM facts WHERE id >= ? AND id < ?`
	dtReadSQL    = `SELECT c, total FROM dt_agg WHERE grp = ?`
	joinAggSQL   = `SELECT d.name, count(*) c, sum(f.v) total FROM facts f JOIN dims d ON f.dim = d.dim WHERE f.grp = ? GROUP BY d.name`
	dtTotalsSQL  = `SELECT sum(c), sum(total) FROM dt_agg`
	factsSumSQL  = `SELECT count(*), sum(v) FROM facts`
)

// model is the shadow state the correctness checks compare against.
type model struct {
	lo, next  int64           // live ids are [lo, next)
	bump      map[int64]int64 // id -> times its v was incremented
	cnt, sum  [grpCount]int64 // per-grp row count and sum(v)
	userBytes int64           // bytes of values the generated DML wrote
}

func (m *model) rows() int64 { return m.next - m.lo }

func (m *model) total() int64 {
	var t int64
	for _, s := range m.sum {
		t += s
	}
	return t
}

// v is the current value of a live row.
func (m *model) v(id int64) int64 { return id%vModulus + m.bump[id] }

type gen struct {
	rng  *rand.Rand
	n    int
	base int64 // first loaded id; seeded so that different seeds load different rows
	m    model
}

func newGen(seed int64, n int) *gen {
	rng := rand.New(rand.NewSource(seed))
	base := rng.Int63n(1_000_000)
	return &gen{rng: rng, n: n, base: base, m: model{lo: base, next: base, bump: map[int64]int64{}}}
}

// fork returns a generator for one more client: the same data and a copy of
// the shadow model, but its own key stream.
func (g *gen) fork(client int) *gen {
	f := *g
	f.m.bump = maps.Clone(g.m.bump)
	f.rng = rand.New(rand.NewSource(g.rng.Int63() + int64(client)))
	return &f
}

func note(id int64) string { return "n" + strconv.FormatInt(id, 10) }

// appendRows writes k VALUES tuples starting at the model's next id and
// folds them into the model.
func (g *gen) appendRows(b *strings.Builder, k int) {
	for i := 0; i < k; i++ {
		id := g.m.next
		g.m.next++
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "(%d, %d, %d, %d, '%s')", id, id%dimsRows, id%grpCount, id%vModulus, note(id))
		g.m.cnt[id%grpCount]++
		g.m.sum[id%grpCount] += id % vModulus
		g.m.userBytes += 4*8 + int64(len(note(id)))
	}
}

// insertSQL appends k rows.
func (g *gen) insertSQL(k int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO facts VALUES ")
	g.appendRows(&b, k)
	return b.String()
}

// setupSQL is the whole set-up script up to (not including) the DTs: DDL,
// the facts load in loadBatch-row INSERTs, and dims.
func (g *gen) setupSQL() []string {
	out := []string{`CREATE WAREHOUSE wh`, factsDDL, dimsDDL}
	for left := g.n; left > 0; left -= loadBatch {
		out = append(out, g.insertSQL(min(left, loadBatch)))
	}
	var b strings.Builder
	b.WriteString("INSERT INTO dims VALUES ")
	for d := 0; d < dimsRows; d++ {
		if d > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'dim-%d')", d, d)
	}
	return append(out, b.String())
}

// deleteSQL removes the k lowest live ids.
func (g *gen) deleteSQL(k int) string {
	lo := g.m.lo
	for id := lo; id < lo+int64(k); id++ {
		g.m.cnt[id%grpCount]--
		g.m.sum[id%grpCount] -= g.m.v(id)
		delete(g.m.bump, id)
	}
	g.m.lo += int64(k)
	return fmt.Sprintf("DELETE FROM facts WHERE id >= %d AND id < %d", lo, lo+int64(k))
}

// updateSQL bumps v on k consecutive live ids starting at a seeded id in
// [from, to-k).
func (g *gen) updateSQL(k int, from, to int64) string {
	start := from + g.rng.Int63n(to-int64(k)-from)
	for id := start; id < start+int64(k); id++ {
		g.m.bump[id]++
		g.m.sum[id%grpCount]++
		g.m.userBytes += 8
	}
	return fmt.Sprintf("UPDATE facts SET v = v + 1 WHERE id >= %d AND id < %d", start, start+int64(k))
}

// dml is one generated write statement and the row count it must affect.
type dml struct {
	kind string // insert, update, delete
	sql  string
	rows int
}

// delta is one round's change of k source rows: 40% INSERT, 40% DELETE and
// 20% UPDATE, so the table size stays constant.
func (g *gen) delta(k int) []dml {
	ins := k * 4 / 10
	upd := k - 2*ins
	out := []dml{{"insert", g.insertSQL(ins), ins}, {"delete", g.deleteSQL(ins), ins}}
	return append(out, dml{"update", g.updateSQL(upd, g.m.lo, g.m.next), upd})
}

// writeCycle is one serve_write cycle's writes: an INSERT of ins rows and an
// UPDATE of upd rows in the lower half of the loaded id range — readers keep
// to the upper half (readable), so every concurrent read has one right
// answer.
func (g *gen) writeCycle(ins, upd int) []dml {
	mid, _ := g.readable()
	return []dml{{"insert", g.insertSQL(ins), ins}, {"update", g.updateSQL(upd, g.base, mid), upd}}
}

// readable is the id range writeCycle never updates: the upper half of the
// loaded rows.
func (g *gen) readable() (from, to int64) {
	return g.base + int64(g.n)/2, g.base + int64(g.n)
}

// readOp is one generated read and the values it must return.
type readOp struct {
	kind string // point_read, range_scan, dt_read, join_agg
	sql  string
	args []any
	// Expected result: row count, and the sum of the value column(s) the
	// check adds up (v for point_read and range_scan; total for dt_read and
	// join_agg, whose count column must add up to wantCount).
	wantRows  int
	wantSum   int64
	wantCount int64
	// sumCol and countCol locate those columns in the result; countCol is
	// -1 when the read has no count column.
	sumCol, countCol int
}

// pointRead reads one seeded id in [from, to).
func (g *gen) pointRead(from, to int64) readOp {
	id := from + g.rng.Int63n(to-from)
	return readOp{kind: "point_read", sql: pointReadSQL, args: []any{id}, wantRows: 1, wantSum: g.m.v(id), countCol: -1}
}

// nextRead draws from the serve_read mix: 60% point_read, 15% range_scan,
// 15% dt_read, 10% join_agg, keys uniform (there is no key-level cache to
// skew for).
func (g *gen) nextRead() readOp {
	switch x := g.rng.Intn(100); {
	case x < 60:
		return g.pointRead(g.m.lo, g.m.next)
	case x < 75:
		return g.rangeScan()
	case x < 90:
		return g.dtRead()
	default:
		return g.joinAgg()
	}
}

func (g *gen) rangeScan() readOp {
	lo := g.m.lo + g.rng.Int63n(g.m.rows()-rangeRows)
	var sum int64
	for id := lo; id < lo+rangeRows; id++ {
		sum += g.m.v(id)
	}
	return readOp{kind: "range_scan", sql: rangeScanSQL, args: []any{lo, lo + rangeRows}, wantRows: rangeRows, wantSum: sum, sumCol: 1, countCol: -1}
}

func (g *gen) dtRead() readOp {
	grp := g.rng.Int63n(grpCount)
	return readOp{kind: "dt_read", sql: dtReadSQL, args: []any{grp}, wantRows: 1,
		wantSum: g.m.sum[grp], wantCount: g.m.cnt[grp], sumCol: 1, countCol: 0}
}

func (g *gen) joinAgg() readOp {
	grp := g.rng.Int63n(grpCount)
	dims := map[int64]bool{}
	for id := g.m.lo; id < g.m.next; id++ {
		if id%grpCount == grp {
			dims[id%dimsRows] = true
		}
	}
	return readOp{kind: "join_agg", sql: joinAggSQL, args: []any{grp}, wantRows: len(dims),
		wantSum: g.m.sum[grp], wantCount: g.m.cnt[grp], sumCol: 2, countCol: 1}
}

// check compares a read's result, reduced to (rows, count column sum, value
// column sum), with what the model predicts.
func (op readOp) check(rows int, count, sum int64) error {
	if rows != op.wantRows || sum != op.wantSum || count != op.wantCount {
		return fmt.Errorf("%s%v: got rows=%d count=%d sum=%d, want rows=%d count=%d sum=%d",
			op.kind, op.args, rows, count, sum, op.wantRows, op.wantCount, op.wantSum)
	}
	return nil
}
