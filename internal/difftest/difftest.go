// Package difftest is the differential oracle harness for the columnar
// execution core: a seeded, fully deterministic generator produces a
// random workload — schemas, churn, ad-hoc queries (joins, aggregates,
// ORDER BY, bind parameters) and dynamic-table DAGs with scheduled
// refreshes — and replays it against two engines that differ only in the
// execution path (columnar fast path vs. row-at-a-time). Every query
// result and every refreshed DT's contents are canonicalized and
// byte-compared, and every DT is checked against its query evaluated
// afresh (delayed view semantics); any divergence is a bug.
//
// The harness runs in CI under the race detector via the package tests;
// a failing seed is reproducible with RunSeed alone.
package difftest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"dyntables"
	"dyntables/internal/types"
)

// column is one generated table column.
type column struct {
	name string
	kind types.Kind
}

// table is one generated base table: its columns and the mutable ID
// counter the churn generator draws from.
type table struct {
	name   string
	cols   []column // cols[0] is always "id INT", unique per row
	nextID int
}

// Script is a fully generated workload: setup DDL + seed DML, the DT
// layer, and the replayable step list. Everything is plain SQL plus
// engine clock control, so the same script drives any number of engines.
type Script struct {
	// Setup holds warehouse/table DDL and the initial INSERTs.
	Setup []string
	// DTSetup holds the CREATE DYNAMIC TABLE statements (applied after
	// Setup, refreshed by ticks).
	DTSetup []string
	// DTs names the created dynamic tables in creation order.
	DTs []string
	// Steps is the churn/query/tick sequence.
	Steps []Step
}

// StepKind discriminates Script steps.
type StepKind int

// Step kinds: DML churn, an ad-hoc query to compare, or a scheduler tick
// (advance the virtual clock and run due refreshes).
const (
	StepDML StepKind = iota
	StepQuery
	StepTick
)

// Step is one replayable workload action.
type Step struct {
	Kind StepKind
	// SQL is the statement text for StepDML and StepQuery.
	SQL string
	// Args carries bind-parameter values for StepQuery.
	Args []any
	// Ordered marks a query whose row order is fully determined (ORDER
	// BY over a unique key): its result is compared byte-for-byte in
	// order, not as a sorted multiset.
	Ordered bool
	// Advance is the virtual-clock step for StepTick.
	Advance time.Duration
}

// gen carries generator state.
type gen struct {
	rng    *rand.Rand
	tables []*table
	script *Script
}

// Generate builds the deterministic workload for a seed: 2-3 tables with
// random column sets, a DT layer (filter/projection, join, aggregates and
// stacked DTs-over-DTs), and steps interleaved churn, parameterized
// queries and scheduler ticks.
func Generate(seed int64, steps int) *Script {
	g := &gen{rng: rand.New(rand.NewSource(seed)), script: &Script{}}
	g.genTables()
	g.genSeedRows()
	g.genDTs()
	for i := 0; i < steps; i++ {
		switch r := g.rng.Intn(10); {
		case r < 4:
			g.genDML()
		case r < 8:
			g.genQuery()
		default:
			g.script.Steps = append(g.script.Steps,
				Step{Kind: StepTick, Advance: 2 * time.Minute})
		}
	}
	// Always end on a tick so the final DT contents reflect the full
	// churn history in both engines.
	g.script.Steps = append(g.script.Steps, Step{Kind: StepTick, Advance: 2 * time.Minute})
	return g.script
}

var colKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}

func (g *gen) genTables() {
	g.script.Setup = append(g.script.Setup, `CREATE WAREHOUSE wh`)
	n := 2 + g.rng.Intn(2)
	for i := 0; i < n; i++ {
		t := &table{name: fmt.Sprintf("t%d", i)}
		t.cols = append(t.cols, column{name: "id", kind: types.KindInt})
		nc := 2 + g.rng.Intn(3)
		for c := 0; c < nc; c++ {
			t.cols = append(t.cols, column{
				name: fmt.Sprintf("c%d", c),
				kind: colKinds[g.rng.Intn(len(colKinds))],
			})
		}
		defs := make([]string, len(t.cols))
		for j, c := range t.cols {
			defs[j] = c.name + " " + sqlType(c.kind)
		}
		g.script.Setup = append(g.script.Setup,
			fmt.Sprintf("CREATE TABLE %s (%s)", t.name, strings.Join(defs, ", ")))
		g.tables = append(g.tables, t)
	}
}

func sqlType(k types.Kind) string {
	switch k {
	case types.KindInt:
		return "INT"
	case types.KindFloat:
		return "FLOAT"
	case types.KindBool:
		return "BOOL"
	default:
		return "TEXT"
	}
}

// literal renders a random value of the column's kind as a SQL literal.
func (g *gen) literal(k types.Kind) string {
	switch k {
	case types.KindInt:
		// Some NULLs, so that key lookups meet NULL keys.
		if g.rng.Intn(8) == 0 {
			return "NULL"
		}
		return fmt.Sprintf("%d", g.rng.Intn(200)-50)
	case types.KindFloat:
		// Halves only: exactly representable, so float formatting is
		// identical no matter which path produced the value.
		return fmt.Sprintf("%.1f", float64(g.rng.Intn(100))/2)
	case types.KindBool:
		if g.rng.Intn(2) == 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("'w%d'", g.rng.Intn(12))
	}
}

func (g *gen) insertSQL(t *table, rows int) string {
	var vals []string
	for r := 0; r < rows; r++ {
		parts := make([]string, len(t.cols))
		parts[0] = fmt.Sprintf("%d", t.nextID)
		t.nextID++
		for j := 1; j < len(t.cols); j++ {
			parts[j] = g.literal(t.cols[j].kind)
		}
		vals = append(vals, "("+strings.Join(parts, ", ")+")")
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", t.name, strings.Join(vals, ", "))
}

func (g *gen) genSeedRows() {
	for _, t := range g.tables {
		g.script.Setup = append(g.script.Setup, g.insertSQL(t, 20+g.rng.Intn(40)))
	}
}

// intCol picks a random INT column (beyond id) of t, falling back to id.
func (g *gen) intCol(t *table) string {
	var ints []string
	for _, c := range t.cols[1:] {
		if c.kind == types.KindInt {
			ints = append(ints, c.name)
		}
	}
	if len(ints) == 0 {
		return "id"
	}
	return ints[g.rng.Intn(len(ints))]
}

func (g *gen) genDTs() {
	add := func(name, query string) {
		g.script.DTSetup = append(g.script.DTSetup, fmt.Sprintf(
			"CREATE DYNAMIC TABLE %s TARGET_LAG = '1 minute' WAREHOUSE = wh AS %s",
			name, query))
		g.script.DTs = append(g.script.DTs, name)
	}
	t0 := g.tables[0]
	t1 := g.tables[g.rng.Intn(len(g.tables))]

	// Filter/projection DT over a random table.
	add("dt_filter", fmt.Sprintf("SELECT id, %s AS k FROM %s WHERE id %% %d <> %d",
		g.intCol(t0), t0.name, 2+g.rng.Intn(4), g.rng.Intn(2)))

	// Join DT: modular equi-join so the join stays selective under churn.
	m := 3 + g.rng.Intn(5)
	add("dt_join", fmt.Sprintf(
		"SELECT a.id AS aid, b.id AS bid, a.%s AS av FROM %s a JOIN %s b ON a.id %% %d = b.id %% %d AND a.id < b.id",
		g.intCol(t0), t0.name, t1.name, m, m))

	// Aggregate DT with a modular group key.
	add("dt_agg", fmt.Sprintf(
		"SELECT id %% %d AS grp, COUNT(*) AS n, SUM(%s) AS s, MIN(id) AS lo FROM %s GROUP BY ALL",
		2+g.rng.Intn(5), g.intCol(t1), t1.name))

	// Stacked DT: a DT reading another DT (refresh DAG).
	add("dt_top", fmt.Sprintf("SELECT grp, n, s FROM dt_agg WHERE n > %d", g.rng.Intn(3)))

	// Aggregates whose refreshes fold Δ into stored accumulators: COUNT,
	// COUNT_IF and SUM over a nullable INT column, and one over that DT.
	c := g.intCol(t0)
	add("dt_acc", fmt.Sprintf(
		"SELECT id %% %d AS grp, COUNT(*) AS n, COUNT(%s) AS nc, COUNT_IF(%s > 0) AS p, SUM(%s) AS s FROM %s GROUP BY ALL",
		2+g.rng.Intn(6), c, c, c, t0.name))
	add("dt_acc_top", fmt.Sprintf(
		"SELECT n %% %d AS b, COUNT(*) AS groups, SUM(s) AS total FROM dt_acc GROUP BY ALL", 2+g.rng.Intn(3)))

	// DISTINCT DT: a bare column beside a computed one, so values repeat
	// and the boundaries read only Δ's values through the bare column.
	add("dt_distinct", fmt.Sprintf("SELECT DISTINCT %s AS v, id %% %d AS k FROM %s",
		g.intCol(t1), 2+g.rng.Intn(3), t1.name))

	// Window DTs: one keeps its PARTITION BY column, so its refreshes read
	// the old side from its own rows; the other drops it, so they
	// recompute the old side from the sources.
	k := g.intCol(t0)
	add("dt_window", fmt.Sprintf(
		"SELECT id, %s AS k, ROW_NUMBER() OVER (PARTITION BY %s ORDER BY id) AS rn FROM %s", k, k, t0.name))
	add("dt_window_hidden", fmt.Sprintf(
		"SELECT id, RANK() OVER (PARTITION BY %s ORDER BY id) AS r FROM %s", g.intCol(t1), t1.name))
}

func (g *gen) genDML() {
	t := g.tables[g.rng.Intn(len(g.tables))]
	var stmt string
	switch g.rng.Intn(4) {
	case 0, 1:
		stmt = g.insertSQL(t, 1+g.rng.Intn(5))
	case 2:
		col := t.cols[1+g.rng.Intn(len(t.cols)-1)]
		set := fmt.Sprintf("%s = %s", col.name, g.literal(col.kind))
		if col.kind == types.KindInt {
			set = fmt.Sprintf("%s = %s + %d", col.name, col.name, 1+g.rng.Intn(7))
		}
		stmt = fmt.Sprintf("UPDATE %s SET %s WHERE id %% %d = %d",
			t.name, set, 3+g.rng.Intn(5), g.rng.Intn(3))
	default:
		stmt = fmt.Sprintf("DELETE FROM %s WHERE id %% %d = %d",
			t.name, 7+g.rng.Intn(6), g.rng.Intn(7))
	}
	g.script.Steps = append(g.script.Steps, Step{Kind: StepDML, SQL: stmt})
}

// genQuery emits an ad-hoc SELECT: single-table filters with bind
// parameters, key lookups, two-table joins, aggregates, or a read over a
// DT — optionally with ORDER BY over a unique key (compared in order) and
// LIMIT.
func (g *gen) genQuery() {
	var (
		q       string
		args    []any
		ordered bool
	)
	switch g.rng.Intn(7) {
	case 5, 6: // key lookup
		q, args = g.lookupQuery()
	case 0: // parameterized filter
		t := g.tables[g.rng.Intn(len(g.tables))]
		q = fmt.Sprintf("SELECT * FROM %s WHERE id >= ? AND %s %% ? <> 1",
			t.name, g.intCol(t))
		args = []any{g.rng.Intn(30), 2 + g.rng.Intn(4)}
		if g.rng.Intn(2) == 0 {
			q += fmt.Sprintf(" ORDER BY id LIMIT %d", 5+g.rng.Intn(20))
			ordered = true
		}
	case 1: // join
		a := g.tables[0]
		b := g.tables[len(g.tables)-1]
		m := 3 + g.rng.Intn(4)
		q = fmt.Sprintf(
			"SELECT a.id, b.id, a.%s FROM %s a JOIN %s b ON a.id %% %d = b.id %% %d WHERE a.id < ?",
			g.intCol(a), a.name, b.name, m, m)
		args = []any{20 + g.rng.Intn(60)}
	case 2: // aggregate
		t := g.tables[g.rng.Intn(len(g.tables))]
		q = fmt.Sprintf(
			"SELECT id %% %d AS grp, COUNT(*), SUM(%s), MAX(id) FROM %s GROUP BY ALL",
			2+g.rng.Intn(5), g.intCol(t), t.name)
	case 3: // DT read with parameter
		dt := g.script.DTs[g.rng.Intn(len(g.script.DTs))]
		q = fmt.Sprintf("SELECT * FROM %s WHERE ? >= 0", dt)
		args = []any{g.rng.Intn(5)}
	default: // ordered scan
		t := g.tables[g.rng.Intn(len(g.tables))]
		q = fmt.Sprintf("SELECT * FROM %s ORDER BY id DESC LIMIT %d",
			t.name, 3+g.rng.Intn(15))
		ordered = true
	}
	g.script.Steps = append(g.script.Steps, Step{Kind: StepQuery, SQL: q, Args: args, Ordered: ordered})
}

// lookupQuery emits a filter whose leading conjuncts bound one INT
// column, the shape the columnar engine serves through a storage lookup:
// a point read, a two-sided range, a mirrored bound, a range over a
// nullable INT column, bounds of another kind (FLOAT, STRING), and a
// trailing conjunct that divides by zero on every row it reaches.
func (g *gen) lookupQuery() (string, []any) {
	t := g.tables[g.rng.Intn(len(g.tables))]
	key := func() int { return g.rng.Intn(t.nextID+10) - 5 }
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("SELECT * FROM %s WHERE id = ?", t.name), []any{key()}
	case 1:
		lo := key()
		return fmt.Sprintf("SELECT * FROM %s WHERE id >= ? AND id < ? AND id <> ?", t.name),
			[]any{lo, lo + g.rng.Intn(12), key()}
	case 2:
		lo := key()
		return fmt.Sprintf("SELECT id FROM %s WHERE ? <= id AND ? > id", t.name), []any{lo, lo + g.rng.Intn(8)}
	case 3:
		c := g.intCol(t)
		lo := g.rng.Intn(200) - 60
		return fmt.Sprintf("SELECT * FROM %s WHERE %s >= ? AND %s <= %d", t.name, c, c, lo+g.rng.Intn(20)), []any{lo}
	case 4:
		bound := []any{2.5, float64(key()), "w3"}[g.rng.Intn(3)]
		return fmt.Sprintf("SELECT * FROM %s WHERE id >= ?", t.name), []any{bound}
	default:
		k, e := g.intCol(t), g.intCol(t)
		if g.rng.Intn(2) == 0 {
			k = "id"
		}
		if g.rng.Intn(2) == 0 {
			e = "id"
		}
		lo := key()
		return fmt.Sprintf("SELECT id FROM %s WHERE %s >= ? AND %s <= ? AND 1/(%s-%s) > 0", t.name, k, k, e, e),
			[]any{lo, lo + g.rng.Intn(3)}
	}
}

// ---------------------------------------------------------------------------
// replay + comparison
// ---------------------------------------------------------------------------

// canonicalize renders a query result to a comparable string: one line
// per row of formatted values, sorted unless the query order is fully
// determined.
func canonicalize(res *dyntables.Result, ordered bool) string {
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(res.Columns, ",") + "\n" + strings.Join(lines, "\n")
}

// dtState reads every DT's full contents through SQL and canonicalizes
// them as an unordered multiset per DT.
func dtState(s *dyntables.Session, dts []string) (string, error) {
	var sb strings.Builder
	for _, name := range dts {
		res, err := s.Query("SELECT * FROM " + name)
		if err != nil {
			return "", fmt.Errorf("difftest: reading %s: %w", name, err)
		}
		sb.WriteString(name + ":\n" + canonicalize(res, false) + "\n")
	}
	return sb.String(), nil
}

// engines under comparison.
type pair struct {
	columnar *dyntables.Engine
	legacy   *dyntables.Engine
}

func (p *pair) close() {
	p.columnar.Close()
	p.legacy.Close()
}

// exec applies one statement to both engines, failing if either errors
// or if they disagree about erroring.
func (p *pair) exec(sql string) error {
	_, errC := p.columnar.Exec(sql)
	_, errL := p.legacy.Exec(sql)
	if (errC == nil) != (errL == nil) {
		return fmt.Errorf("difftest: error divergence on %q: columnar=%v legacy=%v", sql, errC, errL)
	}
	if errC != nil {
		return fmt.Errorf("difftest: setup statement %q failed: %w", sql, errC)
	}
	return nil
}

// RunSeed generates the workload for a seed and replays it against a
// columnar-enabled and a columnar-disabled engine, byte-comparing every
// query result and, after every scheduler tick, every DT's contents. It
// returns the first divergence as an error; nil means the two execution
// paths were observationally identical for this workload.
func RunSeed(seed int64, steps int) error {
	script := Generate(seed, steps)
	p := &pair{
		columnar: dyntables.New(),
		legacy:   dyntables.New(dyntables.WithConfig(dyntables.Config{DisableColumnar: true})),
	}
	defer p.close()

	for _, stmt := range script.Setup {
		if err := p.exec(stmt); err != nil {
			return err
		}
	}
	for _, stmt := range script.DTSetup {
		if err := p.exec(stmt); err != nil {
			return err
		}
	}
	sc := p.columnar.NewSession()
	sl := p.legacy.NewSession()
	defer sc.Close()
	defer sl.Close()

	for i, step := range script.Steps {
		switch step.Kind {
		case StepDML:
			if err := p.exec(step.SQL); err != nil {
				return fmt.Errorf("step %d: %w", i, err)
			}
		case StepQuery:
			resC, errC := sc.Query(step.SQL, step.Args...)
			resL, errL := sl.Query(step.SQL, step.Args...)
			if (errC == nil) != (errL == nil) {
				return fmt.Errorf("difftest: step %d error divergence on %q: columnar=%v legacy=%v",
					i, step.SQL, errC, errL)
			}
			if errC != nil {
				// Both rejected the query identically; the generator
				// occasionally produces statements the binder refuses,
				// which is itself a useful agreement check.
				continue
			}
			if a, b := canonicalize(resC, step.Ordered), canonicalize(resL, step.Ordered); a != b {
				return fmt.Errorf("difftest: step %d result divergence on %q (args %v):\ncolumnar:\n%s\nlegacy:\n%s",
					i, step.SQL, step.Args, a, b)
			}
		case StepTick:
			p.columnar.AdvanceTime(step.Advance)
			p.legacy.AdvanceTime(step.Advance)
			if err := p.columnar.RunScheduler(); err != nil {
				return fmt.Errorf("difftest: step %d columnar scheduler: %w", i, err)
			}
			if err := p.legacy.RunScheduler(); err != nil {
				return fmt.Errorf("difftest: step %d legacy scheduler: %w", i, err)
			}
			a, err := dtState(sc, script.DTs)
			if err != nil {
				return err
			}
			b, err := dtState(sl, script.DTs)
			if err != nil {
				return err
			}
			if a != b {
				return fmt.Errorf("difftest: step %d DT contents divergence after tick:\ncolumnar:\n%s\nlegacy:\n%s", i, a, b)
			}
			// Both paths could agree and still be wrong: each DT must
			// also equal its query evaluated afresh (DVS).
			for _, name := range script.DTs {
				for _, e := range []*dyntables.Engine{p.columnar, p.legacy} {
					if err := e.CheckDVS(name); err != nil {
						return fmt.Errorf("difftest: step %d: %w", i, err)
					}
				}
			}
		}
	}
	return nil
}
