package exec

import (
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// joinNow is CURRENT_TIMESTAMP for the join tests.
var joinNow = time.Date(2025, 4, 1, 12, 0, 0, 0, time.UTC)

// Key domains a fuzzed join column draws from. A typed domain holds one
// kind and NULL, so that a column of it on both sides takes the kernel's
// INT-family fast path; the mixed domain puts INT 1 beside FLOAT 1.0,
// TIMESTAMP 1, 0.0 beside -0.0, strings and variants.
var (
	intKeys   = []types.Value{types.Null, types.NewInt(0), types.NewInt(1), types.NewInt(2), types.NewInt(3)}
	tsKeys    = []types.Value{types.Null, types.NewTimestampMicros(0), types.NewTimestampMicros(1), types.NewTimestampMicros(2), types.NewTimestampMicros(3)}
	floatKeys = []types.Value{types.Null, types.NewFloat(1), types.NewFloat(1.5), types.NewFloat(0), types.NewFloat(negZero())}
	mixedKeys = []types.Value{
		types.Null,
		types.NewInt(1),
		types.NewFloat(1),
		types.NewTimestampMicros(1),
		types.NewString("1"),
		types.NewVariant(1.0),
		types.NewVariant("1"),
		types.NewVariant(nil),
		types.NewVariant([]any{1.0}),
		types.NewBool(true),
		types.NewInt(2),
		types.NewFloat(0),
		types.NewFloat(negZero()),
	}
	keyDomains = []struct {
		kind types.Kind
		vals []types.Value
	}{
		{types.KindInt, intKeys},
		{types.KindTimestamp, tsKeys},
		{types.KindFloat, floatKeys},
		{types.KindVariant, mixedKeys},
	}
)

func negZero() float64 {
	z := 0.0
	return -z
}

// col is a column reference of a fuzzed join's concatenated row
// (l.k1, l.k2, l.v, r.k1, r.k2, r.w).
func col(i int) plan.Expr {
	names := []string{"k1", "k2", "v", "k1", "k2", "w"}
	kinds := []types.Kind{types.KindVariant, types.KindVariant, types.KindInt, types.KindVariant, types.KindVariant, types.KindInt}
	return &plan.ColIdx{Idx: i, Name: names[i], Kind: kinds[i]}
}

// joinResiduals are the residuals a fuzzed join draws from: none, plain
// comparisons under three-valued logic, one that divides by zero and one
// that is not BOOL.
var joinResiduals = []plan.Expr{
	nil,
	&plan.BinOp{Op: sql.OpLt, L: col(2), R: col(5)},
	&plan.BinOp{Op: sql.OpOr, L: &plan.IsNull{E: col(2)}, R: &plan.BinOp{Op: sql.OpGt, L: col(5), R: &plan.Lit{Val: types.NewInt(1)}}},
	&plan.BinOp{Op: sql.OpEq, L: &plan.BinOp{Op: sql.OpMod, L: col(2), R: col(5)}, R: &plan.Lit{Val: types.NewInt(0)}},
	&plan.BinOp{Op: sql.OpAdd, L: col(2), R: col(5)},
	&plan.BinOp{Op: sql.OpNe, L: col(2), R: col(2)},
}

// fuzzJoin decodes fuzz input into a join over two stored tables
// (k1, k2, v) and (k1, k2, w). data[0] picks the join type (bits 0–1),
// the residual (bits 2–4) and 0, 1 or 2 key pairs, k1 and then k2 (bits
// 5–7); data[1] the domains of the left and right k1 (k2 is always
// mixed); data[2] how many rows go left. Then each row takes three bytes:
// k1, k2 and its INT (or NULL) value.
func fuzzJoin(t *testing.T, data []byte) (j *plan.Join, ls, rs *plan.Scan) {
	for len(data) < 3 {
		data = append(data, 0)
	}
	jt := sql.JoinType(data[0] % 4)
	residual := joinResiduals[int(data[0]>>2&7)%len(joinResiduals)]
	nkeys := int(data[0]>>5) % 3
	ld, rd := keyDomains[data[1]%4], keyDomains[(data[1]/4)%4]
	rows := data[3:]
	if len(rows) > 3*24 {
		rows = rows[:3*24]
	}
	nl := min(int(data[2]), len(rows)/3)
	ints := func(b byte) types.Value { return intKeys[int(b)%len(intKeys)] }
	table := func(d struct {
		kind types.Kind
		vals []types.Value
	}, last string, raw []byte) *plan.Scan {
		schema := types.NewSchema(
			types.Column{Name: "k1", Kind: d.kind},
			types.Column{Name: "k2", Kind: types.KindVariant},
			types.Column{Name: last, Kind: types.KindInt})
		tb := storage.NewTable(schema, hlc.Timestamp{WallMicros: 1})
		var cs delta.ChangeSet
		for i := 0; i+3 <= len(raw); i += 3 {
			cs.AddInsert(tb.NextRowID(), types.Row{
				d.vals[int(raw[i])%len(d.vals)], mixedKeys[int(raw[i+1])%len(mixedKeys)], ints(raw[i+2])})
		}
		if _, err := tb.Apply(cs, hlc.Timestamp{WallMicros: 2}); err != nil {
			t.Fatal(err)
		}
		return plan.NewScan(last, 1, tb)
	}
	ls = table(ld, "v", rows[:3*nl])
	rs = table(rd, "w", rows[3*nl:])
	var lk, rk []plan.Expr
	for k := 0; k < nkeys; k++ {
		lk = append(lk, &plan.ColIdx{Idx: k, Name: "k", Kind: ls.Schema().Column(k).Kind})
		rk = append(rk, &plan.ColIdx{Idx: k, Name: "k", Kind: rs.Schema().Column(k).Kind})
	}
	return plan.NewJoin(jt, ls, rs, lk, rk, residual), ls, rs
}

// scanRows returns a scan's rows in the order its batch holds them.
func scanRows(t *testing.T, s *plan.Scan) []TRow {
	b, err := s.Table.Batch(int64(s.Table.VersionCount()))
	if err != nil {
		t.Fatal(err)
	}
	return (&batchRes{b: b}).materialize()
}

// nestedLoopJoin is the reference: every left row against every right
// row, in order. Keys match when neither has a NULL component and their
// normalized encodings are equal; every key match counts as a probe, and
// the residual then runs over the matches in order.
func nestedLoopJoin(j *plan.Join, left, right []TRow) (out []TRow, probes int64, _ error) {
	ev := &plan.EvalContext{Now: joinNow}
	keys := func(exprs []plan.Expr, rows []TRow) ([]string, []bool, error) {
		ks, ok := make([]string, len(rows)), make([]bool, len(rows))
		for i, tr := range rows {
			var buf []byte
			ok[i] = true
			for _, e := range exprs {
				v, err := plan.Eval(e, tr.Row, ev)
				if err != nil {
					return nil, nil, err
				}
				if v.IsNull() {
					ok[i] = false
				}
				buf = NormalizeKeyValue(v).EncodeKey(buf)
			}
			ks[i] = string(buf)
		}
		return ks, ok, nil
	}
	rk, rok, err := keys(j.RightKeys, right)
	if err != nil {
		return nil, 0, err
	}
	lk, lok, err := keys(j.LeftKeys, left)
	if err != nil {
		return nil, 0, err
	}
	type match struct {
		l, r int
		pass bool
	}
	var ms []match
	for l := range left {
		for r := range right {
			if lok[l] && rok[r] && lk[l] == rk[r] {
				ms = append(ms, match{l: l, r: r, pass: true})
			}
		}
	}
	probes = int64(len(ms))
	for i, m := range ms {
		if j.Residual == nil {
			continue
		}
		pass, err := plan.EvalBool(j.Residual, left[m.l].Row.Concat(right[m.r].Row), ev)
		if err != nil {
			return nil, probes, err
		}
		ms[i].pass = pass
	}
	nullL, nullR := make(types.Row, j.L.Schema().Len()), make(types.Row, j.R.Schema().Len())
	rightMatched := make([]bool, len(right))
	for l, ltr := range left {
		matched := false
		for _, m := range ms {
			if m.l == l && m.pass {
				matched, rightMatched[m.r] = true, true
				rtr := right[m.r]
				out = append(out, TRow{ID: JoinRowID(ltr.ID, rtr.ID), Row: ltr.Row.Concat(rtr.Row)})
			}
		}
		if !matched && (j.Type == sql.JoinLeft || j.Type == sql.JoinFull) {
			out = append(out, TRow{ID: JoinRowID(ltr.ID, "-"), Row: ltr.Row.Concat(nullR)})
		}
	}
	if j.Type == sql.JoinRight || j.Type == sql.JoinFull {
		for r, rtr := range right {
			if !rightMatched[r] {
				out = append(out, TRow{ID: JoinRowID("-", rtr.ID), Row: nullL.Concat(rtr.Row)})
			}
		}
	}
	return out, probes, nil
}

// sameRows reports the first difference between two joins' outputs.
func sameRows(t *testing.T, label string, got, want []TRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d:\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].ID != want[i].ID || !got[i].Row.KeyEqual(want[i].Row) {
			t.Fatalf("%s: row %d = %s %v, want %s %v", label, i, got[i].ID, got[i].Row, want[i].ID, want[i].Row)
		}
	}
}

// FuzzHashJoin checks the hash-join kernel against a nested loop, both on
// the columnar path (Run over two scans, whose lazy output columns must
// also agree with its rows) and over tagged rows (JoinRows): the same
// rows, row IDs and order, the same error and the same JoinProbes.
func FuzzHashJoin(f *testing.F) {
	// An inner join on INT keys, duplicates on both sides and a NULL.
	f.Add([]byte{32, 0, 3, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 2, 2, 1, 3, 3, 0, 0, 0})
	// A FULL join with a residual, INT keys left and FLOAT keys right.
	f.Add([]byte{3 | 1<<2 | 1<<5, 2 << 2, 2, 2, 0, 1, 2, 1, 2, 1, 0, 3, 3, 0, 4, 4, 0, 0})
	// A LEFT cross join with an empty right side.
	f.Add([]byte{1, 15, 9, 1, 1, 1, 2, 2, 2, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		j, ls, rs := fuzzJoin(t, data)
		left, right := scanRows(t, ls), scanRows(t, rs)
		want, wantProbes, wantErr := nestedLoopJoin(j, left, right)

		check := func(label string, got []TRow, c *Counters, err error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s: error %v, want %v", label, err, wantErr)
			}
			if c.JoinProbes != wantProbes {
				t.Fatalf("%s: JoinProbes = %d, want %d", label, c.JoinProbes, wantProbes)
			}
			if err == nil {
				sameRows(t, label, got, want)
			}
		}

		var rowCounters Counters
		got, err := JoinRows(j, left, right, &Context{Now: joinNow, Counters: &rowCounters})
		check("JoinRows", got, &rowCounters, err)

		var colCounters Counters
		ctx := &Context{
			Now:      joinNow,
			Counters: &colCounters,
			BatchOf:  func(s *plan.Scan) (*types.Batch, error) { return s.Table.Batch(int64(s.Table.VersionCount())) },
		}
		got, err = Run(j, ctx)
		check("Run", got, &colCounters, err)
		if colCounters.ScanRows != int64(len(left)+len(right)) {
			t.Fatalf("Run: ScanRows = %d, want %d", colCounters.ScanRows, len(left)+len(right))
		}
		if err != nil {
			return
		}
		// The columns the batch gathers are the columns of its rows.
		res, err := runBatch(j, &Context{Now: joinNow, BatchOf: ctx.BatchOf})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < j.Schema().Len(); c++ {
			v := res.b.Col(c)
			for i := 0; i < res.len(); i++ {
				if !types.KeyEqual(v.Value(res.at(i)), want[i].Row[c]) {
					t.Fatalf("column %d, row %d = %v, want %v", c, i, v.Value(res.at(i)), want[i].Row[c])
				}
			}
		}
	})
}

// TestHashRowIDs pins GroupRowID and DistinctRowID to the FNV-1a 64 hash
// of the key in hex, as hash/fnv and strconv compute it, and holds each
// ID to one allocation.
func TestHashRowIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := func(prefix string, key string) string {
		h := fnv.New64a()
		h.Write([]byte(key))
		return prefix + strconv.FormatUint(h.Sum64(), 16)
	}
	for i := 0; i < 2000; i++ {
		key := make([]byte, rng.Intn(40))
		rng.Read(key)
		if got, w := GroupRowID(string(key)), want("g:", string(key)); got != w {
			t.Fatalf("GroupRowID(%q) = %s, want %s", key, got, w)
		}
		if got, w := DistinctRowID(string(key)), want("d:", string(key)); got != w {
			t.Fatalf("DistinctRowID(%q) = %s, want %s", key, got, w)
		}
	}
	if got, w := GroupRowID(""), want("g:", ""); got != w {
		t.Fatalf("GroupRowID(\"\") = %s, want %s", got, w)
	}
	key := string(types.NewInt(42).EncodeKey(nil))
	if n := testing.AllocsPerRun(100, func() { GroupRowID(key) }); n != 1 {
		t.Errorf("GroupRowID made %v allocations, want 1", n)
	}
}
