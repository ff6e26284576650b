package ivm_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/ivm"
	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// accumQueries are invertible aggregates: over a bare scan, through a
// filter and a computed key, and over a join, whose unconsolidated Δ
// carries delete+insert pairs of rows in neither boundary.
var accumQueries = []string{
	`SELECT b, count(*) n, count(c) nc, count_if(c > 0) p, sum(c) s FROM t GROUP BY b`,
	`SELECT b % 5 k, s, sum(a) sa, count(*) n FROM t WHERE a % 3 <> 1 GROUP BY b % 5, s`,
	`SELECT u.g, sum(t.c) s, count(*) n, count_if(t.a > u.b) p FROM t JOIN u ON t.b = u.b GROUP BY u.g`,
}

// accumRow draws a row of t (a INT, b INT, c INT, s STRING): b is one of
// 12 groups, c is NULL one time in five and otherwise small or within
// 2^62 of an int64 bound, so that the groups' sums wrap.
func accumRow(rng *rand.Rand, a int64) types.Row {
	c := types.Null
	switch r := rng.Intn(10); {
	case r < 2:
	case r < 4:
		c = types.NewInt(math.MaxInt64 - rng.Int63n(1<<62))
	case r < 5:
		c = types.NewInt(math.MinInt64 + rng.Int63n(1<<62))
	default:
		c = types.NewInt(rng.Int63n(21) - 10)
	}
	return types.Row{types.NewInt(a), types.NewInt(rng.Int63n(12)), c, types.NewString([]string{"x", "y"}[rng.Intn(2)])}
}

// churn applies one round of random changes to t and u: inserts, deletes,
// NULLing and wrapping updates of c, UPDATEs of the group key b (which
// move a row between groups), emptying group `empty` whole, and remapping
// u's groups.
func (h *harness) churn(rng *rand.Rand, nextA *int64, empty int64) {
	h.t.Helper()
	h.mutate("t", func(live map[string]types.Row, cs *delta.ChangeSet) {
		for _, id := range slices.Sorted(maps.Keys(live)) {
			r := live[id]
			switch x := rng.Intn(100); {
			case r[1].Int() == empty:
				cs.AddDelete(id, r)
			case x < 3:
				cs.AddDelete(id, r)
			case x < 6:
				cs.AddDelete(id, r)
				cs.AddInsert(id, types.Row{r[0], types.NewInt(rng.Int63n(12)), r[2], r[3]})
			case x < 8:
				cs.AddDelete(id, r)
				cs.AddInsert(id, types.Row{r[0], r[1], accumRow(rng, 0)[2], r[3]})
			}
		}
		for i := rng.Intn(6); i > 0; i-- {
			cs.AddInsert(fmt.Sprintf("n%d", *nextA), accumRow(rng, *nextA))
			*nextA++
		}
	})
	if rng.Intn(3) == 0 {
		h.mutate("u", func(live map[string]types.Row, cs *delta.ChangeSet) {
			id := slices.Sorted(maps.Keys(live))[rng.Intn(len(live))]
			cs.AddDelete(id, live[id])
			cs.AddInsert(id, types.Row{live[id][0], types.NewInt(rng.Int63n(4))})
		})
	}
}

// accumHarness loads t with 300 rows and u with one row per group of t.
func accumHarness(t *testing.T, seed int64) (*harness, *rand.Rand, int64) {
	h := newHarness(t)
	h.table("t", "a INT, b INT, c INT, s STRING")
	h.table("u", "b INT, g INT")
	rng := rand.New(rand.NewSource(seed))
	var rows []types.Row
	a := int64(0)
	for ; a < 300; a++ {
		rows = append(rows, accumRow(rng, a))
	}
	h.insert("t", rows...)
	for b := int64(0); b < 12; b++ {
		h.insert("u", types.Row{types.NewInt(b), types.NewInt(b % 4)})
	}
	return h, rng, a
}

// deltaStored differentiates p over iv with the stored accumulators of
// store (nil for the boundary path) and returns the change set and stats.
func (h *harness) deltaStored(p plan.Node, iv ivm.Interval, store *ivm.AggStore, columnar bool) (delta.ChangeSet, ivm.Stats) {
	h.t.Helper()
	var st ivm.Stats
	env := &ivm.Env{Now: h.env.Now, Counters: &exec.Counters{}, Stats: &st, Columnar: columnar, Accumulators: store}
	cs, err := ivm.Delta(p, iv, env)
	if err != nil {
		h.t.Fatalf("delta (store %v): %v", store != nil, err)
	}
	return cs, st
}

// TestAccumulatorsMatchBoundaryPath differentiates every invertible shape
// over random churn with stored accumulators and without them, on the
// columnar and the row path; the change sets must be identical, byte for
// byte. The churn NULLs and wraps SUM arguments, moves rows between groups
// and empties groups that come back later. One round's change set is
// thrown away, as a failed merge would, so that the next interval starts
// before the state: that round must take the boundary path and seed again,
// also after an empty interval from the same start, over which the state
// must not move.
func TestAccumulatorsMatchBoundaryPath(t *testing.T) {
	for qi, q := range accumQueries {
		for _, columnar := range []bool{true, false} {
			t.Run(fmt.Sprintf("q%d/columnar=%v", qi, columnar), func(t *testing.T) {
				h, rng, nextA := accumHarness(t, int64(qi))
				p := h.bind(q)
				var store ivm.AggStore
				folds, seeds := int64(0), int64(0)
				from := h.versions()
				for round := 0; round < 24; round++ {
					if round == 12 {
						if cs, _ := h.deltaStored(p, ivm.Interval{From: from, To: from}, &store, columnar); len(cs.Changes) != 0 {
							t.Fatalf("an empty interval changed %d rows", len(cs.Changes))
						}
					}
					h.churn(rng, &nextA, int64(round%6)*2)
					iv := ivm.Interval{From: from, To: h.versions()}
					got, st := h.deltaStored(p, iv, &store, columnar)
					want, _ := h.deltaStored(p, iv, nil, columnar)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: accumulator change set differs from the boundary path's\ngot:  %v\nwant: %v",
							round, got.Changes, want.Changes)
					}
					folds += st.AccumulatorFolds
					seeds += st.AccumulatorSeeds
					if round != 11 {
						from = iv.To
					}
				}
				if seeds != 2 || folds != 22 {
					t.Errorf("%d folds and %d seeds in 24 rounds, want 22 and 2", folds, seeds)
				}
			})
		}
	}
}

// TestAccumulatorsBatchingInvariance maintains each invertible shape by
// refreshes of every interval and by refreshes of every second one, both
// from stored accumulators, and compares both results with a fresh
// evaluation, byte for byte: refresh(Δ₁∪Δ₂) ≡ refresh(Δ₁); refresh(Δ₂).
func TestAccumulatorsBatchingInvariance(t *testing.T) {
	for qi, q := range accumQueries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			h, rng, nextA := accumHarness(t, int64(10+qi))
			p := h.bind(q)
			start := h.versions()
			rows0, err := ivm.EvalAsOf(p, start, h.env)
			if err != nil {
				t.Fatal(err)
			}
			every, second := materialize(rows0), materialize(rows0)
			var everyStore, secondStore ivm.AggStore
			from, from2 := start, start
			for round := 0; round < 20; round++ {
				h.churn(rng, &nextA, int64(round%4)*3)
				to := h.versions()
				cs, _ := h.deltaStored(p, ivm.Interval{From: from, To: to}, &everyStore, true)
				every, from = applyDelta(t, every, cs), to
				if round%2 == 1 {
					cs, _ := h.deltaStored(p, ivm.Interval{From: from2, To: to}, &secondStore, true)
					second, from2 = applyDelta(t, second, cs), to
					rows, err := ivm.EvalAsOf(p, to, h.env)
					if err != nil {
						t.Fatal(err)
					}
					full := rowKeys(materialize(rows))
					if got := rowKeys(every); !reflect.DeepEqual(got, full) {
						t.Fatalf("round %d: one refresh per interval differs from a full evaluation\ngot:  %v\nwant: %v", round, got, full)
					}
					if got := rowKeys(second); !reflect.DeepEqual(got, full) {
						t.Fatalf("round %d: one refresh per two intervals differs from a full evaluation\ngot:  %v\nwant: %v", round, got, full)
					}
				}
			}
		})
	}
}

// rowKeys encodes each row by its injective key, so that INT 3 and FLOAT
// 3.0 differ.
func rowKeys(rows map[string]types.Row) map[string]string {
	out := make(map[string]string, len(rows))
	for id, r := range rows {
		out[id] = r.Key()
	}
	return out
}

// TestAccumulatorsDeclineUnrepresentableInput checks the cases the state
// cannot hold, each followed by deletions that would expose a state that
// held them anyway. FLOAT 0.0 keys join the INT 0 group, whose key comes
// from its first row, and then the INT rows go; FLOAT SUM arguments make
// the group's sum a FLOAT, and then they go. Either kills the node: it
// takes the boundary path from then on and is seeded once. Aggregates
// outside the invertible set never get a state.
func TestAccumulatorsDeclineUnrepresentableInput(t *testing.T) {
	deleteWhere := func(h *harness, drop func(types.Row) bool) {
		h.mutate("t", func(live map[string]types.Row, cs *delta.ChangeSet) {
			for _, id := range slices.Sorted(maps.Keys(live)) {
				if drop(live[id]) {
					cs.AddDelete(id, live[id])
				}
			}
		})
	}
	row := func(a int64, b, c types.Value) types.Row {
		return types.Row{types.NewInt(a), b, c, types.NewString("x")}
	}
	for _, tc := range []struct {
		name, sql string
		// step runs a round's changes; nil churns at random.
		step  func(h *harness, round int64)
		seeds int64
	}{
		{"mixed key kinds", `SELECT b, count(*) n, sum(a) s FROM t GROUP BY b`, func(h *harness, round int64) {
			switch round {
			case 2:
				h.insert("t", row(1000, types.NewFloat(0), types.NewInt(1)))
			case 4:
				deleteWhere(h, func(r types.Row) bool { return r[1].Kind() == types.KindInt && r[1].Int() == 0 })
			default:
				h.insert("t", row(1000+round, types.NewInt(round%12), types.NewInt(1)))
			}
		}, 1},
		{"float sum", `SELECT b, sum(c) s FROM t GROUP BY b`, func(h *harness, round int64) {
			switch round {
			case 2:
				h.insert("t", row(1000, types.NewInt(5), types.NewFloat(0.5)))
			case 4:
				deleteWhere(h, func(r types.Row) bool { return r[2].Kind() == types.KindFloat })
			default:
				h.insert("t", row(1000+round, types.NewInt(round%12), types.NewInt(round)))
			}
		}, 1},
		{"min", `SELECT b, min(c) m FROM t GROUP BY b`, nil, 0},
		{"avg", `SELECT b, avg(c) m FROM t GROUP BY b`, nil, 0},
		{"distinct count", `SELECT b, count(DISTINCT c) m FROM t GROUP BY b`, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, rng, nextA := accumHarness(t, 7)
			p := h.bind(tc.sql)
			var store ivm.AggStore
			var seeds, folds int64
			from := h.versions()
			for round := int64(0); round < 10; round++ {
				if tc.step != nil {
					tc.step(h, round)
				} else {
					h.churn(rng, &nextA, -1)
				}
				iv := ivm.Interval{From: from, To: h.versions()}
				got, st := h.deltaStored(p, iv, &store, true)
				want, _ := h.deltaStored(p, iv, nil, true)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: change set differs from the boundary path's\ngot:  %v\nwant: %v", round, got.Changes, want.Changes)
				}
				seeds += st.AccumulatorSeeds
				folds += st.AccumulatorFolds
				from = iv.To
			}
			if seeds != tc.seeds {
				t.Errorf("seeded %d times, want %d", seeds, tc.seeds)
			}
			if tc.seeds == 0 && folds != 0 {
				t.Errorf("folded %d times without a state", folds)
			}
		})
	}
}
