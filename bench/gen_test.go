package main

import (
	"fmt"
	"strings"
	"testing"
)

// script renders everything a generator produces for one seed: set-up, a few
// deltas of both sizes, and a stretch of the read mix with its bind values.
func script(seed int64) string {
	g := newGen(seed, 3000)
	var b strings.Builder
	for _, s := range g.setupSQL() {
		fmt.Fprintln(&b, s)
	}
	for i := 0; i < 5; i++ {
		for _, k := range []int{10, 300} {
			for _, d := range g.delta(k) {
				fmt.Fprintln(&b, d.sql)
			}
		}
	}
	f := g.fork(1)
	for i := 0; i < 200; i++ {
		op := f.nextRead()
		fmt.Fprintln(&b, op.sql, op.args)
	}
	return b.String()
}

func TestSameSeedSameSQL(t *testing.T) {
	a := script(7)
	if a != script(7) {
		t.Fatal("the same seed produced different SQL")
	}
	if a == script(8) {
		t.Fatal("different seeds produced identical SQL")
	}
}

// TestModelTracksDeltas checks the shadow model against a recount from the
// row formulas after a mix of inserts, deletes and updates.
func TestModelTracksDeltas(t *testing.T) {
	g := newGen(3, 2000)
	g.setupSQL()
	for i := 0; i < 20; i++ {
		g.delta(50)
	}
	if got := g.m.rows(); got != 2000 {
		t.Fatalf("deltas changed the table size: %d rows", got)
	}
	var cnt, sum [grpCount]int64
	for id := g.m.lo; id < g.m.next; id++ {
		cnt[id%grpCount]++
		sum[id%grpCount] += g.m.v(id)
	}
	if cnt != g.m.cnt || sum != g.m.sum {
		t.Fatal("per-grp counts or sums drifted from a recount")
	}
	for id := range g.m.bump {
		if id < g.m.lo || id >= g.m.next {
			t.Fatalf("bump kept for deleted id %d", id)
		}
	}
}
