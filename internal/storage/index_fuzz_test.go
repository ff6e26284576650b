package storage

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyntables/internal/delta"
	"dyntables/internal/types"
)

// FuzzIndexRuns checks the lookup index against a filtered scan. A fuzzed
// input is a seed, which draws the rows' keys (mostly small INTs, some
// NULLs, FLOATs and extreme INTs) and each step's sizes, and a program of
// up to 64 steps, one byte each, over a table and its clones: appends of
// up to 127 rows at once, so that tails reach foldSize and seal into runs
// that merge; deletes and updates of live rows; overwrites;
// data-equivalent appends; compaction folds; clones; and reads of random
// retained versions. A read is Lookup and
// SelectiveLookup over a range (checkLookup), SelectiveLookupKeys over a
// key set, or DistinctKeys. Every lookup that reads must return exactly
// the rows of the version's scan whose key is in range, NULL or of
// another kind, in log order; DistinctKeys must count what one run over
// the segment's entries counts; and after every read the stack must keep
// its invariants (checkStack). The checked-in corpus is in
// testdata/fuzz/FuzzIndexRuns; each mutant below fails it, tried alone in
// a copy of the code:
//   - seal never merges, so a trickle of seals stacks up linearly;
//   - a merged run keeps the upper run's unkeyed positions only;
//   - lookupRanges searches the keys of the top run only;
//   - DistinctKeys counts a key once per run that holds it;
//   - distinctRunKeys does not restore its heap after taking a key.
func FuzzIndexRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		key := func() types.Value {
			switch r := rng.Intn(40); {
			case r == 0:
				return types.Null
			case r == 1:
				return types.NewFloat(float64(rng.Intn(20)) / 2)
			case r == 2:
				return types.NewInt(math.MinInt64)
			case r == 3:
				return types.NewInt(math.MaxInt64)
			default:
				return types.NewInt(rng.Int63n(60) - 10)
			}
		}
		bound := func() int64 {
			switch rng.Intn(8) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			default:
				return rng.Int63n(70) - 15
			}
		}
		tables := []*Table{newTestTable()}
		commit, rows := int64(10), 0
		for i, op := range ops[:min(len(ops), 64)] {
			arg := rng.Intn(256)
			if op&8 != 0 {
				arg = 128 + arg/2 // large appends, overwrites and key sets
			}
			tb := tables[int(op>>4)%len(tables)]
			latest, lo := int64(tb.VersionCount()), tb.CompactedThrough()+1
			seq := lo + int64(arg)%(latest-lo+1)
			commit++
			switch op % 8 {
			case 0: // appends, with deletes and updates of live rows
				if rows > 1500 {
					continue
				}
				b, err := tb.Batch(latest)
				if err != nil {
					t.Fatal(err)
				}
				var cs delta.ChangeSet
				for j, id := range b.IDs() {
					switch x := rng.Intn(256); {
					case x < arg%32:
						cs.AddDelete(id, b.Row(j))
					case x < arg%64:
						cs.AddDelete(id, b.Row(j))
						cs.AddInsert(id, types.Row{key()})
					}
				}
				for n := rng.Intn(1 + arg/2); n > 0; n-- {
					cs.AddInsert(tb.NextRowID(), types.Row{key()})
					rows++
				}
				if _, err := tb.Apply(cs, ts(commit)); err != nil {
					t.Fatalf("step %d: Apply: %v", i, err)
				}
			case 1:
				if arg%4 == 0 {
					if _, err := tb.AppendDataEquivalent(ts(commit)); err != nil {
						t.Fatalf("step %d: AppendDataEquivalent: %v", i, err)
					}
					continue
				}
				over := map[string]types.Row{}
				for n := rng.Intn(1 + arg/3); n > 0; n-- {
					over[tb.NextRowID()] = types.Row{key()}
					rows++
				}
				if _, err := tb.Overwrite(over, ts(commit)); err != nil {
					t.Fatalf("step %d: Overwrite: %v", i, err)
				}
			case 2:
				if _, _, err := tb.Compact(seq); err != nil {
					t.Fatalf("step %d: Compact(%d): %v", i, seq, err)
				}
			case 3:
				if len(tables) == 4 {
					continue
				}
				v, err := tb.VersionBySeq(seq)
				if err != nil {
					t.Fatal(err)
				}
				clone, err := tb.Clone(v.Commit)
				if err != nil {
					t.Fatalf("step %d: Clone: %v", i, err)
				}
				tables = append(tables, clone)
			case 4, 5:
				checkLookup(t, "range", tb, seq, bound(), bound())
				checkStack(t, "range", tb, seq, 0)
			case 6:
				keys := make([]int64, rng.Intn(1+arg/16))
				for j := range keys {
					keys[j] = bound()
				}
				b, ok, err := tb.SelectiveLookupKeys(seq, 0, keys)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				if want := wantKeys(t, tb, seq, keys); !slices.Equal(b.IDs(), want) {
					t.Fatalf("SelectiveLookupKeys(%d, %v) = %v, filtered scan %v", seq, keys, b.IDs(), want)
				}
				checkStack(t, "keys", tb, seq, 0)
			case 7:
				n, ok, err := tb.DistinctKeys(seq, 0)
				if err != nil || !ok {
					t.Fatalf("DistinctKeys(%d): ok %v, %v", seq, ok, err)
				}
				if want := oneRunDistinct(tb.segmentFor(seq).entries); n != want {
					t.Fatalf("DistinctKeys(%d) = %d, one run over the segment counts %d", seq, n, want)
				}
				checkStack(t, "distinct", tb, seq, 0)
			}
		}
	})
}

// oneRunDistinct is DistinctKeys as one run over all of entries counts
// it: the distinct INT values of column 0, and each distinct NULL or
// other-kind value once.
func oneRunDistinct(entries []entry) int {
	keys := map[int64]bool{}
	others := map[string]bool{}
	for i := range entries {
		if v := entries[i].row[0]; v.Kind() == types.KindInt {
			keys[v.Int()] = true
		} else {
			others[string(v.EncodeKey(nil))] = true
		}
	}
	return len(keys) + len(others)
}
