package main

import (
	"fmt"
	"time"

	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// insertChanges builds a change set of k inserts with fresh row ids, the
// rows borrowed from the table's current contents.
func insertChanges(t *storage.Table, k int, tag string) (delta.ChangeSet, error) {
	rows, err := t.Rows(int64(t.VersionCount()))
	if err != nil {
		return delta.ChangeSet{}, err
	}
	var donor types.Row
	for _, r := range rows {
		donor = r
		break
	}
	var cs delta.ChangeSet
	for i := 0; i < k; i++ {
		cs.AddInsert(fmt.Sprintf("probe-%s-%d", tag, i), donor)
	}
	return cs, nil
}

// storageProbe measures the facts table's storage operations on zero-copy
// clones, so the engine's own table is left alone: committing a change set
// of each delta size, materialising a version's rows and its columnar batch
// from a cold cache (what the first reader after a commit pays), reading the
// changes of a version interval, and the version chain's footprint.
func (p *probe) storageProbe() error {
	src, err := p.b.e.ResolveTable("facts")
	if err != nil {
		return err
	}
	facts := src.Table
	last := facts.LatestVersion()
	reps := p.v.sz.ProbeSlowReps

	warmClone := func() (*storage.Table, error) {
		c, err := facts.Clone(last.Commit)
		if err == nil {
			_, err = c.Rows(last.Seq)
		}
		return c, err
	}
	for _, size := range []struct {
		name string
		k    int
	}{{"trickle", p.v.sz.TrickleDelta}, {"bulk", p.v.sz.BulkDelta}} {
		clone, err := warmClone()
		if err != nil {
			return err
		}
		i := 0
		d, err := medianDur(reps, func() error {
			i++
			cs, err := insertChanges(clone, size.k, fmt.Sprint(size.name, i))
			if err != nil {
				return err
			}
			_, err = clone.Apply(cs, hlc.Timestamp{WallMicros: last.Commit.WallMicros + int64(i)})
			return err
		})
		if err != nil {
			return err
		}
		p.set("storage.apply_ms."+size.name, ms(d), "ms", reps)
		if size.name == "trickle" {
			from, to := last.Seq, int64(clone.VersionCount())
			d, err := medianDur(reps, func() error {
				_, err := clone.Changes(from, to)
				return err
			})
			if err != nil {
				return err
			}
			p.set("storage.changes_ms", ms(d), "ms", reps)
		}
	}

	var rowsT, batchT samples
	for i := 0; i < reps; i++ {
		clone, err := facts.Clone(last.Commit)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := clone.Rows(last.Seq); err != nil {
			return err
		}
		rowsT.add(time.Since(start))
		start = time.Now()
		if _, err := clone.Batch(last.Seq); err != nil {
			return err
		}
		batchT.add(time.Since(start))
	}
	p.set("storage.rows_rebuild_ms", ms(rowsT.median()), "ms", reps)
	p.set("storage.batch_build_ms", ms(batchT.median()), "ms", reps)

	rows, err := facts.Rows(last.Seq)
	if err != nil {
		return err
	}
	var live int64
	for id, r := range rows {
		live += r.ApproxBytes() + int64(len(id))
	}
	p.set("storage.footprint_bytes_per_live_byte", float64(facts.FootprintStats().Bytes)/float64(live), "ratio", 0)
	return nil
}
