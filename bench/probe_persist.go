package main

import (
	"fmt"

	"dyntables/internal/persist"
)

// persistProbe measures the WAL alone, on the commit record of one load
// batch (loadBatch facts rows): encoding the change set, appending the framed
// record, the bytes it takes, and decoding the log again as recovery does.
// Snapshots are measured on the durability side engine (see durability).
func (p *probe) persistProbe() error {
	src, err := p.b.e.ResolveTable("facts")
	if err != nil {
		return err
	}
	cs, err := insertChanges(src.Table, loadBatch, "wal")
	if err != nil {
		return err
	}
	rows := float64(cs.Len())
	reps := p.v.sz.ProbeSlowReps

	var states []persist.ChangeState
	d, err := medianDur(reps, func() error {
		states, err = persist.EncodeChangeSet(cs)
		return err
	})
	if err != nil {
		return err
	}
	p.set("persist.encode_changeset_us_per_row", us(d)/rows, "us/row", reps)

	dir, err := p.v.scratch.dir("wal_probe")
	if err != nil {
		return err
	}
	wal, _, err := persist.OpenWAL(dir, 0)
	if err != nil {
		return err
	}
	schema := persist.EncodeSchema(src.Table.Schema())
	d, err = medianDur(reps, func() error {
		return wal.Append(&persist.Record{Kind: persist.KindCommit, Commit: &persist.CommitRecord{
			TableKey: 1, Kind: persist.CommitApply, Schema: schema, Changes: states}})
	})
	if err != nil {
		return err
	}
	p.set("persist.wal_append_us_per_row", us(d)/rows, "us/row", reps)
	p.set("persist.wal_bytes_per_row", float64(wal.AppendedBytes())/float64(reps)/rows, "B/row", reps)
	if err := wal.Close(); err != nil {
		return err
	}

	d, err = medianDur(reps, func() error {
		wal, recs, err := persist.OpenWAL(dir, 0)
		if err != nil {
			return err
		}
		if len(recs) != reps {
			return fmt.Errorf("WAL replayed %d records, appended %d", len(recs), reps)
		}
		return wal.Close()
	})
	if err != nil {
		return err
	}
	p.set("persist.wal_decode_us_per_record", us(d)/float64(reps), "us/record", reps)
	return nil
}
