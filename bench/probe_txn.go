package main

import (
	"fmt"
	"time"

	"dyntables/internal/clock"
	"dyntables/internal/txn"
)

// txnProbe times a transaction's commit of one trickle-sized change set to a
// warmed clone of facts through its own txn.Manager: lock acquisition, the
// first-committer-wins check, the HLC stamp and storage.Table.Apply. What it
// takes beyond storage.apply_ms.trickle is the transaction layer's own.
func (p *probe) txnProbe() error {
	src, err := p.b.e.ResolveTable("facts")
	if err != nil {
		return err
	}
	last := src.Table.LatestVersion()
	clone, err := src.Table.Clone(last.Commit)
	if err != nil {
		return err
	}
	if _, err := clone.Rows(last.Seq); err != nil {
		return err
	}
	// The wall clock is ahead of every virtual commit timestamp in the
	// clone's chain, so commits advance past it.
	mgr := txn.NewManager(clock.Wall{})
	var commits samples
	for i := 0; i < p.v.sz.ProbeSlowReps; i++ {
		cs, err := insertChanges(clone, p.v.sz.TrickleDelta, fmt.Sprint("txn", i))
		if err != nil {
			return err
		}
		tx := mgr.Begin()
		if err := tx.Write(clone, cs); err != nil {
			return err
		}
		start := time.Now()
		if _, err := tx.Commit(); err != nil {
			return err
		}
		commits.add(time.Since(start))
	}
	p.set("txn.commit_us", us(commits.median()), "us", len(commits))
	return nil
}
