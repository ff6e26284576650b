package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dyntables/internal/persist"
)

// contention measures a reader beside a writer on the traced engine, over
// HTTP: first contendedReads point reads with nothing else running, then
// point reads while the writer commits contendedDML deltas. The ratio of the
// two medians is what sharing the engine with a writer costs a read; the
// slowest contended read is the longest stall. Reads are checked for their
// row, not their value: the writer's UPDATEs race with them.
func (p *probe) contention() error {
	g := p.b.g.fork(3)
	// The writer deletes from the bottom of the id range; the reader keeps
	// to the top half, which no delete of this probe reaches.
	from := g.m.lo + g.m.rows()/2
	read := func() (time.Duration, error) {
		op := g.pointRead(from, g.m.next)
		start := time.Now()
		res, err := p.sess.Exec(p.v.ctx, op.sql, op.args...)
		if err == nil && len(res.Rows) != 1 {
			err = fmt.Errorf("contended point read of %v returned %d rows", op.args, len(res.Rows))
		}
		return time.Since(start), err
	}
	var alone, contended samples
	for i := 0; i < p.v.sz.ContendedReads; i++ {
		d, err := read()
		p.check(err)
		alone.add(d)
	}

	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d, err := read()
			p.check(err)
			contended.add(d)
			reads.Add(1)
		}
	}()
	// The writer commits contendedDML deltas, and keeps going (within
	// reason) until the reader has something to show for it.
	const minReads = 10
	var werr error
	for i := 0; (i < p.v.sz.ContendedDML || reads.Load() < minReads) && i < 20*p.v.sz.ContendedDML && werr == nil; i++ {
		for _, d := range p.b.g.delta(p.delta) {
			if werr = p.b.execDML(p.v.ctx, d); werr != nil {
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		return werr
	}
	a, c := alone.sorted(), contended.sorted()
	if len(c) < minReads {
		return fmt.Errorf("contention probe: the reader completed %d reads beside the writer", len(c))
	}
	p.set("session.contended_read_ratio", float64(c.quantile(0.5))/float64(a.quantile(0.5)), "ratio", len(c))
	p.set("session.read_stall_max_ms", ms(c[len(c)-1]), "ms", len(c))
	return nil
}

// durability measures the checkpoint and recovery path on a side engine of
// serve_write's shape (durableRows facts, dt_agg and dt_join, wall clock),
// whatever the workload: write cycles grow a WAL tail, a forced checkpoint
// folds it, more cycles grow another tail, and the directory's crash image
// is recovered. The checkpoint's snapshot is then read and written again
// through persist alone, which splits both totals into the engine's share
// (building the snapshot, restoring and replaying) and persist's
// (encode/decode and file I/O).
//
// Durability here is process-kill level: WAL.Append does not fsync, and the
// copy reads through the OS cache. Times are the sandbox's, not a device's.
func (p *probe) durability() error {
	const durabilityReps = 3 // of each read, write and recovery
	v := p.v
	dir, err := v.scratch.dir("durability")
	if err != nil {
		return err
	}
	b, err := newBed(bedConfig{seed: v.episodeSeed(1), rows: v.sz.DurableRows, dir: dir, wallClock: true, kinds: serveWriteKinds})
	if err != nil {
		return err
	}
	defer b.close()
	cycles := func() error {
		for c := 0; c < v.sz.ContendedDML; c++ {
			for _, d := range b.g.writeCycle(v.sz.WriteInsert, v.sz.WriteUpdate) {
				if err := b.execDML(v.ctx, d); err != nil {
					return err
				}
			}
			if err := b.s.ManualRefresh("dt_agg"); err != nil {
				return err
			}
		}
		return nil
	}

	ps0, _ := b.e.PersistStats()
	user0 := b.g.m.userBytes
	if err := cycles(); err != nil {
		return err
	}
	ps1, _ := b.e.PersistStats()
	userAtCheckpoint := b.g.m.userBytes
	p.set("persist.wal_bytes_per_user_byte",
		float64(ps1.WALAppendedBytes-ps0.WALAppendedBytes)/float64(b.g.m.userBytes-user0), "ratio", 0)

	checkpoint := p.do(true, b.e.Checkpoint, "probe.checkpoint")
	var snap *persist.Snapshot
	snapRead, err := medianDur(durabilityReps, func() error {
		snap, err = persist.ReadSnapshot(dir)
		if err == nil && snap == nil {
			err = fmt.Errorf("the checkpoint left no snapshot in %s", dir)
		}
		return err
	})
	if err != nil {
		return err
	}
	rewrite, err := v.scratch.dir("snapshot_probe")
	if err != nil {
		return err
	}
	snapWrite, err := medianDur(durabilityReps, func() error { return persist.WriteSnapshot(rewrite, snap) })
	if err != nil {
		return err
	}
	size, err := fileSize(rewrite, persist.SnapshotName)
	if err != nil {
		return err
	}

	if err := cycles(); err != nil {
		return err
	}
	var recovers samples
	for i := 0; i < durabilityReps; i++ {
		d, err := recoverCopy(v, b, p.collector)
		if err != nil {
			return err
		}
		recovers.add(d)
	}
	recovered := recovers.median()

	p.set("session.checkpoint_s", checkpoint.Seconds(), "s", 1)
	p.set("session.recover_s", recovered.Seconds(), "s", durabilityReps)
	p.set("persist.snapshot_write_s", snapWrite.Seconds(), "s", durabilityReps)
	p.set("persist.snapshot_read_s", snapRead.Seconds(), "s", durabilityReps)
	p.set("persist.snapshot_bytes_per_user_byte", float64(size)/float64(userAtCheckpoint), "ratio", 0)
	p.set("session.snapshot_build_s", (checkpoint - snapWrite).Seconds(), "s", 1)
	p.set("session.replay_s", (recovered - snapRead).Seconds(), "s", 1)
	return nil
}

// fileSize is the size of a file in a data directory.
func fileSize(dir, name string) (int64, error) {
	st, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
