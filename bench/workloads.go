package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dyntables"
	"dyntables/internal/core"
)

// workloadNames is the fixed list; BENCHMARK.json and later issues cite it.
var workloadNames = []string{"refresh_trickle", "refresh_bulk", "serve_read", "serve_write"}

// serveWriteKinds are the DTs of serve_write; the refresh workloads and
// serve_read carry all four kinds.
var serveWriteKinds = []string{"agg", "join"}

// collector gathers what one client (goroutine) observed: every operation
// counts as attempted — warm-up included — and as failed when it errored or
// returned a wrong result; only measured operations contribute samples.
type collector struct {
	attempted, failed int
	errs              []string
	lat               map[string]samples

	// rec, set only while a traced run replays the workload, gets a
	// whole-operation span for every second operation; spanned and
	// unspanned keep the two halves' durations apart by operation kind.
	rec                *recorder
	spanned, unspanned map[string]samples
}

func newCollector(rec *recorder) *collector {
	return &collector{lat: map[string]samples{}, rec: rec,
		spanned: map[string]samples{}, unspanned: map[string]samples{}}
}

// do runs one operation. kinds name the sample sets a measured operation's
// duration joins (an INSERT is both "dml" and "insert").
func (c *collector) do(measured bool, f func() error, kinds ...string) time.Duration {
	start := time.Now()
	err := f()
	end := time.Now()
	d := end.Sub(start)
	if k := kinds[0]; c.rec != nil && measured {
		if (len(c.spanned[k])+len(c.unspanned[k]))%2 == 0 {
			c.rec.add("op."+k, c.rec.newOp(), 0, start, end)
			c.spanned[k] = append(c.spanned[k], time.Since(start)) // recording included
		} else {
			c.unspanned[k] = append(c.unspanned[k], d)
		}
	}
	c.attempted++
	if err != nil {
		c.fail(fmt.Errorf("%s: %w", kinds[0], err))
	}
	if measured {
		for _, k := range kinds {
			c.lat[k] = append(c.lat[k], d)
		}
	}
	return d
}

// check counts a correctness check that is not a timed operation.
func (c *collector) check(err error) {
	c.attempted++
	if err != nil {
		c.fail(err)
	}
}

func (c *collector) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

func (c *collector) merge(o *collector) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, e := range o.errs {
		if len(c.errs) < 5 {
			c.errs = append(c.errs, e)
		}
	}
	for k, v := range o.lat {
		c.lat[k] = append(c.lat[k], v...)
	}
	for k, v := range o.spanned {
		c.spanned[k] = append(c.spanned[k], v...)
	}
	for k, v := range o.unspanned {
		c.unspanned[k] = append(c.unspanned[k], v...)
	}
}

// outcome is everything an untraced run of one workload measured.
type outcome struct {
	*collector
	setups  []float64     // seconds, one per episode
	heaps   []float64     // MB, one per episode
	cpu     time.Duration // process CPU over the measured phases
	elapsed time.Duration // wall time of the measured phases
	iters   int           // measured loop iterations (rounds, statements, cycles)
	work    float64       // measured work units (changed rows, statements)
	extra   map[string]metric
}

func newOutcome(v *env) *outcome {
	return &outcome{collector: newCollector(v.rec), extra: map[string]metric{}}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap in use after full collection. It takes two cycles
// to be rid of what sync.Pool holds (a pool's victim cache survives one):
// encoding/json pools its buffers, and the last checkpoint's is tens of MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// e2e maps an outcome onto the end-to-end metrics of BENCHMARK.json. op and
// aux name the workload's headline and second operation kind.
func (o *outcome) e2e(op, aux string) map[string]metric {
	opS, auxS := o.lat[op].sorted(), o.lat[aux].sorted()
	return map[string]metric{
		"op_p50_ms":     {ms(opS.quantile(0.5)), "ms", len(opS)},
		"op_tail_ms":    {ms(opS.quantile(tailLevel(len(opS)))), "ms", len(opS)},
		"aux_p50_ms":    {ms(auxS.quantile(0.5)), "ms", len(auxS)},
		"work_per_s":    {o.work / o.elapsed.Seconds(), "1/s", 0},
		"cpu_ms_per_op": {ms(o.cpu) / float64(o.iters), "ms", o.iters},
		"live_heap_mb":  {medianOf(o.heaps), "MB", len(o.heaps)},
		"setup_s":       {medianOf(o.setups), "s", len(o.setups)},
	}
}

// env is what every run shares.
type env struct {
	ctx     context.Context
	sz      sizes
	seed    int64
	scratch *scratch
	rec     *recorder // non-nil only while a traced run replays a workload
}

// episodeSeed derives the seed of one episode's engine from the run's seed.
func (v *env) episodeSeed(ep int) int64 { return v.seed*64 + int64(ep) }

// headline names each workload's op and aux operation kinds.
var headline = map[string][2]string{
	"refresh_trickle": {"wave", "dml"},
	"refresh_bulk":    {"wave", "dml"},
	"serve_read":      {"point_read", "join_agg"},
	"serve_write":     {"write_visible", "point_read"},
}

// runWorkload is the untraced run: it returns the outcome whose e2e metrics
// the driver compares.
func runWorkload(v *env, name string) (*outcome, error) {
	switch name {
	case "refresh_trickle":
		return runRefresh(v, v.sz.TrickleDelta, v.sz.TrickleRounds, v.sz.TrickleWarm)
	case "refresh_bulk":
		return runRefresh(v, v.sz.BulkDelta, v.sz.BulkRounds, v.sz.BulkWarm)
	case "serve_read":
		return runServeRead(v)
	case "serve_write":
		return runServeWrite(v)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// runRefresh is refresh_trickle and refresh_bulk: one driver goroutine on
// the embedded Session API of an in-memory engine. A round changes delta
// source rows in three DML statements, then runs one scheduler wave over the
// four DTs.
func runRefresh(v *env, delta, rounds, warm int) (*outcome, error) {
	o := newOutcome(v)
	for ep := 0; ep < v.sz.Episodes; ep++ {
		b, err := newBed(bedConfig{seed: v.episodeSeed(ep), rows: v.sz.MemRows, kinds: dtKinds})
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, b.setup.Seconds())
		runtime.GC()
		var cpu0 time.Duration
		for r := 0; r < warm+rounds; r++ {
			measured := r >= warm
			if r == warm {
				cpu0 = cpuTime()
			}
			var spent time.Duration
			batch := b.g.delta(delta)
			for _, d := range batch {
				spent += o.do(measured, func() error { return b.execDML(v.ctx, d) }, d.kind)
			}
			if measured {
				// One dml sample per round: the mean of its statements. The
				// three kinds cost differently, and a pooled median would
				// sit on the boundary between them.
				o.lat["dml"] = append(o.lat["dml"], spent/time.Duration(len(batch)))
			}
			spent += o.do(measured, func() error {
				ran, skipped, err := b.wave()
				if err == nil && (ran != len(dtKinds) || skipped != 0) {
					err = fmt.Errorf("wave ran %d refreshes and skipped %d, want %d and 0", ran, skipped, len(dtKinds))
				}
				return err
			}, "wave")
			if measured {
				o.elapsed += spent
				o.work += float64(delta)
				o.iters++
			}
		}
		o.cpu += cpuTime() - cpu0
		for _, k := range dtKinds {
			o.check(b.e.CheckDVS("dt_" + k))
		}
		o.check(b.checkTotals(b.s, dtTotalsSQL))
		o.heaps = append(o.heaps, liveHeapMB())
		b.close()
	}
	return o, nil
}

// runServeRead is serve_read: two client connections, each a closed loop of
// read-only statements over the HTTP cursor protocol against an in-memory
// engine. Nothing writes, so refresh, merge and durability code never runs.
func runServeRead(v *env) (*outcome, error) {
	const clients = 2
	o := newOutcome(v)
	for ep := 0; ep < v.sz.Episodes; ep++ {
		b, err := newBed(bedConfig{seed: v.episodeSeed(ep), rows: v.sz.MemRows, kinds: dtKinds})
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, b.setup.Seconds())
		f, err := serve(b.e, nil)
		if err != nil {
			b.close()
			return nil, err
		}
		// Generate every statement before the clock starts, so the closed
		// loop spends its time in the system and not in the generator.
		ops := make([][]readOp, clients)
		for c := range ops {
			g := b.g.fork(c)
			for i := 0; i < v.sz.ReadWarm+v.sz.ReadStmts; i++ {
				ops[c] = append(ops[c], g.nextRead())
			}
		}
		runtime.GC()
		cols := make([]*collector, clients)
		var warmed, done sync.WaitGroup
		warmed.Add(clients)
		done.Add(clients)
		startGate := make(chan struct{})
		for c := 0; c < clients; c++ {
			cols[c] = newCollector(v.rec)
			go func(col *collector, ops []readOp) {
				defer done.Done()
				sess, err := f.cli.NewSession(v.ctx, "")
				if err != nil {
					col.check(err)
					warmed.Done()
					return
				}
				defer sess.Close()
				for i, op := range ops {
					if i == v.sz.ReadWarm {
						warmed.Done()
						<-startGate
					}
					col.do(i >= v.sz.ReadWarm, func() error { return remoteRead(v.ctx, sess, op) }, op.kind)
				}
			}(cols[c], ops[c])
		}
		warmed.Wait()
		cpu0, start := cpuTime(), time.Now()
		close(startGate)
		done.Wait()
		o.elapsed += time.Since(start)
		o.cpu += cpuTime() - cpu0
		for _, col := range cols {
			o.merge(col)
		}
		o.work += float64(clients * v.sz.ReadStmts)
		o.iters += clients * v.sz.ReadStmts
		o.heaps = append(o.heaps, liveHeapMB())
		f.stop()
		if n := b.e.OpenCursors(); n != 0 {
			o.check(fmt.Errorf("%d cursors left open", n))
		}
		b.close()
	}
	return o, nil
}

// runServeWrite is serve_write: the same listener over a durable wall-clock
// engine. Connection A writes in cycles (INSERT, UPDATE, refresh dt_agg,
// read dt_agg — which must already reflect the write) and forces one
// checkpoint mid-run; connection B reads points continuously. Afterwards the
// data directory is copied while the engine is idle but open — the image a
// process kill would leave — and the copy is recovered and verified.
func runServeWrite(v *env) (*outcome, error) {
	o := newOutcome(v)
	var checkpoints, recovers, walRatio []float64
	for ep := 0; ep < v.sz.Episodes; ep++ {
		dir, err := v.scratch.dir("serve_write")
		if err != nil {
			return nil, err
		}
		b, err := newBed(bedConfig{seed: v.episodeSeed(ep), rows: v.sz.DurableRows, dir: dir, wallClock: true, kinds: serveWriteKinds})
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, b.setup.Seconds())
		f, err := serve(b.e, nil)
		if err != nil {
			b.close()
			return nil, err
		}
		runtime.GC()

		var measuring atomic.Bool
		stopReader := make(chan struct{})
		reader := newCollector(v.rec)
		var readerDone sync.WaitGroup
		readerDone.Add(1)
		go func() {
			defer readerDone.Done()
			g := b.g.fork(1)
			sess, err := f.cli.NewSession(v.ctx, "")
			if err != nil {
				reader.check(err)
				return
			}
			defer sess.Close()
			for {
				select {
				case <-stopReader:
					return
				default:
				}
				op := g.pointRead(g.readable())
				reader.do(measuring.Load(), func() error { return remoteRead(v.ctx, sess, op) }, op.kind)
			}
		}()

		w, err := f.cli.NewSession(v.ctx, "")
		if err != nil {
			close(stopReader)
			readerDone.Wait()
			f.stop()
			b.close()
			return nil, err
		}
		var cpu0 time.Duration
		var start time.Time
		var wal0, user0 int64
		for c := 0; c < v.sz.WriteWarm+v.sz.WriteCycles; c++ {
			measured := c >= v.sz.WriteWarm
			if c == v.sz.WriteWarm {
				ps, _ := b.e.PersistStats()
				wal0, user0 = ps.WALAppendedBytes, b.g.m.userBytes
				measuring.Store(true)
				cpu0, start = cpuTime(), time.Now()
			}
			var visible time.Duration
			for _, d := range b.g.writeCycle(v.sz.WriteInsert, v.sz.WriteUpdate) {
				visible += o.do(measured, func() error { return remoteDML(v.ctx, w, d) }, d.kind)
			}
			if measured {
				o.lat["dml"] = append(o.lat["dml"], visible/2)
			}
			visible += o.do(measured, func() error {
				_, err := w.Exec(v.ctx, `ALTER DYNAMIC TABLE dt_agg REFRESH`)
				return err
			}, "refresh")
			visible += o.do(measured, func() error {
				res, err := w.Exec(v.ctx, dtTotalsSQL)
				if err != nil {
					return err
				}
				if len(res.Rows) != 1 || wireInt(res.Rows[0][0]) != b.g.m.rows() || wireInt(res.Rows[0][1]) != b.g.m.total() {
					return fmt.Errorf("first read after refresh saw %v, the write makes it %d rows summing to %d",
						res.Rows, b.g.m.rows(), b.g.m.total())
				}
				return nil
			}, "dt_read")
			if measured {
				o.lat["write_visible"] = append(o.lat["write_visible"], visible)
			}
			if c == v.sz.WriteWarm+v.sz.WriteCycles/2 {
				d := o.do(true, func() error { return f.cli.Checkpoint(v.ctx) }, "checkpoint")
				checkpoints = append(checkpoints, d.Seconds())
			}
		}
		o.elapsed += time.Since(start)
		o.cpu += cpuTime() - cpu0
		measuring.Store(false)
		close(stopReader)
		readerDone.Wait()
		_ = w.Close()
		o.merge(reader)
		o.work += float64(v.sz.WriteCycles * (v.sz.WriteInsert + v.sz.WriteUpdate))
		o.iters += v.sz.WriteCycles
		ps, _ := b.e.PersistStats()
		walRatio = append(walRatio, float64(ps.WALAppendedBytes-wal0)/float64(b.g.m.userBytes-user0))
		o.heaps = append(o.heaps, liveHeapMB())
		f.stop()

		d, err := recoverCopy(v, b, o.collector)
		b.close()
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, d.Seconds())
	}
	o.extra["checkpoint_s"] = metric{medianOf(checkpoints), "s", len(checkpoints)}
	o.extra["recover_s"] = metric{medianOf(recovers), "s", len(recovers)}
	o.extra["wal_bytes_per_user_byte"] = metric{medianOf(walRatio), "ratio", len(walRatio)}
	return o, nil
}

// recoverCopy copies b's data directory as it stands, opens the copy and
// verifies it: every acknowledged row is there, the DTs satisfy delayed view
// semantics, and their next refresh is incremental rather than a
// reinitialisation. It returns how long Open took.
func recoverCopy(v *env, b *bed, col *collector) (time.Duration, error) {
	dir, err := v.scratch.dir("crash_image")
	if err != nil {
		return 0, err
	}
	if err := copyDir(dir, b.dir); err != nil {
		return 0, err
	}
	var e2 *dyntables.Engine
	took := col.do(true, func() error {
		e2, err = dyntables.Open(dir, engineConfig, dyntables.WithWallClock())
		return err
	}, "recover")
	if err != nil {
		return took, nil // counted as a failed operation
	}
	defer e2.ForceClose()
	s2 := e2.NewSession()
	col.check(b.checkTotals(s2, factsSumSQL))
	// One more row on a copy of the model, then refresh: recovery must have
	// kept the frontiers.
	rb := &bed{e: e2, s: s2, g: b.g.fork(0)}
	col.check(rb.execDML(v.ctx, dml{"insert", rb.g.insertSQL(1), 1}))
	for _, k := range serveWriteKinds {
		name := "dt_" + k
		col.check(e2.CheckDVS(name))
		col.check(func() error {
			if err := s2.ManualRefresh(name); err != nil {
				return err
			}
			dt, err := e2.DynamicTableHandle(name)
			if err != nil {
				return err
			}
			if rec, ok := dt.LastRecord(); !ok || rec.Action != core.ActionIncremental {
				return fmt.Errorf("%s: first refresh after recovery was %v, want INCREMENTAL", name, rec.Action)
			}
			return e2.CheckDVS(name)
		}())
	}
	col.check(rb.checkTotals(s2, dtTotalsSQL))
	return took, nil
}
