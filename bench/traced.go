package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dyntables/internal/server"
)

// The traced run produces the per-layer metrics. Every layer is measured
// from outside, by timing calls into its public functions; nothing in the
// engine is instrumented. The procedure is the same for every workload —
// what the workload decides is the engine configuration, the table size and
// the size of a change (its delta) — so every per-layer metric exists on
// every workload and a prediction of "no change on workload X" can be read
// off the same metric name.
//
//  1. replay: the workload's own loop at 1/ReplayDivisor of its operation
//     count, with a whole-operation span on every second operation; the
//     difference between spanned and unspanned operations is the tracing
//     overhead.
//  2. durability: checkpoint, snapshot I/O and crash-image recovery on a side
//     engine of serve_write's shape.
//  3. statements: sampled reads executed whole over HTTP, then re-executed
//     embedded, then through sql.Parse, the binder, the optimizer and the
//     executor: server.roundtrip ⊃ session.exec ⊃ {sql.parse, plan.bind,
//     plan.optimize, exec.run}.
//  4. standalone probes of storage, txn and persist on tables built from the
//     same generated rows.
//  5. refresh rounds: a delta is applied, then on even rounds each DT is
//     refreshed serially under core.refresh ⊃ {plan.bind, ivm.delta,
//     storage.apply}, with its REFRESH_MODE=FULL sibling refreshed beside it;
//     on odd rounds the scheduler runs the same DTs as one wave.
//  6. a reader beside a writer.

// tracedMemoryLimit bounds the heap of a traced run while quiet pauses the
// collector.
const tracedMemoryLimit = 6 << 30

// tracedShape is what a workload contributes to its traced run: whether the
// engine writes a WAL, the table size, and the size of one change.
func tracedShape(name string, sz sizes) (durable bool, rows, delta int, err error) {
	switch name {
	case "refresh_trickle", "serve_read":
		return false, sz.MemRows, sz.TrickleDelta, nil
	case "refresh_bulk":
		return false, sz.MemRows, sz.BulkDelta, nil
	case "serve_write":
		return true, sz.DurableRows, sz.WriteInsert + sz.WriteUpdate, nil
	}
	return false, 0, 0, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// probe is the state the per-layer probes share.
type probe struct {
	v     *env
	b     *bed
	f     *front
	ct    *countingTransport
	sess  *server.RemoteSession
	rec   *recorder
	delta int

	*collector
	m       map[string]metric
	nested  int // child spans laid out by recorder.nest
	clipped int // of those, cut at their parent's end
}

func (p *probe) set(name string, value float64, unit string, n int) {
	p.m[name] = metric{Value: value, Unit: unit, N: n}
}

// tree records one decomposed operation.
func (p *probe) tree(name string, d time.Duration, start time.Time, children ...child) {
	_, clipped := p.rec.nest(p.rec.newOp(), 0, start, name, d, children)
	p.clipped += clipped
	p.nested += countChildren(children)
}

func countChildren(cs []child) int {
	n := len(cs)
	for _, c := range cs {
		n += countChildren(c.children)
	}
	return n
}

// runTraced is the traced run of one workload.
func runTraced(v *env, name string, outDir string) (map[string]metric, *collector, error) {
	durable, rows, delta, err := tracedShape(name, v.sz)
	if err != nil {
		return nil, nil, err
	}
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(tracedMemoryLimit))
	p := &probe{v: v, rec: newRecorder(name), delta: delta, collector: newCollector(nil), m: map[string]metric{}}

	if err := p.replay(name); err != nil {
		return nil, nil, err
	}
	if err := p.durability(); err != nil {
		return nil, nil, err
	}

	dir := ""
	if durable {
		if dir, err = v.scratch.dir("traced"); err != nil {
			return nil, nil, err
		}
	}
	// Traced engines run on the virtual clock even when durable, so that a
	// refresh round can advance time by one period like the refresh
	// workloads do.
	b, err := newBed(bedConfig{seed: v.episodeSeed(0), rows: rows, dir: dir, kinds: dtKinds, fullSiblings: true})
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	p.b = b
	p.ct = &countingTransport{}
	if p.f, err = serve(b.e, p.ct); err != nil {
		return nil, nil, err
	}
	defer p.f.stop()
	if p.sess, err = p.f.cli.NewSession(v.ctx, ""); err != nil {
		return nil, nil, err
	}
	defer p.sess.Close()

	// refreshRounds pauses the collector section by section itself: a whole
	// bulk round allocates more than is sensible to hold.
	for _, step := range []func() error{
		p.sqlProbe, p.statements, p.serverProbe, p.schedProbe, p.storageProbe, p.txnProbe, p.persistProbe,
	} {
		if err := quiet(step); err != nil {
			return nil, nil, err
		}
	}
	for _, step := range []func() error{p.refreshRounds, p.contention} {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}

	totals, err := selfByName(p.rec.spans)
	if err != nil {
		return nil, nil, fmt.Errorf("span tree: %w", err)
	}
	p.set("core.self_share", share(totals["core.refresh"]), "ratio", 0)
	p.set("bench.clipped_span_share", float64(p.clipped)/float64(max(p.nested, 1)), "ratio", p.nested)
	if outDir != "" {
		if err := p.rec.write(outDir); err != nil {
			return nil, nil, err
		}
	}
	return p.m, p.collector, nil
}

// quiet runs one probe section with the garbage collector paused, after a
// collection. With several hundred MB live, a cycle that lands inside a
// timed call multiplies its duration (a 0.3 s window differentiation was
// measured at 1 s), so an unpaused layer number says when the collector ran,
// not what the layer did. The untraced run never pauses it: collection cost
// is part of every end-to-end metric, cpu_ms_per_op above all. The memory
// limit set by runTraced still starts a cycle if a section outgrows it.
func quiet(section func() error) error {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return section()
}

func share(t layerTotals) float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.self) / float64(t.total)
}

// replay runs the workload's own loop, shortened, with whole-operation spans
// on alternate operations.
func (p *probe) replay(name string) error {
	rv := *p.v
	rv.sz.Episodes = 1
	d := rv.sz.ReplayDivisor
	// At least six of everything, so that both halves have a median.
	rv.sz.TrickleRounds = max(rv.sz.TrickleRounds/d, 6)
	rv.sz.BulkRounds = max(rv.sz.BulkRounds/d, 6)
	rv.sz.ReadStmts = max(rv.sz.ReadStmts/d, 6)
	rv.sz.WriteCycles = max(rv.sz.WriteCycles/d, 6)
	rv.rec = p.rec
	o, err := runWorkload(&rv, name)
	if err != nil {
		return err
	}
	p.merge(&collector{attempted: o.attempted, failed: o.failed, errs: o.errs})
	// Overhead is the whole-operation difference between the two halves,
	// summed over operation kinds by their medians.
	var with, without time.Duration
	n := 0
	for k, s := range o.spanned {
		if u := o.unspanned[k]; len(u) > 0 {
			with += s.median()
			without += u.median()
			n += len(s)
		}
	}
	if without == 0 {
		return fmt.Errorf("replay of %s measured no operations", name)
	}
	p.set("bench.trace_overhead_share", float64(with-without)/float64(without), "ratio", n)
	return nil
}
