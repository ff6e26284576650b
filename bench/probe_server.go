package main

import (
	"fmt"
	"strings"
	"time"

	"dyntables/internal/exec"
	"dyntables/internal/plan"
)

// statements decomposes sampled reads of every kind. Each sample is executed
// whole over HTTP, then embedded through Session.ExecContext, then through
// each layer's entry point in turn, and recorded as
// server.roundtrip ⊃ session.exec ⊃ {sql.parse, plan.bind, plan.optimize,
// exec.run}. A layer's self time is its own duration minus its children's:
// server self is wire encoding, HTTP and the protocol handler; session self
// is locking, privilege checks, history recording and result conversion.
func (p *probe) statements() error {
	g := p.b.g.fork(2)
	reps := p.v.sz.ProbeReps
	kinds := []struct {
		name string
		next func() readOp
	}{
		{"point_read", func() readOp { return g.pointRead(g.m.lo, g.m.next) }},
		{"range_scan", g.rangeScan},
		{"dt_read", g.dtRead},
		{"join_agg", g.joinAgg},
	}
	columnarTried, columnarHandled := 0, 0
	for _, k := range kinds {
		var parse, bind, optimize, run, sessionSelf, serverSelf samples
		var respBytes, respRows, requests int64
		for i := 0; i < reps; i++ {
			op := k.next()
			bytes0, req0 := p.ct.bytes.Load(), p.ct.requests.Load()
			start := time.Now()
			dRT := p.do(true, func() error { return remoteRead(p.v.ctx, p.sess, op) }, "probe."+k.name)
			respBytes += p.ct.bytes.Load() - bytes0
			requests += p.ct.requests.Load() - req0
			respRows += int64(op.wantRows)
			dSE := p.do(true, func() error { return execRead(p.v.ctx, p.b.s, op) }, "probe."+k.name)

			node, dParse, dBind, dOpt, err := p.planRead(op)
			if err != nil {
				return err
			}
			n, dRun, err := timeExec(node, execContext(p.v.ctx, p.b.e.Now(), op.args, nil))
			if err == nil && n != op.wantRows {
				err = fmt.Errorf("exec.run of %s returned %d rows, want %d", k.name, n, op.wantRows)
			}
			p.check(err)

			_, handled, err := exec.RunColumnar(node, execContext(p.v.ctx, p.b.e.Now(), op.args, nil))
			p.check(err)
			columnarTried++
			if handled {
				columnarHandled++
			}

			p.tree("server.roundtrip", dRT, start, child{"session.exec", dSE, []child{
				{"sql.parse", dParse, nil}, {"plan.bind", dBind, nil},
				{"plan.optimize", dOpt, nil}, {"exec.run", dRun, nil}}})
			parse.add(dParse)
			bind.add(dBind)
			optimize.add(dOpt)
			run.add(dRun)
			sessionSelf.add(dSE - dParse - dBind - dOpt - dRun)
			serverSelf.add(dRT - dSE)
		}
		med := func(s samples) float64 { return us(s.median()) }
		p.set("exec.run_us."+k.name, med(run), "us", reps)
		switch k.name {
		case "point_read", "join_agg":
			p.set("sql.parse_us."+k.name, med(parse), "us", reps)
			p.set("plan.bind_us."+k.name, med(bind), "us", reps)
			p.set("session.self_us."+k.name, med(sessionSelf), "us", reps)
		}
		if k.name == "join_agg" {
			p.set("plan.optimize_us.join_agg", med(optimize), "us", reps)
		}
		if k.name == "point_read" || k.name == "range_scan" {
			p.set("server.self_us."+k.name, med(serverSelf), "us", reps)
		}
		if k.name == "range_scan" {
			p.set("server.resp_bytes_per_row", float64(respBytes)/float64(respRows), "B/row", reps)
			p.set("server.requests_per_cursor", float64(requests)/float64(reps), "count", reps)
		}
	}
	p.set("exec.columnar_handled_share", float64(columnarHandled)/float64(columnarTried), "ratio", columnarTried)

	// Rows the executor scans per row a point read returns: the table size
	// for as long as a point read is a full scan.
	op := g.pointRead(g.m.lo, g.m.next)
	node, _, _, _, err := p.planRead(op)
	if err != nil {
		return err
	}
	counters := &exec.Counters{}
	n, _, err := timeExec(node, execContext(p.v.ctx, p.b.e.Now(), op.args, counters))
	if err != nil || n != 1 {
		return fmt.Errorf("counted point read returned %d rows: %v", n, err)
	}
	p.set("exec.scan_rows_per_row_out.point_read", float64(counters.ScanRows)/float64(n), "rows/row", 1)
	return nil
}

// planRead takes a read's text through parser, binder and optimizer, as the
// session's planSelect does, timing each.
func (p *probe) planRead(op readOp) (node plan.Node, parse, bind, optimize time.Duration, err error) {
	sel, parse, err := parseSelect(op.sql)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	bound, bind, err := timeBind(p.b.e, sel)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	node, optimize = timeOptimize(bound.Plan)
	return node, parse, bind, optimize, nil
}

// serverProbe times opening a protocol session, and the server's share of a
// write: an INSERT of the workload's size into an empty side table, over
// HTTP and embedded in turn. On facts the commit costs tens of milliseconds
// and would drown the difference; on the side table the engine's part is
// small and the same on both sides, so what remains is the wire — request
// decoding grows with the statement text.
func (p *probe) serverProbe() error {
	if _, err := p.b.s.Exec(strings.Replace(factsDDL, "facts", "sink", 1)); err != nil {
		return err
	}
	g := newGen(p.v.seed, 0)
	rows := max(p.delta*4/10, 1)
	var remote, embedded samples
	for i := 0; i < p.v.sz.ProbeReps/4+1; i++ {
		for _, overWire := range []bool{true, false} {
			ins := dml{"insert", strings.Replace(g.insertSQL(rows), "INTO facts", "INTO sink", 1), rows}
			d := p.do(true, func() error {
				if overWire {
					return remoteDML(p.v.ctx, p.sess, ins)
				}
				return p.b.execDML(p.v.ctx, ins)
			}, "probe.sink_insert")
			if overWire {
				remote.add(d)
			} else {
				embedded.add(d)
			}
			// Empty the table again, so that every insert commits to a tip
			// of the same (zero) size.
			if err := p.b.execDML(p.v.ctx, dml{"delete", `DELETE FROM sink WHERE id >= 0`, rows}); err != nil {
				return err
			}
		}
	}
	p.set("server.self_us.dml", us(remote.median()-embedded.median()), "us", len(remote))

	var open samples
	for i := 0; i < p.v.sz.ProbeReps; i++ {
		start := time.Now()
		s, err := p.f.cli.NewSession(p.v.ctx, "")
		if err != nil {
			return err
		}
		open.add(time.Since(start))
		if err := s.Close(); err != nil {
			return err
		}
	}
	p.set("server.session_open_us", us(open.median()), "us", len(open))
	return nil
}
