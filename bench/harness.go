package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dyntables"
	"dyntables/internal/server"
	"dyntables/internal/types"
	"dyntables/internal/warehouse"
)

// waveStep is one canonical refresh period of a 2-minute target lag: a round
// advances the virtual clock by exactly this much and runs the scheduler,
// which then refreshes every DT once.
const waveStep = 48 * time.Second

// engineConfig is the configuration every engine of the benchmark runs with.
var engineConfig = dyntables.WithConfig(dyntables.Config{RefreshWorkers: 2})

// bed is one engine under test with its generator and shadow model.
type bed struct {
	e     *dyntables.Engine
	s     *dyntables.Session
	g     *gen
	dir   string        // data directory; empty for an in-memory engine
	setup time.Duration // schema + load + DT create/initialise
}

// bedConfig selects an engine configuration. The benchmark uses three:
// in-memory on the virtual clock (dir empty), durable on the wall clock —
// what `dtserve -data` runs — and, in traced runs only, durable on the
// virtual clock so that refresh rounds can step time.
type bedConfig struct {
	seed         int64
	rows         int
	dir          string // data directory; empty for an in-memory engine
	wallClock    bool
	kinds        []string // DT kinds to create
	fullSiblings bool     // also create a REFRESH_MODE=FULL sibling per kind
}

// newBed builds an engine, loads cfg.rows facts rows through loadBatch-row
// INSERT statements and creates the DTs.
func newBed(cfg bedConfig) (*bed, error) {
	b := &bed{g: newGen(cfg.seed, cfg.rows), dir: cfg.dir}
	script := b.g.setupSQL()
	for _, k := range cfg.kinds {
		script = append(script, dtDDL(k, false))
	}
	if cfg.fullSiblings {
		for _, k := range cfg.kinds {
			script = append(script, dtDDL(k, true))
		}
	}
	opts := []dyntables.Option{engineConfig}
	if cfg.wallClock {
		opts = append(opts, dyntables.WithWallClock())
	} else {
		// The default cost model charges 1 ms of virtual time per scanned
		// row; a refresh would then outlast its period and the scheduler
		// would skip waves. A fixed cost keeps one full wave per round.
		opts = append(opts, dyntables.WithCostModel(warehouse.CostModel{Fixed: time.Millisecond}))
	}
	start := time.Now()
	if cfg.dir == "" {
		b.e = dyntables.New(opts...)
	} else {
		e, err := dyntables.Open(cfg.dir, opts...)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", cfg.dir, err)
		}
		b.e = e
	}
	b.s = b.e.NewSession()
	for _, stmt := range script {
		if _, err := b.s.Exec(stmt); err != nil {
			b.close()
			return nil, fmt.Errorf("set-up statement %.60q: %w", stmt, err)
		}
	}
	b.setup = time.Since(start)
	return b, nil
}

func (b *bed) close() {
	// Closing a durable engine takes a final checkpoint; it is teardown and
	// is never inside a timed section.
	_ = b.e.ForceClose()
}

// wave advances the clock one canonical period and runs the scheduler. It
// reports how many refreshes ran and how many were skipped.
func (b *bed) wave() (ran, skipped int, err error) {
	before := b.e.Scheduler().Stats()
	b.e.AdvanceTime(waveStep)
	if err := b.e.RunScheduler(); err != nil {
		return 0, 0, err
	}
	after := b.e.Scheduler().Stats()
	ran = (after.Incremental + after.Full + after.Reinit + after.Initialize) -
		(before.Incremental + before.Full + before.Reinit + before.Initialize)
	return ran, after.Skips - before.Skips, nil
}

// execDML runs one generated write and checks the affected row count.
func (b *bed) execDML(ctx context.Context, d dml) error {
	res, err := b.s.ExecContext(ctx, d.sql)
	if err != nil {
		return fmt.Errorf("%s: %w", d.kind, err)
	}
	if res.RowsAffected != d.rows {
		return fmt.Errorf("%s affected %d rows, want %d", d.kind, res.RowsAffected, d.rows)
	}
	return nil
}

// remoteDML runs one generated write over the wire and checks the affected
// row count.
func remoteDML(ctx context.Context, sess *server.RemoteSession, d dml) error {
	res, err := sess.Exec(ctx, d.sql)
	if err != nil {
		return fmt.Errorf("%s: %w", d.kind, err)
	}
	if res.RowsAffected != d.rows {
		return fmt.Errorf("%s affected %d rows, want %d", d.kind, res.RowsAffected, d.rows)
	}
	return nil
}

// checkTotals compares sum(c), sum(total) of dt_agg — or count(*), sum(v) of
// facts — with the shadow model.
func (b *bed) checkTotals(s *dyntables.Session, query string) error {
	res, err := s.Exec(query)
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != b.g.m.rows() || res.Rows[0][1].Int() != b.g.m.total() {
		return fmt.Errorf("%s = %v, model has %d rows summing to %d", query, res.Rows, b.g.m.rows(), b.g.m.total())
	}
	return nil
}

// reduceValues folds an embedded result into (rows, count sum, value sum).
func reduceValues(op readOp, rows [][]types.Value) (int, int64, int64) {
	var count, sum int64
	for _, r := range rows {
		sum += r[op.sumCol].Int()
		if op.countCol >= 0 {
			count += r[op.countCol].Int()
		}
	}
	return len(rows), count, sum
}

// wireInt decodes a numeric cell of a wire result.
func wireInt(v any) int64 {
	n, _ := v.(json.Number)
	i, _ := n.Int64()
	return i
}

// execRead runs a generated read on an embedded session and checks it.
func execRead(ctx context.Context, s *dyntables.Session, op readOp) error {
	res, err := s.ExecContext(ctx, op.sql, op.args...)
	if err != nil {
		return err
	}
	return op.check(reduceValues(op, res.Rows))
}

// front is an engine behind the HTTP cursor protocol on a loopback listener.
type front struct {
	cli  *server.Client
	stop func()
}

// countingTransport counts requests and response body bytes (traced runs).
type countingTransport struct {
	base     http.RoundTripper
	requests atomic.Int64
	bytes    atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// serve mounts the engine behind server.New(...).Handler() on 127.0.0.1:0.
// counter, when non-nil, wraps the client transport.
func serve(e *dyntables.Engine, counter *countingTransport) (*front, error) {
	srv := server.New(server.Config{Backend: dyntables.NewServerBackend(e)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	hc := &http.Client{Transport: tr}
	if counter != nil {
		counter.base = tr
		hc.Transport = counter
	}
	cli := server.NewClient(ln.Addr().String(), "")
	cli.SetHTTPClient(hc)
	return &front{cli: cli, stop: func() {
		srv.Shutdown()
		_ = hs.Close()
		<-done
		tr.CloseIdleConnections()
	}}, nil
}

// remoteRead runs a generated read over the wire and checks it. A
// range_scan goes through a paged cursor and is drained.
func remoteRead(ctx context.Context, sess *server.RemoteSession, op readOp) error {
	if op.kind == "range_scan" {
		rows, err := sess.QueryPaged(ctx, pageRows, op.sql, op.args...)
		if err != nil {
			return err
		}
		n, sum := 0, int64(0)
		for rows.Next() {
			n++
			sum += wireInt(rows.Row()[op.sumCol])
		}
		if err := rows.Err(); err != nil {
			return err
		}
		if err := rows.Close(); err != nil {
			return err
		}
		return op.check(n, 0, sum)
	}
	res, err := sess.Exec(ctx, op.sql, op.args...)
	if err != nil {
		return err
	}
	var count, sum int64
	for _, r := range res.Rows {
		sum += wireInt(r[op.sumCol])
		if op.countCol >= 0 {
			count += wireInt(r[op.countCol])
		}
	}
	return op.check(len(res.Rows), count, sum)
}

// scratch hands out directories under the benchmark's output directory and
// removes them all at exit, so nothing is written outside the checkout.
type scratch struct {
	root string
	n    int
}

func (s *scratch) dir(name string) (string, error) {
	s.n++
	d := filepath.Join(s.root, fmt.Sprintf("%s-%d", name, s.n))
	return d, os.MkdirAll(d, 0o755)
}

func (s *scratch) cleanup() { _ = os.RemoveAll(s.root) }

// copyDir copies the regular files of a data directory — the crash image a
// process kill would leave: snapshot plus WAL tail. The engine's lock is an
// flock on its own WAL file, so the copy is free to be opened.
func copyDir(dst, src string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, en := range ents {
		if !en.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, en.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, en.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
