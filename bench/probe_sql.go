package main

import (
	"fmt"
	"time"

	"dyntables/internal/sql"
)

// timeParse parses a statement text once.
func timeParse(text string) (sql.Statement, time.Duration, error) {
	start := time.Now()
	stmt, err := sql.Parse(text)
	return stmt, time.Since(start), err
}

// parseSelect parses a SELECT and reports how long the parse took.
func parseSelect(text string) (*sql.SelectStmt, time.Duration, error) {
	stmt, d, err := timeParse(text)
	if err != nil {
		return nil, 0, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, 0, fmt.Errorf("%.40q is not a SELECT", text)
	}
	return sel, d, nil
}

// sqlProbe times the parser alone on the load path's statement: a
// loadBatch-row INSERT ... VALUES, the only bulk ingest path there is. The
// read statements' parse times come out of the statement decomposition.
func (p *probe) sqlProbe() error {
	text := newGen(p.v.seed, 0).insertSQL(loadBatch)
	d, err := medianDur(p.v.sz.ProbeSlowReps, func() error {
		_, _, err := timeParse(text)
		return err
	})
	if err != nil {
		return err
	}
	p.set("sql.parse_us.insert_1000", us(d), "us", p.v.sz.ProbeSlowReps)
	p.set("sql.parse_mb_per_s", float64(len(text))/1e6/d.Seconds(), "MB/s", p.v.sz.ProbeSlowReps)
	return nil
}
