package main

import (
	"time"

	"dyntables/internal/plan"
	"dyntables/internal/sql"
)

// timeBind binds a parsed SELECT against the engine's catalog, as the
// session's planSelect does.
func timeBind(r plan.Resolver, sel *sql.SelectStmt) (*plan.Bound, time.Duration, error) {
	start := time.Now()
	bound, err := plan.NewBinder(r).BindSelect(sel)
	return bound, time.Since(start), err
}

func timeOptimize(n plan.Node) (plan.Node, time.Duration) {
	start := time.Now()
	out := plan.Optimize(n)
	return out, time.Since(start)
}

// planDT prepares a DT's defining query the way core.Controller.bind does
// before every refresh — parse, bind, optimize — and times the whole.
func planDT(r plan.Resolver, kind string) (*plan.Bound, time.Duration, error) {
	start := time.Now()
	sel, _, err := parseSelect(dtQueries[kind])
	if err != nil {
		return nil, 0, err
	}
	bound, _, err := timeBind(r, sel)
	if err != nil {
		return nil, 0, err
	}
	bound.Plan = plan.Optimize(bound.Plan)
	return bound, time.Since(start), nil
}
