package plan

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dyntables/internal/catalog"
	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// VirtualTable is one engine-metadata table (INFORMATION_SCHEMA.*)
// exposed to the planner. Rows produces the current contents; it is
// invoked at bind time, so each reference observes one snapshot for its
// whole cursor lifetime, and the binder memoizes resolution per
// statement so repeated references to the same virtual table (a
// self-join) share one snapshot. References to *different* virtual
// tables in one statement materialize independently and may observe
// events recorded between the two snapshots.
type VirtualTable struct {
	// Name is the fully qualified name (e.g.
	// INFORMATION_SCHEMA.DYNAMIC_TABLES); lookups are case-insensitive.
	Name   string
	Schema types.Schema
	Rows   func() ([]types.Row, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(name string) (*Source, error)

// ResolveTable implements Resolver.
func (f ResolverFunc) ResolveTable(name string) (*Source, error) { return f(name) }

// VirtualResolver is a Resolver layer that serves registered virtual
// tables ahead of a base (catalog) resolver. A virtual table resolves to
// a transient storage table materialized from its Rows callback, so the
// full planner and executor — filters, joins, aggregation, ORDER BY,
// streaming cursors — work over metadata unchanged.
type VirtualResolver struct {
	base Resolver
	// now supplies the commit timestamp for materialized snapshots.
	now func() hlc.Timestamp

	mu     sync.RWMutex
	tables map[string]*VirtualTable
}

// NewVirtualResolver layers virtual-table resolution over base.
func NewVirtualResolver(base Resolver, now func() hlc.Timestamp) *VirtualResolver {
	return &VirtualResolver{base: base, now: now, tables: make(map[string]*VirtualTable)}
}

// Register adds (or replaces) a virtual table.
func (vr *VirtualResolver) Register(vt *VirtualTable) {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	vr.tables[strings.ToUpper(vt.Name)] = vt
}

// Table returns the registered virtual table called name, or nil.
func (vr *VirtualResolver) Table(name string) *VirtualTable {
	vr.mu.RLock()
	defer vr.mu.RUnlock()
	return vr.tables[strings.ToUpper(name)]
}

// Names lists the registered virtual tables, sorted.
func (vr *VirtualResolver) Names() []string {
	vr.mu.RLock()
	defer vr.mu.RUnlock()
	out := make([]string, 0, len(vr.tables))
	for _, vt := range vr.tables {
		out = append(out, vt.Name)
	}
	sort.Strings(out)
	return out
}

// ResolveTable implements Resolver: registered virtual tables win,
// everything else falls through to the base resolver.
func (vr *VirtualResolver) ResolveTable(name string) (*Source, error) {
	vt := vr.Table(name)
	if vt == nil {
		return vr.base.ResolveTable(name)
	}
	rows, err := vt.Rows()
	if err != nil {
		return nil, fmt.Errorf("plan: materializing virtual table %s: %w", vt.Name, err)
	}
	// Two HLC reads: commits must strictly advance past the table's
	// creation version. The rows go in as inserts in the order Rows
	// produced them, which is the order a scan returns them in.
	t := storage.NewTable(vt.Schema, vr.now())
	cs := delta.ChangeSet{Changes: make([]delta.Change, len(rows))}
	for i, r := range rows {
		cs.Changes[i] = delta.Change{RowID: t.NextRowID(), Action: delta.Insert, Row: r}
	}
	if _, err := t.Apply(cs, vr.now()); err != nil {
		return nil, fmt.Errorf("plan: materializing virtual table %s: %w", vt.Name, err)
	}
	return &Source{
		Name:    vt.Name,
		Kind:    catalog.KindTable,
		Table:   t,
		Virtual: true,
	}, nil
}
