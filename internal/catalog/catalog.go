// Package catalog implements the metadata layer: named objects (tables,
// views, dynamic tables, warehouses), dependency tracking for query
// evolution (§5.4), drop/undrop/rename/swap semantics (§3.4), and
// role-based access control with the MONITOR and OPERATE privileges
// (§3.4). It is the engine's one registry of dynamic tables: the
// scheduler reads the live DT entries on every pass, and the compaction
// sweep reads every DT entry, live or dropped (§5.1). The timestamped,
// linearizable DDL log is read only by checkpoints and tests; its
// sequence number, which every DDL statement advances, is what tells a
// DT's bound plan that names may now resolve differently.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dyntables/internal/hlc"
)

// ObjectKind classifies catalog entries.
type ObjectKind uint8

// The catalog object kinds.
const (
	KindTable ObjectKind = iota
	KindView
	KindDynamicTable
	KindWarehouse
)

// String names the kind as it appears in DDL.
func (k ObjectKind) String() string {
	switch k {
	case KindTable:
		return "TABLE"
	case KindView:
		return "VIEW"
	case KindDynamicTable:
		return "DYNAMIC TABLE"
	case KindWarehouse:
		return "WAREHOUSE"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Object is anything stored in the catalog. Concrete payloads (storage
// handles, DT state, warehouse state) are owned by their packages; the
// catalog tracks identity, naming and dependencies.
type Object interface {
	ObjectKind() ObjectKind
}

// Entry is a catalog entry: a stable ID, the current name, the payload and
// dependency edges. Names may change (RENAME/SWAP); IDs never do, which is
// what lets downstream DTs survive upstream renames (§3.4).
type Entry struct {
	ID      int64
	Name    string
	Kind    ObjectKind
	Payload Object
	Owner   string // owning role

	// DependsOn lists the entry IDs this object reads (for views and DTs).
	DependsOn []int64

	// Generation increments every time the object is replaced (CREATE OR
	// REPLACE). Downstream readers compare generations to detect
	// replacement and trigger REINITIALIZE (§5.4).
	Generation int64

	Dropped   bool
	DroppedAt hlc.Timestamp
}

// Privilege is an RBAC privilege.
type Privilege uint8

// The supported privileges (§3.4).
const (
	PrivSelect Privilege = iota
	PrivOwnership
	PrivMonitor
	PrivOperate
)

// String names the privilege.
func (p Privilege) String() string {
	switch p {
	case PrivSelect:
		return "SELECT"
	case PrivOwnership:
		return "OWNERSHIP"
	case PrivMonitor:
		return "MONITOR"
	case PrivOperate:
		return "OPERATE"
	default:
		return fmt.Sprintf("PRIV(%d)", uint8(p))
	}
}

// DDLRecord is one entry of the timestamped, linearizable DDL log.
type DDLRecord struct {
	Seq    int64
	TS     hlc.Timestamp
	Op     string // CREATE, REPLACE, DROP, UNDROP, RENAME, SWAP, ALTER
	Kind   ObjectKind
	ID     int64
	Name   string
	Detail string
}

// GrantSink observes privilege grants and revokes so the durability layer
// can write-ahead-log them. Sinks are invoked with the catalog lock held
// and must not call back into the catalog.
type GrantSink func(objectID int64, p Privilege, role string, revoked bool)

// Catalog is the metadata store. All methods are safe for concurrent use.
type Catalog struct {
	mu sync.RWMutex

	nextID  atomic.Int64
	byName  map[string]*Entry // key: upper-cased name
	byID    map[int64]*Entry
	dropped map[string][]*Entry // graveyard per name, most recent last

	ddlSeq atomic.Int64
	ddlLog []DDLRecord

	grants map[int64]map[Privilege]map[string]bool // object -> priv -> role

	grantSink GrantSink
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		byName:  make(map[string]*Entry),
		byID:    make(map[int64]*Entry),
		dropped: make(map[string][]*Entry),
		grants:  make(map[int64]map[Privilege]map[string]bool),
	}
}

func key(name string) string { return strings.ToUpper(name) }

// Create registers a new object. It fails if the name is taken.
func (c *Catalog) Create(name string, payload Object, owner string, deps []int64, ts hlc.Timestamp) (*Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.create(name, payload, owner, deps, ts)
}

// create is Create with the catalog lock held.
func (c *Catalog) create(name string, payload Object, owner string, deps []int64, ts hlc.Timestamp) (*Entry, error) {
	k := key(name)
	if _, exists := c.byName[k]; exists {
		return nil, fmt.Errorf("catalog: object %q already exists", name)
	}
	e := &Entry{
		ID:        c.nextID.Add(1),
		Name:      name,
		Kind:      payload.ObjectKind(),
		Payload:   payload,
		Owner:     owner,
		DependsOn: append([]int64(nil), deps...),
	}
	c.byName[k] = e
	c.byID[e.ID] = e
	c.grant(e.ID, PrivOwnership, owner)
	c.log(ts, "CREATE", e, "")
	return e, nil
}

// Replace implements CREATE OR REPLACE: the entry keeps its name but gets a
// new payload and an incremented generation, signalling downstream DTs to
// reinitialize (§5.4). If the object does not exist it is created.
func (c *Catalog) Replace(name string, payload Object, owner string, deps []int64, ts hlc.Timestamp) (*Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, exists := c.byName[key(name)]
	if !exists {
		return c.create(name, payload, owner, deps, ts)
	}
	e.Payload = payload
	e.Kind = payload.ObjectKind()
	e.DependsOn = append([]int64(nil), deps...)
	e.Generation++
	c.log(ts, "REPLACE", e, "")
	return e, nil
}

// Get resolves a live object by name.
func (c *Catalog) Get(name string) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.byName[key(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: object %q does not exist", name)
	}
	return e, nil
}

// GetByID resolves an object by stable ID. Dropped objects still resolve —
// downstream DTs hold IDs and need to observe the dropped state to fail
// their refreshes recoverably (§3.4).
func (c *Catalog) GetByID(id int64) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.byID[id]
	if !ok {
		return nil, fmt.Errorf("catalog: no object with id %d", id)
	}
	return e, nil
}

// Exists reports whether a live object with the name exists.
func (c *Catalog) Exists(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.byName[key(name)]
	return ok
}

// LastDropped returns the most recently dropped object with the name: the
// one UNDROP would restore.
func (c *Catalog) LastDropped(name string) (*Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	stack := c.dropped[key(name)]
	if len(stack) == 0 {
		return nil, false
	}
	return stack[len(stack)-1], true
}

// Drop removes the object from the namespace but keeps it in a graveyard
// so UNDROP can restore it (§3.4).
func (c *Catalog) Drop(name string, ts hlc.Timestamp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	e, ok := c.byName[k]
	if !ok {
		return fmt.Errorf("catalog: object %q does not exist", name)
	}
	delete(c.byName, k)
	e.Dropped = true
	e.DroppedAt = ts
	c.dropped[k] = append(c.dropped[k], e)
	c.log(ts, "DROP", e, "")
	return nil
}

// Undrop restores the most recently dropped object with the name. Refreshes
// of downstream DTs resume without issue afterwards (§3.4).
func (c *Catalog) Undrop(name string, ts hlc.Timestamp) (*Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, taken := c.byName[k]; taken {
		return nil, fmt.Errorf("catalog: cannot undrop %q: name in use", name)
	}
	stack := c.dropped[k]
	if len(stack) == 0 {
		return nil, fmt.Errorf("catalog: no dropped object named %q", name)
	}
	e := stack[len(stack)-1]
	c.dropped[k] = stack[:len(stack)-1]
	e.Dropped = false
	e.DroppedAt = hlc.Zero
	c.byName[k] = e
	c.log(ts, "UNDROP", e, "")
	return e, nil
}

// Rename changes an object's name. The ID is stable, so dependents keep
// working (§3.4).
func (c *Catalog) Rename(oldName, newName string, ts hlc.Timestamp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ok, nk := key(oldName), key(newName)
	e, exists := c.byName[ok]
	if !exists {
		return fmt.Errorf("catalog: object %q does not exist", oldName)
	}
	if _, taken := c.byName[nk]; taken {
		return fmt.Errorf("catalog: object %q already exists", newName)
	}
	delete(c.byName, ok)
	e.Name = newName
	c.byName[nk] = e
	c.log(ts, "RENAME", e, "from "+oldName)
	return nil
}

// Swap exchanges the names of two objects atomically (ALTER TABLE ... SWAP
// WITH ...).
func (c *Catalog) Swap(a, b string, ts hlc.Timestamp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ka, kb := key(a), key(b)
	ea, okA := c.byName[ka]
	eb, okB := c.byName[kb]
	if !okA || !okB {
		return fmt.Errorf("catalog: swap requires both %q and %q to exist", a, b)
	}
	ea.Name, eb.Name = eb.Name, ea.Name
	c.byName[ka], c.byName[kb] = eb, ea
	c.log(ts, "SWAP", ea, "with "+b)
	return nil
}

// List returns the live entries of a kind, sorted by name.
func (c *Catalog) List(kind ObjectKind) []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Entry
	for _, e := range c.byName {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WouldCycle reports whether adding an object depending on deps would close
// a dependency cycle through candidate (cycles are disallowed, §3.1.1).
func (c *Catalog) WouldCycle(candidate int64, deps []int64) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	visited := make(map[int64]bool)
	var walk func(id int64) bool
	walk = func(id int64) bool {
		if id == candidate {
			return true
		}
		if visited[id] {
			return false
		}
		visited[id] = true
		e, ok := c.byID[id]
		if !ok {
			return false
		}
		for _, d := range e.DependsOn {
			if walk(d) {
				return true
			}
		}
		return false
	}
	for _, d := range deps {
		if walk(d) {
			return true
		}
	}
	return false
}

func (c *Catalog) log(ts hlc.Timestamp, op string, e *Entry, detail string) {
	c.ddlLog = append(c.ddlLog, DDLRecord{
		Seq:    c.ddlSeq.Add(1),
		TS:     ts,
		Op:     op,
		Kind:   e.Kind,
		ID:     e.ID,
		Name:   e.Name,
		Detail: detail,
	})
}

// DDLLogSince returns DDL records with Seq > afterSeq, in order.
func (c *Catalog) DDLLogSince(afterSeq int64) []DDLRecord {
	c.mu.RLock()
	defer c.mu.RUnlock()
	idx := sort.Search(len(c.ddlLog), func(i int) bool {
		return c.ddlLog[i].Seq > afterSeq
	})
	out := make([]DDLRecord, len(c.ddlLog)-idx)
	copy(out, c.ddlLog[idx:])
	return out
}

// SetGrantSink registers the grant observer (at most one; nil clears).
func (c *Catalog) SetGrantSink(s GrantSink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.grantSink = s
}

// Grant gives role the privilege on the object.
func (c *Catalog) Grant(objectID int64, p Privilege, role string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.grant(objectID, p, role)
}

func (c *Catalog) grant(objectID int64, p Privilege, role string) {
	byPriv, ok := c.grants[objectID]
	if !ok {
		byPriv = make(map[Privilege]map[string]bool)
		c.grants[objectID] = byPriv
	}
	roles, ok := byPriv[p]
	if !ok {
		roles = make(map[string]bool)
		byPriv[p] = roles
	}
	roles[role] = true
	if c.grantSink != nil {
		c.grantSink(objectID, p, role, false)
	}
}

// Revoke removes a privilege grant.
func (c *Catalog) Revoke(objectID int64, p Privilege, role string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if byPriv, ok := c.grants[objectID]; ok {
		if roles, ok := byPriv[p]; ok {
			delete(roles, role)
		}
	}
	if c.grantSink != nil {
		c.grantSink(objectID, p, role, true)
	}
}

// ---------------------------------------------------------------------------
// checkpoint export / recovery restore
// ---------------------------------------------------------------------------

// GrantTriple is one (object, privilege, role) grant, exported for
// checkpointing.
type GrantTriple struct {
	ObjectID  int64
	Privilege Privilege
	Role      string
}

// AllGrants exports every grant, sorted deterministically.
func (c *Catalog) AllGrants() []GrantTriple {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []GrantTriple
	for id, byPriv := range c.grants {
		for p, roles := range byPriv {
			for role := range roles {
				out = append(out, GrantTriple{ObjectID: id, Privilege: p, Role: role})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ObjectID != b.ObjectID {
			return a.ObjectID < b.ObjectID
		}
		if a.Privilege != b.Privilege {
			return a.Privilege < b.Privilege
		}
		return a.Role < b.Role
	})
	return out
}

// Entries exports every entry — live and dropped — sorted by ID. Dropped
// entries keep their graveyard position via the Dropped flag.
func (c *Catalog) Entries() []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Entry
	for _, e := range c.byID {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RestoreEntry installs an entry with its original ID during recovery,
// routing dropped entries to the graveyard. It bumps the ID allocator past
// the entry's ID so later creations do not collide.
func (c *Catalog) RestoreEntry(e *Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.byID[e.ID]; exists {
		return fmt.Errorf("catalog: restore: id %d already present", e.ID)
	}
	k := key(e.Name)
	if e.Dropped {
		c.dropped[k] = append(c.dropped[k], e)
	} else {
		if _, taken := c.byName[k]; taken {
			return fmt.Errorf("catalog: restore: name %q already present", e.Name)
		}
		c.byName[k] = e
	}
	c.byID[e.ID] = e
	for c.nextID.Load() < e.ID {
		c.nextID.Store(e.ID)
	}
	return nil
}

// Counters exports the ID and DDL-sequence allocators.
func (c *Catalog) Counters() (nextID, ddlSeq int64) {
	return c.nextID.Load(), c.ddlSeq.Load()
}

// RestoreCounters resumes the allocators after recovery.
func (c *Catalog) RestoreCounters(nextID, ddlSeq int64) {
	if c.nextID.Load() < nextID {
		c.nextID.Store(nextID)
	}
	if c.ddlSeq.Load() < ddlSeq {
		c.ddlSeq.Store(ddlSeq)
	}
}

// DDLLog exports the full DDL log for checkpointing.
func (c *Catalog) DDLLog() []DDLRecord {
	return c.DDLLogSince(0)
}

// RestoreDDLLog reinstalls the DDL log during recovery, resuming the
// sequence allocator past the last record.
func (c *Catalog) RestoreDDLLog(recs []DDLRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ddlLog = append([]DDLRecord(nil), recs...)
	if n := len(recs); n > 0 && c.ddlSeq.Load() < recs[n-1].Seq {
		c.ddlSeq.Store(recs[n-1].Seq)
	}
}

// HasPrivilege reports whether the role holds the privilege on the object.
// OWNERSHIP implies every other privilege.
func (c *Catalog) HasPrivilege(objectID int64, p Privilege, role string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	byPriv, ok := c.grants[objectID]
	if !ok {
		return false
	}
	if roles, ok := byPriv[PrivOwnership]; ok && roles[role] {
		return true
	}
	roles, ok := byPriv[p]
	return ok && roles[role]
}
