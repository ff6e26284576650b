package catalog

import (
	"testing"

	"dyntables/internal/hlc"
)

type fakeObject struct{ kind ObjectKind }

func (f fakeObject) ObjectKind() ObjectKind { return f.kind }

func ts(n int64) hlc.Timestamp { return hlc.Timestamp{WallMicros: n} }

func TestCreateGetCaseInsensitive(t *testing.T) {
	c := New()
	e, err := c.Create("Trains", fakeObject{KindTable}, "admin", nil, ts(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("TRAINS")
	if err != nil || got.ID != e.ID {
		t.Errorf("case-insensitive lookup failed: %v %v", got, err)
	}
	if !c.Exists("trains") {
		t.Error("Exists failed")
	}
	if _, err := c.Create("trains", fakeObject{KindTable}, "admin", nil, ts(2)); err == nil {
		t.Error("duplicate name must fail")
	}
}

func TestReplaceIncrementsGeneration(t *testing.T) {
	c := New()
	e, _ := c.Create("t", fakeObject{KindTable}, "admin", nil, ts(1))
	if e.Generation != 0 {
		t.Fatalf("initial generation: %d", e.Generation)
	}
	e2, err := c.Replace("t", fakeObject{KindTable}, "admin", nil, ts(2))
	if err != nil {
		t.Fatal(err)
	}
	if e2.ID != e.ID {
		t.Error("replace must keep the stable ID")
	}
	if e2.Generation != 1 {
		t.Errorf("generation after replace: %d", e2.Generation)
	}
	// Replace of missing object creates it.
	e3, err := c.Replace("fresh", fakeObject{KindView}, "admin", nil, ts(3))
	if err != nil || e3.Generation != 0 {
		t.Errorf("replace-create: %v %v", e3, err)
	}
}

func TestDropUndrop(t *testing.T) {
	c := New()
	e, _ := c.Create("t", fakeObject{KindTable}, "admin", nil, ts(1))
	if err := c.Drop("t", ts(2)); err != nil {
		t.Fatal(err)
	}
	if c.Exists("t") {
		t.Error("dropped object still visible")
	}
	// Dropped objects remain reachable by ID so downstream DTs can observe
	// the dropped state.
	byID, err := c.GetByID(e.ID)
	if err != nil || !byID.Dropped {
		t.Errorf("dropped object by ID: %v %v", byID, err)
	}
	restored, err := c.Undrop("t", ts(3))
	if err != nil || restored.ID != e.ID || restored.Dropped {
		t.Errorf("undrop: %v %v", restored, err)
	}
	if !c.Exists("t") {
		t.Error("undropped object not visible")
	}
	if _, err := c.Undrop("t", ts(4)); err == nil {
		t.Error("undrop with name in use must fail")
	}
}

func TestUndropStackOrder(t *testing.T) {
	c := New()
	a, _ := c.Create("t", fakeObject{KindTable}, "admin", nil, ts(1))
	_ = c.Drop("t", ts(2))
	b, _ := c.Create("t", fakeObject{KindTable}, "admin", nil, ts(3))
	_ = c.Drop("t", ts(4))
	// Undrop restores the most recently dropped.
	got, err := c.Undrop("t", ts(5))
	if err != nil || got.ID != b.ID {
		t.Errorf("undrop order: got %v want id %d", got, b.ID)
	}
	_ = c.Drop("t", ts(6))
	got, _ = c.Undrop("t", ts(7))
	if got.ID != b.ID {
		t.Errorf("second undrop: got id %d", got.ID)
	}
	_ = got
	_ = a
}

func TestRenameKeepsID(t *testing.T) {
	c := New()
	e, _ := c.Create("old", fakeObject{KindTable}, "admin", nil, ts(1))
	if err := c.Rename("old", "new", ts(2)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("new")
	if err != nil || got.ID != e.ID {
		t.Errorf("rename: %v %v", got, err)
	}
	if c.Exists("old") {
		t.Error("old name still resolves")
	}
	if err := c.Rename("missing", "x", ts(3)); err == nil {
		t.Error("renaming missing object must fail")
	}
	_, _ = c.Create("occupied", fakeObject{KindTable}, "admin", nil, ts(4))
	if err := c.Rename("new", "occupied", ts(5)); err == nil {
		t.Error("renaming onto an existing name must fail")
	}
}

func TestSwap(t *testing.T) {
	c := New()
	a, _ := c.Create("a", fakeObject{KindTable}, "admin", nil, ts(1))
	b, _ := c.Create("b", fakeObject{KindTable}, "admin", nil, ts(2))
	if err := c.Swap("a", "b", ts(3)); err != nil {
		t.Fatal(err)
	}
	gotA, _ := c.Get("a")
	gotB, _ := c.Get("b")
	if gotA.ID != b.ID || gotB.ID != a.ID {
		t.Errorf("swap failed: a->%d b->%d", gotA.ID, gotB.ID)
	}
	if err := c.Swap("a", "missing", ts(4)); err == nil {
		t.Error("swap with missing object must fail")
	}
}

func TestDependenciesAndCycles(t *testing.T) {
	c := New()
	base, _ := c.Create("base", fakeObject{KindTable}, "admin", nil, ts(1))
	mid, _ := c.Create("mid", fakeObject{KindDynamicTable}, "admin", []int64{base.ID}, ts(2))
	top, _ := c.Create("top", fakeObject{KindDynamicTable}, "admin", []int64{mid.ID}, ts(3))

	if got, _ := c.GetByID(mid.ID); len(got.DependsOn) != 1 || got.DependsOn[0] != base.ID {
		t.Errorf("mid depends on %v, want base", got.DependsOn)
	}
	// top -> mid -> base; adding base -> top would close a cycle.
	if !c.WouldCycle(base.ID, []int64{top.ID}) {
		t.Error("cycle not detected")
	}
	if c.WouldCycle(top.ID, []int64{base.ID}) {
		t.Error("false cycle detected")
	}
}

func TestDDLLog(t *testing.T) {
	c := New()
	_, _ = c.Create("a", fakeObject{KindTable}, "admin", nil, ts(1))
	_, _ = c.Create("b", fakeObject{KindDynamicTable}, "admin", nil, ts(2))
	_ = c.Drop("a", ts(3))

	log := c.DDLLogSince(0)
	if len(log) != 3 {
		t.Fatalf("log length: %d", len(log))
	}
	if log[0].Op != "CREATE" || log[2].Op != "DROP" {
		t.Errorf("log ops: %v", log)
	}
	// Seqs strictly increase.
	for i := 1; i < len(log); i++ {
		if log[i].Seq <= log[i-1].Seq {
			t.Error("DDL log must be linearizable (monotone seq)")
		}
	}
	tail := c.DDLLogSince(log[1].Seq)
	if len(tail) != 1 || tail[0].Op != "DROP" {
		t.Errorf("tail: %v", tail)
	}
}

func TestRBAC(t *testing.T) {
	c := New()
	e, _ := c.Create("t", fakeObject{KindDynamicTable}, "owner_role", nil, ts(1))
	// Owner implicitly holds everything.
	for _, p := range []Privilege{PrivSelect, PrivOwnership, PrivMonitor, PrivOperate} {
		if !c.HasPrivilege(e.ID, p, "owner_role") {
			t.Errorf("owner should hold %v", p)
		}
	}
	if c.HasPrivilege(e.ID, PrivMonitor, "analyst") {
		t.Error("ungranted privilege held")
	}
	c.Grant(e.ID, PrivMonitor, "analyst")
	if !c.HasPrivilege(e.ID, PrivMonitor, "analyst") {
		t.Error("grant failed")
	}
	if c.HasPrivilege(e.ID, PrivOperate, "analyst") {
		t.Error("MONITOR must not imply OPERATE")
	}
	c.Revoke(e.ID, PrivMonitor, "analyst")
	if c.HasPrivilege(e.ID, PrivMonitor, "analyst") {
		t.Error("revoke failed")
	}
}

func TestListByKind(t *testing.T) {
	c := New()
	_, _ = c.Create("zz", fakeObject{KindDynamicTable}, "r", nil, ts(1))
	_, _ = c.Create("aa", fakeObject{KindDynamicTable}, "r", nil, ts(2))
	_, _ = c.Create("tbl", fakeObject{KindTable}, "r", nil, ts(3))
	dts := c.List(KindDynamicTable)
	if len(dts) != 2 || dts[0].Name != "aa" {
		t.Errorf("List: %v", dts)
	}
	if got := c.List(KindWarehouse); len(got) != 0 {
		t.Errorf("empty kind: %v", got)
	}
}

func TestKindAndPrivilegeStrings(t *testing.T) {
	if KindDynamicTable.String() != "DYNAMIC TABLE" || KindTable.String() != "TABLE" {
		t.Error("kind names")
	}
	if PrivMonitor.String() != "MONITOR" || PrivOperate.String() != "OPERATE" {
		t.Error("privilege names")
	}
}
