package dyntables

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestVirtualTableScansInBuilderOrder checks that a virtual table scans
// its rows in the order its builder produced them. QUERY_HISTORY's
// builder lists statements oldest first, so seq must increase down the
// scan — also past the ninth row, where row IDs stop sorting as strings.
func TestVirtualTableScansInBuilderOrder(t *testing.T) {
	eng := New()
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession()
	sess.MustExec(`CREATE TABLE t (a INT)`)
	for i := 0; i < 12; i++ {
		sess.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	res, err := sess.Exec(`SELECT seq FROM INFORMATION_SCHEMA.QUERY_HISTORY`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 13 {
		t.Fatalf("QUERY_HISTORY has %d rows, want at least 13", len(res.Rows))
	}
	seqs := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		seqs[i] = r[0].Int()
	}
	if !sort.SliceIsSorted(seqs, func(i, j int) bool { return seqs[i] < seqs[j] }) {
		t.Errorf("QUERY_HISTORY scanned seq %v, want increasing", seqs)
	}
}

// docColumn is one row of a column table in docs/information-schema.md.
type docColumn struct{ Name, Type string }

// parseInfoSchemaDoc reads the column table of every
// "## INFORMATION_SCHEMA.*" section of the reference.
func parseInfoSchemaDoc(t *testing.T, path string) map[string][]docColumn {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tables := make(map[string][]docColumn)
	section, inTable := "", false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			section, inTable = "", false
			if name := strings.TrimPrefix(line, "## "); strings.HasPrefix(name, "INFORMATION_SCHEMA.") {
				section = name
				tables[section] = nil
			}
		case section == "":
		case strings.HasPrefix(line, "| column | type |"):
			inTable = true
		case inTable && strings.HasPrefix(line, "|---"):
		case inTable && strings.HasPrefix(line, "|"):
			cells := strings.Split(line, "|")
			if len(cells) < 4 {
				t.Fatalf("%s: malformed column row %q", section, line)
			}
			tables[section] = append(tables[section], docColumn{
				Name: strings.Trim(strings.TrimSpace(cells[1]), "`"),
				Type: strings.TrimSpace(cells[2]),
			})
		default:
			inTable = false
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestInfoSchemaDocsMatchRegisteredTables keeps the INFORMATION_SCHEMA
// reference in step with the code: every registered table has a section,
// every section names a registered table, and each section lists the
// table's columns with their types in schema order.
func TestInfoSchemaDocsMatchRegisteredTables(t *testing.T) {
	eng := New()
	t.Cleanup(func() { eng.Close() })
	docs := parseInfoSchemaDoc(t, "docs/information-schema.md")

	registered := eng.virt.Names()
	documented := make([]string, 0, len(docs))
	for name := range docs {
		documented = append(documented, name)
	}
	sort.Strings(documented)
	if !reflect.DeepEqual(documented, registered) {
		t.Errorf("documented tables %v, registered %v", documented, registered)
	}
	for _, name := range registered {
		var want []docColumn
		for _, c := range eng.virt.Table(name).Schema.Columns {
			want = append(want, docColumn{Name: c.Name, Type: c.Kind.String()})
		}
		if got := docs[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: documented columns\n  %v\nregistered\n  %v", name, got, want)
		}
	}
}
