package types

import (
	"fmt"
	"strings"
)

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns. Column names are matched
// case-insensitively, mirroring SQL identifier semantics.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Columns) }

// Index returns the ordinal of the named column, or -1 if absent.
func (s Schema) Index(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the column at ordinal i.
func (s Schema) Column(i int) Column { return s.Columns[i] }

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// Equal reports whether two schemas have the same column names (case
// insensitive) and kinds in the same order.
func (s Schema) Equal(o Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if !strings.EqualFold(s.Columns[i].Name, o.Columns[i].Name) ||
			s.Columns[i].Kind != o.Columns[i].Kind {
			return false
		}
	}
	return true
}

// String renders the schema as "(a INT, b STRING)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Concat returns a schema with o's columns appended to s's.
func (s Schema) Concat(o Schema) Schema {
	cols := make([]Column, 0, len(s.Columns)+len(o.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return Schema{Columns: cols}
}

// Row is an ordered tuple of values aligned with a schema.
type Row []Value

// Clone returns a copy of the row that shares no backing storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// ApproxBytes estimates the row's in-memory footprint: the slice header
// plus each value's ApproxBytes.
func (r Row) ApproxBytes() int64 {
	n := int64(24) // slice header
	for _, v := range r {
		n += v.ApproxBytes()
	}
	return n
}

// Equal reports element-wise equality (with NULL == NULL).
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !Equal(r[i], o[i]) {
			return false
		}
	}
	return true
}

// EncodeKey appends an injective encoding of the row to dst, used for
// grouping, distinct and join keys.
func (r Row) EncodeKey(dst []byte) []byte {
	for _, v := range r {
		dst = v.EncodeKey(dst)
	}
	return dst
}

// KeyEqual reports whether r and o have the same EncodeKey encoding,
// comparing value by value (KeyEqual) without encoding them.
func (r Row) KeyEqual(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !KeyEqual(r[i], o[i]) {
			return false
		}
	}
	return true
}

// Key returns the row's injective string key.
func (r Row) Key() string { return string(r.EncodeKey(nil)) }

// String renders the row as "[a, b, c]".
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Concat returns a new row with o appended to r.
func (r Row) Concat(o Row) Row {
	out := make(Row, 0, len(r)+len(o))
	out = append(out, r...)
	out = append(out, o...)
	return out
}
