package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyntables/internal/types"
)

// The wire codec must write the bytes encoding/json writes for the result
// bodies, and read them back into what encoding/json with UseNumber reads.
// The references below are the server's encoding before the codec: each
// cell boxed as a plain Go value, each body encoded by json.Encoder.

// referenceCell is the plain Go value encoding/json encodes for a cell.
func referenceCell(v types.Value) any {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindString:
		return v.Str()
	case types.KindBool:
		return v.Bool()
	case types.KindTimestamp:
		return v.Time().UTC().Format(time.RFC3339Nano)
	case types.KindInterval:
		return v.Interval().String()
	case types.KindVariant:
		return v.Variant()
	default:
		return v.String()
	}
}

func referenceRows(rows [][]types.Value) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = make([]any, len(row))
		for j, v := range row {
			out[i][j] = referenceCell(v)
		}
	}
	return out
}

func referenceResult(res *Result) resultBody {
	return resultBody{
		Kind:         res.Kind,
		Columns:      res.Columns,
		Rows:         referenceRows(res.Rows),
		RowsAffected: res.RowsAffected,
		Message:      res.Message,
	}
}

// referenceEncode is json.Encoder.Encode of v.
func referenceEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// referenceDecode is encoding/json with UseNumber, accepting only a whole
// document of one value.
func referenceDecode(data []byte, v any) error {
	if !json.Valid(data) {
		return fmt.Errorf("not one JSON value")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// encodePage writes a rowsBody as handleFetch does, row by row.
func encodePage(dst []byte, rows [][]types.Value, cols []string, after int64, done bool) ([]byte, error) {
	dst = appendPageStart(dst)
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendRow(dst, row, cols); err != nil {
			return dst, err
		}
	}
	return appendPageEnd(dst, after, done), nil
}

// wireGen draws the values of one fuzz case from the fuzz input, and zeros
// once the input runs out.
type wireGen struct{ data []byte }

func (g *wireGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *wireGen) uint64() uint64 {
	var b [8]byte
	n := copy(b[:], g.data)
	g.data = g.data[n:]
	return binary.LittleEndian.Uint64(b[:])
}

// str draws up to 31 arbitrary bytes.
func (g *wireGen) str() string {
	n := min(int(g.byte()%32), len(g.data))
	s := string(g.data[:n])
	g.data = g.data[n:]
	return s
}

// Edge values a byte below the table's length selects; any other byte
// draws raw bits.
var (
	edgeInts = []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32, 1<<53 + 1}
	// Zeros of both signs, the smallest and largest subnormals, the
	// largest finite floats, both sides of encoding/json's switch to
	// exponent form at 1e-6 and 1e21, and the non-finite values JSON has
	// no form for.
	edgeFloats = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.225073858507201e-308,
		math.MaxFloat64, -math.MaxFloat64, 1e21, 999999999999999900000, 1e-6, 9.999999999999999e-7,
		1e-7, -1.5e-10, 0.1, 123.456, 1e20, math.Inf(1), math.Inf(-1), math.NaN()}
)

func (g *wireGen) int() int64 {
	if b := g.byte(); int(b) < len(edgeInts) {
		return edgeInts[b]
	}
	return int64(g.uint64())
}

func (g *wireGen) float() float64 {
	if b := g.byte(); int(b) < len(edgeFloats) {
		return edgeFloats[b]
	}
	return math.Float64frombits(g.uint64())
}

// variant draws a JSON-shaped Go value of the kinds encoding/json
// unmarshals to, nested up to three levels.
func (g *wireGen) variant(depth int) any {
	switch k := g.byte() % 6; {
	case k == 0:
		return nil
	case k == 1:
		return g.byte()&1 == 1
	case k == 2:
		return g.float()
	case k == 4 && depth < 3:
		out := []any{}
		for n := g.byte() % 4; n > 0; n-- {
			out = append(out, g.variant(depth+1))
		}
		return out
	case k == 5 && depth < 3:
		out := map[string]any{}
		for n := g.byte() % 4; n > 0; n-- {
			out[g.str()] = g.variant(depth + 1)
		}
		return out
	default:
		return g.str()
	}
}

func (g *wireGen) value() types.Value {
	switch g.byte() % 8 {
	case 0:
		return types.Null
	case 1:
		return types.NewInt(g.int())
	case 2:
		return types.NewFloat(g.float())
	case 3:
		return types.NewString(g.str())
	case 4:
		return types.NewBool(g.byte()&1 == 1)
	case 5:
		return types.NewTimestampMicros(g.int())
	case 6:
		return types.NewInterval(time.Duration(g.int()))
	default:
		return types.NewVariant(g.variant(0))
	}
}

// result draws a Result of up to three columns and four rows.
func (g *wireGen) result() *Result {
	res := &Result{Kind: g.str()}
	width := int(g.byte() % 4)
	if width > 0 || g.byte()&1 == 1 {
		res.Columns = make([]string, width)
		for i := range res.Columns {
			res.Columns[i] = g.str()
		}
	}
	for n := g.byte() % 5; n > 0; n-- {
		row := make([]types.Value, width)
		for i := range row {
			row[i] = g.value()
		}
		res.Rows = append(res.Rows, row)
	}
	res.RowsAffected = int(g.int())
	res.Message = g.str()
	return res
}

// checkEncoded compares the codec's output with encoding/json's for the
// reference body: both fail, or both give the same bytes.
func checkEncoded(t *testing.T, what string, got []byte, gotErr error, ref any) {
	t.Helper()
	want, wantErr := referenceEncode(ref)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: codec error %v, encoding/json error %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\ncodec         %q\nencoding/json %q", what, got, want)
	}
}

// checkDecoded decodes data, which both decoders must accept, with the
// scanner and with encoding/json, and compares the results.
func checkDecoded[T any](t *testing.T, what string, data []byte, decode func(string, *T) error) {
	t.Helper()
	var got, want T
	if err := decode(string(data), &got); err != nil {
		t.Fatalf("%s: scanner rejects %q: %v", what, data, err)
	}
	if err := referenceDecode(data, &want); err != nil {
		t.Fatalf("%s: encoding/json rejects %q: %v", what, data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoding %q\nscanner       %#v\nencoding/json %#v", what, data, got, want)
	}
}

// checkStrict decodes arbitrary bytes: the scanner must not panic, and
// must accept only what encoding/json accepts.
func checkStrict[T any](t *testing.T, data []byte, decode func(string, *T) error) {
	t.Helper()
	var got, want T
	if decode(string(data), &got) != nil {
		return
	}
	if err := referenceDecode(data, &want); err != nil {
		t.Fatalf("scanner accepts %q as %T, encoding/json rejects it: %v", data, want, err)
	}
}

func FuzzWireCodec(f *testing.F) {
	for _, seed := range []string{
		``,
		`{"result":{"kind":"SELECT","columns":["a"],"rows":[[1,"x",null,true,{"k":[]}]]}}`,
		`{"rows":[],"after":0,"done":true}`,
		`{"rows":[[-0,1e-7,5e-324,1.7976931348623157e308,-9223372036854775808]],"after":9223372036854775807,"done":false}`,
		`{"results":[{"kind":"A","message":"m"},null,{}],"statement_id":"q","extra":{"a":[1,{"b":null}]}}`,
		`{"ROWS":null,"After":-1,"DONE":null,"ſtatement_id":"x","KInd":"y"}`,
		`{"result":{"kind":"\ud83d\ude00 \ud800 \udc00x \u2028 \u003c\/\b\f\n\r\t\u0000","rows_affected":3}}`,
		"{\"result\":{\"kind\":\"\xff\xfe\xed\xa0\x80\"}} \n",
		`{"rows":[[01]]}`, `{"rows":[[1.]]}`, `{"rows":[[1e]]}`, `{"rows":[[1,]]}`, `{"after":1.5}`, `{"after":1e2}`,
		`{"done":"true"}`, `{"result":[]}`, `{"columns":[1]}`, `{"kind":"a"} x`, `{"a":"\x01"}`, `{"a":"\'"}`,
		`{"a":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
		`{"a":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	} {
		f.Add([]byte(seed))
	}
	// One result of one cell per edge value. wireGen reads a kind of
	// length 0, a width of 1, a column name of length 0 and one row, then
	// the cell: its kind, and an edge table's index or a string's bytes.
	cell := func(b ...byte) []byte { return append([]byte{0, 1, 0, 1}, b...) }
	for i := range edgeInts {
		f.Add(cell(1, byte(i)))    // INT
		f.Add(cell(5, byte(i)))    // TIMESTAMP
		f.Add(cell(6, byte(i)))    // INTERVAL
		f.Add(cell(7, 2, byte(i))) // VARIANT float
	}
	for i := range edgeFloats {
		f.Add(cell(2, byte(i)))    // FLOAT
		f.Add(cell(7, 2, byte(i))) // VARIANT float
	}
	for _, s := range []string{"<a&b>", "\u2028\u2029", "\xff", "\xed\xa0\x80", "\x00\x1f\x7f", `"\`, "é€😀", "\xc3"} {
		f.Add(cell(append([]byte{3, byte(len(s))}, s...)...))                  // STRING
		f.Add(cell(append([]byte{7, 5, 1, byte(len(s))}, s+"\x00\x00"...)...)) // VARIANT {s: nil}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &wireGen{data: data}
		res := g.result()

		got, err := appendResultBody(nil, res)
		ref := referenceResult(res)
		checkEncoded(t, "result body", got, err, statementBody{Result: &ref})
		if err == nil {
			checkDecoded(t, "result body", got, decodeStatementBody)
			// Mutate one byte of a valid body, for inputs near the
			// grammar's edges.
			mutated := bytes.Clone(got)
			mutated[g.uint64()%uint64(len(mutated))] = g.byte()
			checkStrict(t, mutated, decodeStatementBody)
		}

		results := []*Result{res}
		for n := g.byte() % 3; n > 0; n-- {
			results = append(results, g.result())
		}
		results = results[:g.byte()%uint8(len(results)+1)]
		got, err = appendScriptBody(nil, results)
		script := statementBody{}
		for _, r := range results {
			script.Results = append(script.Results, referenceResult(r))
		}
		checkEncoded(t, "script body", got, err, script)
		if err == nil {
			checkDecoded(t, "script body", got, decodeStatementBody)
		}

		id := g.str()
		got = appendCursorBody(nil, id, res.Columns)
		checkEncoded(t, "cursor body", got, nil, statementBody{StatementID: id, Columns: res.Columns})
		checkDecoded(t, "cursor body", got, decodeStatementBody)

		after, done := g.int(), g.byte()&1 == 1
		got, err = encodePage(nil, res.Rows, res.Columns, after, done)
		checkEncoded(t, "page", got, err, rowsBody{Rows: referenceRows(res.Rows), After: after, Done: done})
		if err == nil {
			checkDecoded(t, "page", got, decodeRowsBody)
			mutated := bytes.Clone(got)
			mutated[g.uint64()%uint64(len(mutated))] = g.byte()
			checkStrict(t, mutated, decodeRowsBody)
		}

		checkStrict(t, data, decodeStatementBody)
		checkStrict(t, data, decodeRowsBody)
	})
}

// TestWireCodecEdgeValues encodes one row of every kind's edge values and
// reads it back, against encoding/json both ways.
func TestWireCodecEdgeValues(t *testing.T) {
	row := []types.Value{types.Null, types.NewString("<a href=\"x\">&\u2028\u2029\x00\x1f\x7f\xff\xc3é\\")}
	for _, i := range edgeInts {
		row = append(row, types.NewInt(i), types.NewTimestampMicros(i), types.NewInterval(time.Duration(i)))
	}
	for _, f := range edgeFloats {
		if !math.IsInf(f, 0) && !math.IsNaN(f) {
			row = append(row, types.NewFloat(f))
		}
	}
	v, err := types.ParseVariant(`{"b":[1,2.5,"<>",{"c":null}],"a":true,"":-0}`)
	if err != nil {
		t.Fatal(err)
	}
	row = append(row, v, types.NewVariant(nil), types.NewBool(true), types.NewBool(false))
	res := &Result{Kind: "SELECT", Columns: make([]string, len(row)), Rows: [][]types.Value{row, {}}}
	got, err := appendResultBody(nil, res)
	ref := referenceResult(res)
	checkEncoded(t, "edge values", got, err, statementBody{Result: &ref})
	checkDecoded(t, "edge values", got, decodeStatementBody)
}

// TestWireCodecNonFinite checks that a non-finite FLOAT, bare or inside a
// VARIANT, fails the encode and names its column.
func TestWireCodecNonFinite(t *testing.T) {
	for _, v := range []types.Value{types.NewFloat(math.Inf(1)), types.NewFloat(math.NaN()),
		types.NewVariant(map[string]any{"x": []any{math.Inf(-1)}})} {
		res := &Result{Kind: "SELECT", Columns: []string{"ok", "bad"}, Rows: [][]types.Value{{types.NewInt(1), v}}}
		_, err := appendResultBody(nil, res)
		if err == nil || !strings.Contains(err.Error(), `column "bad"`) {
			t.Errorf("encoding %v: %v, want an error naming column bad", v, err)
		}
	}
}

// wireFixtures are result shapes of the serve_read benchmark: a join_agg
// answer (516 groups of name, count, sum) and one range_scan cursor page
// (100 rows of id, v).
func wireFixtures() (joinAgg *Result, page [][]types.Value) {
	joinAgg = &Result{Kind: "SELECT", Columns: []string{"name", "c", "total"}}
	for i := int64(0); i < 516; i++ {
		c := 90 + i%20
		joinAgg.Rows = append(joinAgg.Rows, []types.Value{
			types.NewString(fmt.Sprintf("dim-%d", i)), types.NewInt(c), types.NewInt(c*500 + i*7)})
	}
	for i := int64(0); i < 100; i++ {
		page = append(page, []types.Value{types.NewInt(1_000_000 + i), types.NewInt(i * 37 % 1000)})
	}
	return joinAgg, page
}

// BenchmarkWireCodec times the result codec alone, per body: encoding
// appends into a reused buffer, as the server's pool and page cache do;
// decoding starts from the body's bytes, as the client reads them.
func BenchmarkWireCodec(b *testing.B) {
	joinAgg, page := wireFixtures()
	pageCols := []string{"id", "v"}
	joinBody, _ := appendResultBody(nil, joinAgg)
	pageBody, _ := encodePage(nil, page, pageCols, 100, false)
	b.Run("encode/join_agg", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			buf, _ = appendResultBody(buf[:0], joinAgg)
		}
	})
	b.Run("decode/join_agg", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var body statementBody
			if err := decodeStatementBody(string(joinBody), &body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/range_scan_page", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			buf, _ = encodePage(buf[:0], page, pageCols, 100, false)
		}
	})
	b.Run("decode/range_scan_page", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var body rowsBody
			if err := decodeRowsBody(string(pageBody), &body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWireDecoderDepth checks the nesting limit on both sides of it: the
// scanner accepts and rejects exactly what encoding/json does.
func TestWireDecoderDepth(t *testing.T) {
	for _, n := range []int{maxWireDepth - 1, maxWireDepth} {
		data := []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
		var got, want rowsBody
		gotErr := decodeRowsBody(string(data), &got)
		wantErr := referenceDecode(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%d nested arrays in an object: scanner error %v, encoding/json error %v", n, gotErr, wantErr)
		}
	}
}
