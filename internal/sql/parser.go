package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dyntables/internal/types"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	src    string
	tokens []Token
	pos    int
	// params counts positional `?` placeholders seen so far, assigning
	// 1-based ordinals in order of appearance.
	params int
}

// Parse parses a single statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var stmts []Statement
	for !p.atEOF() {
		if p.accept(";") {
			continue
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		if !p.accept(";") && !p.atEOF() {
			return nil, p.errorf("expected ';' between statements, found %q", p.peek().Text)
		}
	}
	return stmts, nil
}

// ParseExpr parses a standalone scalar expression (used by tests and the
// workload generator).
func ParseExpr(src string) (Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	return e, nil
}

// NewParser lexes src and returns a parser positioned at the first token.
func NewParser(src string) (*Parser, error) {
	tokens, err := Lex(src)
	if err != nil {
		return nil, err
	}
	return &Parser{src: src, tokens: tokens}, nil
}

// ---------------------------------------------------------------------------
// token helpers
// ---------------------------------------------------------------------------

func (p *Parser) peek() Token { return p.tokens[p.pos] }
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }
func (p *Parser) next() Token { t := p.tokens[p.pos]; p.pos++; return t }

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error near offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

// isKeyword reports whether the current token is the given keyword.
func (p *Parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errors.
func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", strings.ToUpper(kw), p.peek().Text)
	}
	return nil
}

// accept consumes the symbol if present.
func (p *Parser) accept(sym string) bool {
	t := p.peek()
	if t.Kind == TokSymbol && t.Text == sym {
		p.pos++
		return true
	}
	return false
}

// expect consumes the symbol or errors.
func (p *Parser) expect(sym string) error {
	if !p.accept(sym) {
		return p.errorf("expected %q, found %q", sym, p.peek().Text)
	}
	return nil
}

// reservedAfterExpr lists keywords that terminate expressions and
// select-list aliases.
var reservedAfterExpr = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true,
	"ORDER": true, "LIMIT": true, "UNION": true, "JOIN": true,
	"INNER": true, "LEFT": true, "RIGHT": true, "FULL": true, "CROSS": true,
	"ON": true, "AND": true, "OR": true, "NOT": true, "AS": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "CASE": true,
	"IS": true, "IN": true, "BETWEEN": true, "LIKE": true,
	"ASC": true, "DESC": true, "OVER": true, "PARTITION": true, "BY": true,
	"SET": true, "VALUES": true, "LATERAL": true, "SELECT": true,
	"DISTINCT": true, "ALL": true, "NULLS": true, "USING": true,
}

func (p *Parser) parseIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, found %q", t.Text)
	}
	p.pos++
	return t.Text, nil
}

// ---------------------------------------------------------------------------
// statements
// ---------------------------------------------------------------------------

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("UNDROP"):
		return p.parseUndrop()
	case p.isKeyword("ALTER"):
		return p.parseAlter()
	case p.isKeyword("SHOW"):
		return p.parseShow()
	case p.isKeyword("EXPLAIN"):
		return p.parseExplain()
	default:
		return nil, p.errorf("unexpected statement start %q", p.peek().Text)
	}
}

// parseShow parses SHOW DYNAMIC TABLES | SHOW WAREHOUSES | SHOW HEALTH.
func (p *Parser) parseShow() (Statement, error) {
	if err := p.expectKeyword("SHOW"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("DYNAMIC"):
		if err := p.expectKeyword("TABLES"); err != nil {
			return nil, err
		}
		return &ShowStmt{Kind: "DYNAMIC TABLES"}, nil
	case p.acceptKeyword("WAREHOUSES"):
		return &ShowStmt{Kind: "WAREHOUSES"}, nil
	case p.acceptKeyword("HEALTH"):
		return &ShowStmt{Kind: "HEALTH"}, nil
	case p.acceptKeyword("ALERTS"):
		return &ShowStmt{Kind: "ALERTS"}, nil
	default:
		return nil, p.errorf("expected DYNAMIC TABLES, WAREHOUSES, HEALTH or ALERTS after SHOW, found %q", p.peek().Text)
	}
}

// parseExplain parses EXPLAIN [ANALYZE] <select> and EXPLAIN <create
// dynamic table | dynamic table name>.
func (p *Parser) parseExplain() (Statement, error) {
	if err := p.expectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	analyze := p.acceptKeyword("ANALYZE")
	// EXPLAIN DYNAMIC TABLE <name> describes an existing DT.
	if !analyze && p.acceptKeyword("DYNAMIC") {
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{DTName: name}, nil
	}
	target, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	switch target.(type) {
	case *SelectStmt:
		return &ExplainStmt{Target: target, Analyze: analyze}, nil
	case *CreateDynamicTableStmt:
		if analyze {
			return nil, p.errorf("EXPLAIN ANALYZE supports SELECT only")
		}
		return &ExplainStmt{Target: target}, nil
	default:
		if analyze {
			return nil, p.errorf("EXPLAIN ANALYZE supports SELECT only")
		}
		return nil, p.errorf("EXPLAIN supports SELECT, CREATE DYNAMIC TABLE and DYNAMIC TABLE <name> only")
	}
}

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	orReplace := false
	if p.acceptKeyword("OR") {
		if err := p.expectKeyword("REPLACE"); err != nil {
			return nil, err
		}
		orReplace = true
	}
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable(orReplace)
	case p.acceptKeyword("VIEW"):
		return p.parseCreateView(orReplace)
	case p.acceptKeyword("DYNAMIC"):
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		return p.parseCreateDynamicTable(orReplace)
	case p.acceptKeyword("WAREHOUSE"):
		return p.parseCreateWarehouse(orReplace)
	case p.acceptKeyword("ALERT"):
		return p.parseCreateAlert(orReplace)
	default:
		return nil, p.errorf("expected TABLE, VIEW, DYNAMIC TABLE, WAREHOUSE or ALERT after CREATE")
	}
}

func (p *Parser) parseCreateTable(orReplace bool) (Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{OrReplace: orReplace, Name: name}
	if p.acceptKeyword("CLONE") {
		src, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		stmt.CloneOf = src
		return stmt, nil
	}
	if p.acceptKeyword("AS") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.AsSelect = sel
		return stmt, nil
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for {
		colName, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		typeName, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := types.KindFromName(typeName); err != nil {
			return nil, p.errorf("unknown column type %q", typeName)
		}
		stmt.Columns = append(stmt.Columns, ColumnDef{Name: colName, TypeName: typeName})
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseCreateView(orReplace bool) (Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	start := p.peek().Pos
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateViewStmt{
		OrReplace: orReplace,
		Name:      name,
		Query:     sel,
		Text:      strings.TrimSpace(p.textSince(start)),
	}, nil
}

// textSince returns the source slice from byte offset start up to the
// current token.
func (p *Parser) textSince(start int) string {
	end := p.peek().Pos
	if p.atEOF() {
		end = len(p.src)
	}
	return p.src[start:end]
}

func (p *Parser) parseCreateDynamicTable(orReplace bool) (Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &CreateDynamicTableStmt{OrReplace: orReplace, Name: name}
	if p.acceptKeyword("CLONE") {
		src, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		stmt.CloneOf = src
		return stmt, nil
	}
	sawLag := false
	for {
		switch {
		case p.acceptKeyword("TARGET_LAG"):
			if err := p.expect("="); err != nil {
				return nil, err
			}
			lag, err := p.parseTargetLag()
			if err != nil {
				return nil, err
			}
			stmt.Lag = lag
			sawLag = true
		case p.acceptKeyword("WAREHOUSE"):
			if err := p.expect("="); err != nil {
				return nil, err
			}
			wh, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			stmt.Warehouse = wh
		case p.acceptKeyword("REFRESH_MODE"):
			if err := p.expect("="); err != nil {
				return nil, err
			}
			mode, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			switch strings.ToUpper(mode) {
			case "AUTO":
				stmt.Mode = RefreshAuto
			case "FULL":
				stmt.Mode = RefreshFull
			case "INCREMENTAL":
				stmt.Mode = RefreshIncremental
			default:
				return nil, p.errorf("unknown refresh mode %q", mode)
			}
		case p.acceptKeyword("INITIALIZE"):
			if err := p.expect("="); err != nil {
				return nil, err
			}
			init, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			stmt.Initialize = strings.ToUpper(init)
		case p.acceptKeyword("AS"):
			if !sawLag {
				return nil, p.errorf("dynamic table %s requires TARGET_LAG", name)
			}
			start := p.peek().Pos
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			stmt.Query = sel
			stmt.Text = strings.TrimSpace(p.textSince(start))
			return stmt, nil
		default:
			return nil, p.errorf("expected TARGET_LAG, WAREHOUSE, REFRESH_MODE, INITIALIZE or AS, found %q", p.peek().Text)
		}
	}
}

func (p *Parser) parseTargetLag() (TargetLag, error) {
	t := p.peek()
	if t.Kind == TokIdent && strings.EqualFold(t.Text, "DOWNSTREAM") {
		p.pos++
		return TargetLag{Kind: LagDownstream}, nil
	}
	if t.Kind != TokString {
		return TargetLag{}, p.errorf("expected lag duration string or DOWNSTREAM, found %q", t.Text)
	}
	p.pos++
	d, err := types.ParseIntervalText(t.Text)
	if err != nil {
		return TargetLag{}, p.errorf("invalid target lag %q: %v", t.Text, err)
	}
	return TargetLag{Kind: LagDuration, Duration: d}, nil
}

func (p *Parser) parseCreateWarehouse(orReplace bool) (Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &CreateWarehouseStmt{OrReplace: orReplace, Name: name, Size: "XSMALL"}
	for {
		switch {
		case p.acceptKeyword("WAREHOUSE_SIZE"):
			if err := p.expect("="); err != nil {
				return nil, err
			}
			t := p.next()
			if t.Kind != TokIdent && t.Kind != TokString {
				return nil, p.errorf("expected warehouse size")
			}
			stmt.Size = strings.ToUpper(t.Text)
		case p.acceptKeyword("AUTO_SUSPEND"):
			if err := p.expect("="); err != nil {
				return nil, err
			}
			t := p.next()
			if t.Kind != TokNumber {
				return nil, p.errorf("expected AUTO_SUSPEND seconds")
			}
			secs, err := strconv.ParseInt(t.Text, 10, 64)
			if err != nil {
				return nil, p.errorf("invalid AUTO_SUSPEND %q", t.Text)
			}
			stmt.AutoSuspend = time.Duration(secs) * time.Second
		default:
			return stmt, nil
		}
	}
}

// parseCreateAlert parses the tail of CREATE [OR REPLACE] ALERT:
//
//	CREATE ALERT name [SCHEDULE = '<dur>'] IF (EXISTS (<select>)) THEN <action>
//
// where <action> is CALL WEBHOOK '<url>', the bare keyword RECORD
// (record-only), or any single SQL statement (executed under the alert
// owner's role when the alert fires).
func (p *Parser) parseCreateAlert(orReplace bool) (Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &CreateAlertStmt{OrReplace: orReplace, Name: name}
	if p.acceptKeyword("SCHEDULE") {
		if err := p.expect("="); err != nil {
			return nil, err
		}
		t := p.next()
		if t.Kind != TokString {
			return nil, p.errorf("expected schedule duration string, found %q", t.Text)
		}
		d, err := types.ParseIntervalText(t.Text)
		if err != nil {
			return nil, p.errorf("invalid alert schedule %q: %v", t.Text, err)
		}
		stmt.Schedule = d
	}
	if err := p.expectKeyword("IF"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("EXISTS"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	condStart := p.peek().Pos
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Condition = sel
	stmt.ConditionText = strings.TrimSpace(p.textSince(condStart))
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("THEN"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("CALL"):
		if err := p.expectKeyword("WEBHOOK"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.Kind != TokString {
			return nil, p.errorf("expected webhook URL string, found %q", t.Text)
		}
		stmt.ActionKind, stmt.ActionURL = "WEBHOOK", t.Text
	case p.acceptKeyword("RECORD"):
		stmt.ActionKind = "RECORD"
	default:
		if p.atEOF() {
			return nil, p.errorf("expected CALL WEBHOOK, RECORD or a SQL statement after THEN")
		}
		actionStart := p.peek().Pos
		action, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if _, ok := action.(*CreateAlertStmt); ok {
			return nil, p.errorf("alert action cannot be another CREATE ALERT")
		}
		if pos, names := CollectPlaceholders(action); pos > 0 || len(names) > 0 {
			return nil, p.errorf("alert action cannot use bind placeholders")
		}
		stmt.ActionKind = "SQL"
		stmt.ActionSQL = strings.TrimSpace(p.textSince(actionStart))
	}
	return stmt, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	kind, err := p.parseObjectKind()
	if err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropStmt{Kind: kind, Name: name}, nil
}

func (p *Parser) parseUndrop() (Statement, error) {
	if err := p.expectKeyword("UNDROP"); err != nil {
		return nil, err
	}
	kind, err := p.parseObjectKind()
	if err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &UndropStmt{Kind: kind, Name: name}, nil
}

func (p *Parser) parseObjectKind() (string, error) {
	switch {
	case p.acceptKeyword("DYNAMIC"):
		if err := p.expectKeyword("TABLE"); err != nil {
			return "", err
		}
		return "DYNAMIC TABLE", nil
	case p.acceptKeyword("TABLE"):
		return "TABLE", nil
	case p.acceptKeyword("VIEW"):
		return "VIEW", nil
	case p.acceptKeyword("WAREHOUSE"):
		return "WAREHOUSE", nil
	case p.acceptKeyword("ALERT"):
		return "ALERT", nil
	default:
		return "", p.errorf("expected object kind, found %q", p.peek().Text)
	}
}

func (p *Parser) parseAlter() (Statement, error) {
	if err := p.expectKeyword("ALTER"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("SYSTEM") {
		return p.parseAlterSystem()
	}
	kind, err := p.parseObjectKind()
	if err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &AlterStmt{Kind: kind, Name: name}
	switch {
	case p.acceptKeyword("RENAME"):
		if err := p.expectKeyword("TO"); err != nil {
			return nil, err
		}
		target, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		stmt.Action, stmt.Target = "RENAME", target
	case p.acceptKeyword("SWAP"):
		if err := p.expectKeyword("WITH"); err != nil {
			return nil, err
		}
		target, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		stmt.Action, stmt.Target = "SWAP", target
	case p.acceptKeyword("SUSPEND"):
		stmt.Action = "SUSPEND"
	case p.acceptKeyword("RESUME"):
		stmt.Action = "RESUME"
	case p.acceptKeyword("REFRESH"):
		stmt.Action = "REFRESH"
	case p.acceptKeyword("SET"):
		switch {
		case p.acceptKeyword("TARGET_LAG"):
			if err := p.expect("="); err != nil {
				return nil, err
			}
			lag, err := p.parseTargetLag()
			if err != nil {
				return nil, err
			}
			stmt.Action, stmt.Lag = "SET_LAG", &lag
		case p.acceptKeyword("REFRESH_MODE"):
			if err := p.expect("="); err != nil {
				return nil, err
			}
			word, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			var mode RefreshMode
			switch strings.ToUpper(word) {
			case "AUTO":
				mode = RefreshAuto
			case "FULL":
				mode = RefreshFull
			case "INCREMENTAL":
				mode = RefreshIncremental
			default:
				return nil, p.errorf("unknown refresh mode %q", word)
			}
			stmt.Action, stmt.Mode = "SET_MODE", &mode
		default:
			return nil, p.errorf("expected TARGET_LAG or REFRESH_MODE, found %q", p.peek().Text)
		}
	default:
		return nil, p.errorf("expected RENAME, SWAP, SUSPEND, RESUME, REFRESH or SET, found %q", p.peek().Text)
	}
	return stmt, nil
}

// parseAlterSystem parses the tail of ALTER SYSTEM SET <param> = <int>.
func (p *Parser) parseAlterSystem() (Statement, error) {
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	param, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	t := p.next()
	if t.Kind != TokNumber {
		return nil, p.errorf("expected integer value for %s, found %q", param, t.Text)
	}
	v, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return nil, p.errorf("invalid value %q for %s", t.Text, param)
	}
	return &AlterSystemStmt{Param: strings.ToUpper(param), Value: v}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	overwrite := p.acceptKeyword("OVERWRITE")
	if !overwrite {
		if err := p.expectKeyword("INTO"); err != nil {
			return nil, err
		}
	} else {
		p.acceptKeyword("INTO")
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table, Overwrite: overwrite}
	if p.accept("(") {
		for {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("VALUES") {
		for {
			if err := p.expect("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			stmt.Rows = append(stmt.Rows, row)
			if !p.accept(",") {
				break
			}
		}
		return stmt, nil
	}
	if p.isKeyword("SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Query = sel
		return stmt, nil
	}
	return nil, p.errorf("expected VALUES or SELECT in INSERT")
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, Assignment{Column: col, Expr: e})
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

func (p *Parser) parseSelect() (*SelectStmt, error) {
	first, err := p.parseSelectBody()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("UNION") {
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, p.errorf("only UNION ALL is supported")
		}
		branch, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		first.Unions = append(first.Unions, branch)
	}
	// ORDER BY / LIMIT apply to the whole union.
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderItems()
		if err != nil {
			return nil, err
		}
		first.OrderBy = items
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.Kind != TokNumber {
			return nil, p.errorf("expected LIMIT count")
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid LIMIT %q", t.Text)
		}
		first.Limit = &n
	}
	return first, nil
}

func (p *Parser) parseSelectBody() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		stmt.From = from
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if p.acceptKeyword("ALL") {
			stmt.GroupByAll = true
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				stmt.GroupBy = append(stmt.GroupBy, e)
				if !p.accept(",") {
					break
				}
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	return stmt, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// `*` or `t.*`
	if p.accept("*") {
		return SelectItem{Expr: &Star{}}, nil
	}
	save := p.pos
	if t := p.peek(); t.Kind == TokIdent {
		p.pos++
		if p.accept(".") && p.accept("*") {
			return SelectItem{Expr: &Star{Table: t.Text}}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent && !reservedAfterExpr[strings.ToUpper(t.Text)] {
		p.pos++
		item.Alias = t.Text
	}
	return item, nil
}

func (p *Parser) parseOrderItems() ([]OrderItem, error) {
	var items []OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := OrderItem{Expr: e}
		if p.acceptKeyword("DESC") {
			item.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
		if p.acceptKeyword("NULLS") {
			switch {
			case p.acceptKeyword("FIRST"):
				item.Nulls = NullsFirst
			case p.acceptKeyword("LAST"):
				item.Nulls = NullsLast
			default:
				return nil, p.errorf("expected FIRST or LAST after NULLS, found %q", p.peek().Text)
			}
		}
		items = append(items, item)
		if !p.accept(",") {
			break
		}
	}
	return items, nil
}

// ---------------------------------------------------------------------------
// table expressions
// ---------------------------------------------------------------------------

func (p *Parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseTableFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(","):
			// Comma introduces either LATERAL FLATTEN or a cross join.
			if p.acceptKeyword("LATERAL") {
				fl, err := p.parseFlatten(left)
				if err != nil {
					return nil, err
				}
				left = fl
				continue
			}
			right, err := p.parseTableFactor()
			if err != nil {
				return nil, err
			}
			left = &JoinExpr{Type: JoinInner, L: left, R: right,
				On: &Literal{Kind: LitBool, Boolean: true}}
		case p.isKeyword("JOIN") || p.isKeyword("INNER") || p.isKeyword("LEFT") ||
			p.isKeyword("RIGHT") || p.isKeyword("FULL") || p.isKeyword("CROSS"):
			join, err := p.parseJoin(left)
			if err != nil {
				return nil, err
			}
			left = join
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseJoin(left TableExpr) (TableExpr, error) {
	jt := JoinInner
	cross := false
	switch {
	case p.acceptKeyword("INNER"):
	case p.acceptKeyword("LEFT"):
		p.acceptKeyword("OUTER")
		jt = JoinLeft
	case p.acceptKeyword("RIGHT"):
		p.acceptKeyword("OUTER")
		jt = JoinRight
	case p.acceptKeyword("FULL"):
		p.acceptKeyword("OUTER")
		jt = JoinFull
	case p.acceptKeyword("CROSS"):
		cross = true
	}
	if err := p.expectKeyword("JOIN"); err != nil {
		return nil, err
	}
	right, err := p.parseTableFactor()
	if err != nil {
		return nil, err
	}
	if cross {
		return &JoinExpr{Type: JoinInner, L: left, R: right,
			On: &Literal{Kind: LitBool, Boolean: true}}, nil
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	on, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &JoinExpr{Type: jt, L: left, R: right, On: on}, nil
}

func (p *Parser) parseFlatten(input TableExpr) (TableExpr, error) {
	if err := p.expectKeyword("FLATTEN"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	// Snowflake syntax: FLATTEN(input => expr); plain FLATTEN(expr) also
	// accepted.
	if p.acceptKeyword("INPUT") {
		if err := p.expect("=>"); err != nil {
			return nil, err
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	alias := ""
	if p.acceptKeyword("AS") {
		alias, err = p.parseIdent()
		if err != nil {
			return nil, err
		}
	} else if t := p.peek(); t.Kind == TokIdent && !reservedAfterExpr[strings.ToUpper(t.Text)] {
		p.pos++
		alias = t.Text
	}
	if alias == "" {
		alias = "FLATTEN"
	}
	return &FlattenRef{Input: input, Expr: e, Alias: alias}, nil
}

func (p *Parser) parseTableFactor() (TableExpr, error) {
	if p.accept("(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		alias := ""
		if p.acceptKeyword("AS") {
			alias, err = p.parseIdent()
			if err != nil {
				return nil, err
			}
		} else if t := p.peek(); t.Kind == TokIdent && !reservedAfterExpr[strings.ToUpper(t.Text)] {
			p.pos++
			alias = t.Text
		}
		return &SubqueryRef{Select: sel, Alias: alias}, nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	// Schema-qualified name (INFORMATION_SCHEMA.DYNAMIC_TABLES).
	if p.accept(".") {
		part, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		name = name + "." + part
	}
	ref := &TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent && !reservedAfterExpr[strings.ToUpper(t.Text)] {
		p.pos++
		ref.Alias = t.Text
	}
	return ref, nil
}

// ---------------------------------------------------------------------------
// expressions (precedence climbing)
// ---------------------------------------------------------------------------

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Neg: false, Expr: inner}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		negate := p.acceptKeyword("NOT")
		if !p.acceptKeyword("NULL") {
			return nil, p.errorf("expected NULL after IS")
		}
		return &IsNullExpr{Expr: left, Negate: negate}, nil
	}
	// [NOT] IN (list)
	negate := false
	save := p.pos
	if p.acceptKeyword("NOT") {
		if !p.isKeyword("IN") {
			p.pos = save
		} else {
			negate = true
		}
	}
	if p.acceptKeyword("IN") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &InListExpr{Expr: left, List: list, Negate: negate}, nil
	}
	ops := []struct {
		sym string
		op  BinaryOp
	}{
		{"<=", OpLe}, {">=", OpGe}, {"<>", OpNe}, {"!=", OpNe},
		{"=", OpEq}, {"<", OpLt}, {">", OpGt},
	}
	for _, o := range ops {
		if p.accept(o.sym) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: o.op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.accept("+"):
			op = OpAdd
		case p.accept("-"):
			op = OpSub
		case p.accept("||"):
			op = OpConcat
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.accept("*"):
			op = OpMul
		case p.accept("/"):
			op = OpDiv
		case p.accept("%"):
			op = OpMod
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept("-") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Neg: true, Expr: inner}, nil
	}
	p.accept("+")
	return p.parsePostfix()
}

// parsePostfix handles the tight-binding suffix operators: `:field`
// (variant path), `[i]` (array index) and `::type` (cast).
func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("::"):
			typeName, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			e = &CastExpr{Expr: e, TypeName: typeName}
		case p.accept(":"):
			field, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			e = &PathExpr{Expr: e, Field: field}
		case p.accept("["):
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &IndexExpr{Expr: e, Index: idx}
		default:
			return e, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("invalid number %q", t.Text)
			}
			return &Literal{Kind: LitFloat, Float: f}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q", t.Text)
		}
		return &Literal{Kind: LitInt, Int: i}, nil
	case TokString:
		p.pos++
		return &Literal{Kind: LitString, Str: t.Text}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "*" {
			p.pos++
			return &Star{}, nil
		}
		if t.Text == "?" {
			p.pos++
			p.params++
			return &Placeholder{Ordinal: p.params}, nil
		}
		// A `:` in primary position is a named placeholder; `expr:field`
		// variant path access is handled as a postfix operator instead.
		if t.Text == ":" {
			p.pos++
			name, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return &Placeholder{Name: strings.ToUpper(name)}, nil
		}
		return nil, p.errorf("unexpected token %q", t.Text)
	case TokIdent:
		switch strings.ToUpper(t.Text) {
		case "NULL":
			p.pos++
			return &Literal{Kind: LitNull}, nil
		case "TRUE":
			p.pos++
			return &Literal{Kind: LitBool, Boolean: true}, nil
		case "FALSE":
			p.pos++
			return &Literal{Kind: LitBool, Boolean: false}, nil
		case "CASE":
			return p.parseCase()
		}
		p.pos++
		// Function call?
		if p.accept("(") {
			return p.parseFuncCall(t.Text)
		}
		// Qualified column: a.b
		if p.accept(".") {
			name, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Name: name}, nil
		}
		return &ColumnRef{Name: t.Text}, nil
	default:
		return nil, p.errorf("unexpected end of expression")
	}
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	if !p.isKeyword("WHEN") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = operand
	}
	for p.acceptKeyword("WHEN") {
		when, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{When: when, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *Parser) parseFuncCall(name string) (Expr, error) {
	fc := &FuncCall{Name: name}
	if p.acceptKeyword("DISTINCT") {
		fc.Distinct = true
	}
	if !p.accept(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("OVER") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		spec := &WindowSpec{}
		if p.acceptKeyword("PARTITION") {
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				spec.PartitionBy = append(spec.PartitionBy, e)
				if !p.accept(",") {
					break
				}
			}
		}
		if p.acceptKeyword("ORDER") {
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			items, err := p.parseOrderItems()
			if err != nil {
				return nil, err
			}
			spec.OrderBy = items
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		fc.Over = spec
	}
	return fc, nil
}
