package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

// The token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokSymbol // punctuation and operators
)

// Token is one lexeme with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// lexer splits SQL text into tokens.
type lexer struct {
	src    string
	pos    int
	tokens []Token
}

// Lex tokenizes the input. Identifiers keep their original case; keyword
// matching happens case-insensitively in the parser. Comments (-- and
// /* */) are skipped.
func Lex(src string) ([]Token, error) {
	// SQL text averages two bytes a token or more, so a long statement, a
	// bulk INSERT, mostly fills its token list without regrowing it.
	l := &lexer{src: src, tokens: make([]Token, 0, len(src)/2+1)}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, Token{Kind: TokEOF, Pos: l.pos})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexIdent()
		case c >= '0' && c <= '9':
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '"':
			if err := l.lexQuotedIdent(); err != nil {
				return nil, err
			}
		default:
			if !l.lexSymbol() {
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
			}
		}
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.tokens = append(l.tokens, Token{Kind: TokIdent, Text: l.src[start:l.pos], Pos: start})
}

func (l *lexer) lexQuotedIdent() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '"' {
				sb.WriteByte('"')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, Token{Kind: TokIdent, Text: sb.String(), Pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			// Only part of the number when followed by a digit; `1.x`
			// would otherwise swallow a path separator.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
				seenDot = true
				l.pos++
				continue
			}
		}
		if c == 'e' || c == 'E' {
			next := l.pos + 1
			if next < len(l.src) && (l.src[next] == '+' || l.src[next] == '-') {
				next++
			}
			if next < len(l.src) && l.src[next] >= '0' && l.src[next] <= '9' {
				l.pos = next
				continue
			}
		}
		break
	}
	l.tokens = append(l.tokens, Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, Token{Kind: TokString, Text: sb.String(), Pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string literal at offset %d", start)
}

// symbols in decreasing length so multi-character operators win.
var symbols = []string{
	"::", "<>", "!=", "<=", ">=", "||", "=>",
	"(", ")", ",", ".", ";", ":", "+", "-", "*", "/", "%",
	"<", ">", "=", "[", "]", "?",
}

func (l *lexer) lexSymbol() bool {
	for _, s := range symbols {
		if strings.HasPrefix(l.src[l.pos:], s) {
			l.tokens = append(l.tokens, Token{Kind: TokSymbol, Text: s, Pos: l.pos})
			l.pos += len(s)
			return true
		}
	}
	return false
}
