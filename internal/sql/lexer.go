// Package sql implements a small SQL front end for PIER: a lexer, a
// recursive-descent parser for single-block SELECT statements over one
// or two tables, and a naive planner that lowers the statement to a
// core.Plan. The paper defers "declarative query parsing and
// optimization" to future work (§3.3, §7); this package provides the
// parsing layer that would sit above the existing query processor,
// enough to express all of §2.1's intrusion-detection queries, the
// §5.1 workload query, and windowed continuous queries (§7).
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // reserved word, upper-cased
)

type token struct {
	kind tokKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "AS": true, "AND": true, "OR": true, "NOT": true,
	"TRUE": true, "FALSE": true, "NULL": true, "USING": true, "STRATEGY": true,
	"IN": true, "CREATE": true, "INDEX": true, "ON": true,
	"EXPLAIN": true, "TRACE": true, "EVERY": true, "WINDOWS": true, "WAIT": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "", l.pos)
			return l.toks, nil
		}
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
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			// SQL line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		l.pos++
	}
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

func (l *lexer) emit(k tokKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	word := l.src[start:l.pos]
	if keywords[strings.ToUpper(word)] {
		l.emit(tokKeyword, strings.ToUpper(word), start)
		return
	}
	l.emit(tokIdent, word, start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		l.pos++
	}
	l.emit(tokNumber, l.src[start:l.pos], start)
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'') // escaped quote
				l.pos += 2
				continue
			}
			l.pos++
			l.emit(tokString, sb.String(), start)
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string at offset %d", start)
}

var twoCharSymbols = map[string]bool{"<=": true, ">=": true, "<>": true, "!=": true}

func (l *lexer) lexSymbol() error {
	start := l.pos
	if l.pos+1 < len(l.src) && twoCharSymbols[l.src[l.pos:l.pos+2]] {
		l.emit(tokSymbol, l.src[l.pos:l.pos+2], start)
		l.pos += 2
		return nil
	}
	switch c := l.src[l.pos]; c {
	case ',', '(', ')', '=', '<', '>', '*', '+', '-', '/', '%', '.':
		l.emit(tokSymbol, string(c), start)
		l.pos++
		return nil
	default:
		return fmt.Errorf("sql: unexpected character %q at offset %d", c, l.pos)
	}
}
