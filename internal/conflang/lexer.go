// Package conflang implements NBA's pipeline configuration language: the
// Click composition language with NBA's syntax modification of mandatory
// quotation marks around element parameters (paper §3.2).
//
// Example:
//
//	lookup :: IPLookup("seed=42", "routes=8192");
//	FromInput() -> CheckIPHeader() -> lookup -> DecIPTTL() -> ToOutput();
package conflang

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokDoubleColon // ::
	tokArrow       // ->
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokSemicolon
	tokLBrace
	tokRBrace
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokDoubleColon:
		return "'::'"
	case tokArrow:
		return "'->'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokSemicolon:
		return "';'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// SyntaxError reports a parse failure with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("config:%d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos+1 < len(l.src) {
				if l.peek() == '*' && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &SyntaxError{Line: startLine, Col: startCol, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '@' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	c := l.peek()
	switch {
	case c == ':':
		l.advance()
		if l.peek() != ':' {
			return token{}, &SyntaxError{Line: line, Col: col, Msg: "expected '::'"}
		}
		l.advance()
		return token{kind: tokDoubleColon, text: "::", line: line, col: col}, nil
	case c == '-':
		l.advance()
		if l.peek() != '>' {
			return token{}, &SyntaxError{Line: line, Col: col, Msg: "expected '->'"}
		}
		l.advance()
		return token{kind: tokArrow, text: "->", line: line, col: col}, nil
	case c == '(':
		l.advance()
		return token{kind: tokLParen, text: "(", line: line, col: col}, nil
	case c == ')':
		l.advance()
		return token{kind: tokRParen, text: ")", line: line, col: col}, nil
	case c == '[':
		l.advance()
		return token{kind: tokLBracket, text: "[", line: line, col: col}, nil
	case c == ']':
		l.advance()
		return token{kind: tokRBracket, text: "]", line: line, col: col}, nil
	case c == ',':
		l.advance()
		return token{kind: tokComma, text: ",", line: line, col: col}, nil
	case c == ';':
		l.advance()
		return token{kind: tokSemicolon, text: ";", line: line, col: col}, nil
	case c == '{':
		l.advance()
		return token{kind: tokLBrace, text: "{", line: line, col: col}, nil
	case c == '}':
		l.advance()
		return token{kind: tokRBrace, text: "}", line: line, col: col}, nil
	case c == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, &SyntaxError{Line: line, Col: col, Msg: "unterminated string"}
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' && l.pos < len(l.src) {
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"':
					sb.WriteByte('"')
				case '\\':
					sb.WriteByte('\\')
				default:
					return token{}, &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf("bad escape '\\%c'", esc)}
				}
				continue
			}
			sb.WriteByte(ch)
		}
		return token{kind: tokString, text: sb.String(), line: line, col: col}, nil
	case unicode.IsDigit(rune(c)):
		// Bare integers are allowed only inside port brackets; the parser
		// checks context. Lex as an identifier-like token.
		start := l.pos
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.peek())) {
			l.advance()
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: line, col: col}, nil
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: line, col: col}, nil
	default:
		return token{}, &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
}
