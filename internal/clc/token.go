// Package clc is an OpenCL C front end for the kernel subset the GEMM
// code generator emits: a lexer, a recursive-descent parser, light
// semantic checking, and a bytecode compiler, optimizer and VM that
// execute kernels per work-item on the clsim runtime (so generated
// kernel *source text* is what gets validated against the reference
// BLAS, not a hand-written reimplementation).
//
// Supported subset: scalar types int/uint/float/double, vector types
// float2/4/8 and double2/4/8, address-space qualifiers (__global,
// __local, __private, const, restrict), kernel parameters, local and
// private array declarations, for/if statements, the usual C operators,
// vector constructors/broadcasts, vloadN/vstoreN, mad/fma/min/max,
// work-item ID builtins and barrier().
package clc

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokIntLit
	tokFloatLit
	tokPunct // operators and delimiters, in tok.text
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer turns OpenCL C source into tokens. Preprocessor lines
// (#pragma and friends) are skipped; comments likewise.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// Error is a positioned front-end error.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("clc: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errf(format string, args ...any) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) nextByte() byte {
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

// multi-character operators, longest first.
var punct2 = []string{
	"<<=", ">>=",
	"+=", "-=", "*=", "/=", "%=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
}

func (l *lexer) next() (token, error) {
	for {
		// Skip whitespace.
		for l.pos < len(l.src) {
			c := l.peekByte()
			if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
				l.nextByte()
				continue
			}
			break
		}
		if l.pos >= len(l.src) {
			return token{kind: tokEOF, line: l.line, col: l.col}, nil
		}
		c := l.peekByte()
		// Preprocessor directive: skip to end of line.
		if c == '#' {
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.nextByte()
			}
			continue
		}
		// Comments.
		if c == '/' && l.pos+1 < len(l.src) {
			switch l.src[l.pos+1] {
			case '/':
				for l.pos < len(l.src) && l.peekByte() != '\n' {
					l.nextByte()
				}
				continue
			case '*':
				l.nextByte()
				l.nextByte()
				closed := false
				for l.pos+1 < len(l.src) {
					if l.peekByte() == '*' && l.src[l.pos+1] == '/' {
						l.nextByte()
						l.nextByte()
						closed = true
						break
					}
					l.nextByte()
				}
				if !closed {
					return token{}, l.errf("unterminated block comment")
				}
				continue
			}
		}
		break
	}

	line, col := l.line, l.col
	c := l.peekByte()

	// Identifier or keyword.
	if c == '_' || unicode.IsLetter(rune(c)) {
		start := l.pos
		for l.pos < len(l.src) {
			c := l.peekByte()
			if c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) {
				l.nextByte()
				continue
			}
			break
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: line, col: col}, nil
	}

	// Number.
	if unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))) {
		start := l.pos
		isFloat := false
		hex := strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X")
		if hex {
			l.nextByte()
			l.nextByte()
		}
		for l.pos < len(l.src) {
			c := l.peekByte()
			switch {
			case unicode.IsDigit(rune(c)):
				l.nextByte()
			case hex && (c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'):
				// a hex digit, not an exponent or a float suffix
				l.nextByte()
			case c == 'u' || c == 'U':
				// a suffix ends the literal
				l.nextByte()
				goto done
			case hex:
				goto done
			case c == '.':
				isFloat = true
				l.nextByte()
			case c == 'e' || c == 'E':
				isFloat = true
				l.nextByte()
				if l.pos < len(l.src) && (l.peekByte() == '+' || l.peekByte() == '-') {
					l.nextByte()
				}
			case c == 'f' || c == 'F':
				isFloat = true
				l.nextByte()
			default:
				goto done
			}
		}
	done:
		text := l.src[start:l.pos]
		kind := tokIntLit
		if isFloat {
			kind = tokFloatLit
		}
		return token{kind: kind, text: text, line: line, col: col}, nil
	}

	// Punctuation.
	rest := l.src[l.pos:]
	for _, p := range punct2 {
		if strings.HasPrefix(rest, p) {
			for range p {
				l.nextByte()
			}
			return token{kind: tokPunct, text: p, line: line, col: col}, nil
		}
	}
	single := "+-*/%=<>!&|^~?:;,.(){}[]"
	if strings.IndexByte(single, c) >= 0 {
		l.nextByte()
		return token{kind: tokPunct, text: string(c), line: line, col: col}, nil
	}
	return token{}, l.errf("unexpected character %q", string(c))
}

// lexAll tokenizes the whole source.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	// Generated kernels run 2.7 to 3.2 source bytes per token, so a
	// token per two bytes holds all of one without regrowing.
	out := make([]token, 0, len(src)/2+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
