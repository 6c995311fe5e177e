// Package lang is the front end of the reproduction: a small C-like
// language (assignments, arithmetic/logic expressions, if/while/for,
// return) that is parsed and lowered to the basic-block expression DAGs
// plus control flow that the AVIV back end consumes — the role SUIF and
// SPAM play in the paper's Fig. 1. AST-level loop unrolling (the
// machine-independent transformation the paper's Ex3–Ex5 rely on) is
// provided by Unroll.
package lang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct
	tokKeyword
)

type token struct {
	kind tokKind
	text string
	line int
}

// lexer splits a source into tokens on demand, so the parser never holds
// more than its one token of lookahead. It scans bytes, decoding a rune
// only where a byte is not ASCII, and every token's text is a substring
// of the source.
type lexer struct {
	src  string
	i    int // byte offset of the first unscanned byte
	line int
	// err is the first lexical error. next returns EOF once it is set.
	err error
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

// next returns the next token, or an EOF token at the end of the source
// or after a lexical error.
func (lx *lexer) next() token {
	src := lx.src
	for lx.err == nil && lx.i < len(src) {
		i := lx.i
		r, size := runeAt(src, i)
		switch {
		case r == '\n':
			lx.line++
			lx.i++
		case unicode.IsSpace(r):
			lx.i += size
		case r == '/' && i+1 < len(src) && src[i+1] == '/', r == '#':
			if j := strings.IndexByte(src[i:], '\n'); j >= 0 {
				lx.i = i + j
			} else {
				lx.i = len(src)
			}
		case unicode.IsDigit(r):
			lx.i = scan(src, i, unicode.IsDigit)
			return token{tokNumber, src[i:lx.i], lx.line}
		case unicode.IsLetter(r) || r == '_':
			lx.i = scan(src, i, isWordRune)
			kind := tokIdent
			if isKeyword(src[i:lx.i]) {
				kind = tokKeyword
			}
			return token{kind, src[i:lx.i], lx.line}
		case i+1 < len(src) && isPunct2(src[i:i+2]):
			lx.i += 2
			return token{tokPunct, src[i:lx.i], lx.line}
		case r < utf8.RuneSelf && strings.IndexByte("+-*/%&|^~!<>=();{},", byte(r)) >= 0:
			lx.i++
			return token{tokPunct, src[i:lx.i], lx.line}
		default:
			lx.err = fmt.Errorf("lang: line %d: unexpected character %q", lx.line, r)
		}
	}
	return token{tokEOF, "", lx.line}
}

func isKeyword(word string) bool {
	switch word {
	case "if", "else", "while", "for", "return", "break", "continue":
		return true
	}
	return false
}

// isPunct2 reports whether two is a two-character operator.
func isPunct2(two string) bool {
	switch two {
	case "<<", ">>", "<=", ">=", "==", "!=", "&&", "||":
		return true
	}
	return false
}

// runeAt decodes the rune starting at byte i of src, with a fast path
// for ASCII. Invalid UTF-8 decodes as utf8.RuneError of width 1, as a
// []rune conversion would.
func runeAt(src string, i int) (rune, int) {
	if c := src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(src[i:])
}

// scan returns the end of the run of runes satisfying ok that starts at
// byte i of src.
func scan(src string, i int, ok func(rune) bool) int {
	for i < len(src) {
		r, size := runeAt(src, i)
		if !ok(r) {
			break
		}
		i += size
	}
	return i
}

func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }
