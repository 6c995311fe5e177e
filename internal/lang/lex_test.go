package lang

import (
	"fmt"
	"strings"
	"testing"
	"unicode"
	"unsafe"

	"aviv/internal/bench"
)

// lexAll runs the lexer over all of src, as the parser does token by
// token.
func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	var toks []token
	for {
		t := lx.next()
		if lx.err != nil {
			return nil, lx.err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

var keywords = map[string]bool{
	"if": true, "else": true, "while": true, "for": true, "return": true,
	"break": true, "continue": true,
}

// multi-character operators, longest first.
var punct2 = []string{"<<", ">>", "<=", ">=", "==", "!=", "&&", "||"}

// lexRunes is the rune-based lexer the byte-scanning lexer replaced,
// kept as the reference for the differential tests: it converts src to
// []rune and copies every token's text out of it.
func lexRunes(src string) ([]token, error) {
	var toks []token
	line := 1
	rs := []rune(src)
	i := 0
	for i < len(rs) {
		r := rs[i]
		switch {
		case r == '\n':
			line++
			i++
		case unicode.IsSpace(r):
			i++
		case r == '/' && i+1 < len(rs) && rs[i+1] == '/':
			for i < len(rs) && rs[i] != '\n' {
				i++
			}
		case r == '#':
			for i < len(rs) && rs[i] != '\n' {
				i++
			}
		case unicode.IsDigit(r):
			j := i
			for j < len(rs) && unicode.IsDigit(rs[j]) {
				j++
			}
			toks = append(toks, token{tokNumber, string(rs[i:j]), line})
			i = j
		case unicode.IsLetter(r) || r == '_':
			j := i
			for j < len(rs) && (unicode.IsLetter(rs[j]) || unicode.IsDigit(rs[j]) || rs[j] == '_') {
				j++
			}
			word := string(rs[i:j])
			kind := tokIdent
			if keywords[word] {
				kind = tokKeyword
			}
			toks = append(toks, token{kind, word, line})
			i = j
		default:
			matched := false
			if i+1 < len(rs) {
				two := string(rs[i : i+2])
				for _, p := range punct2 {
					if two == p {
						toks = append(toks, token{tokPunct, p, line})
						i += 2
						matched = true
						break
					}
				}
			}
			if matched {
				break
			}
			if strings.ContainsRune("+-*/%&|^~!<>=();{},", r) {
				toks = append(toks, token{tokPunct, string(r), line})
				i++
				break
			}
			return nil, fmt.Errorf("lang: line %d: unexpected character %q", line, r)
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}

// checkLexMatchesReference fails t unless the lexer and lexRunes
// produce the same tokens (kind, text, line) or the same error for src,
// and every token is a substring of src rather than a copy. Parse lexes
// as it goes, so it also checks that a lexical error still outranks
// any syntax error, as when the whole source was lexed first.
func checkLexMatchesReference(t *testing.T, src string) {
	t.Helper()
	got, gotErr := lexAll(src)
	want, wantErr := lexRunes(src)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("lex(%q) error %v, reference %v", src, gotErr, wantErr)
	}
	if wantErr != nil {
		if _, err := Parse(src); fmt.Sprint(err) != wantErr.Error() {
			t.Fatalf("Parse(%q) = %v, want the lexical error %v", src, err, wantErr)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("lex(%q) = %d tokens, reference %d\ngot  %v\nwant %v", src, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("lex(%q) token %d = %+v, reference %+v", src, i, got[i], want[i])
		}
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	for _, tok := range got {
		if tok.text == "" {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(tok.text)))
		if p < base || p+uintptr(len(tok.text)) > base+uintptr(len(src)) {
			t.Fatalf("lex(%q): token %q is a copy, not a substring of the source", src, tok.text)
		}
	}
}

// TestLexMatchesReference runs the differential check over FuzzParse's
// seeds, the sources the benchmarks and differential tests compile,
// non-ASCII letters, digits and spaces, and invalid UTF-8.
func TestLexMatchesReference(t *testing.T) {
	srcs := append([]string(nil), parseSeeds...)
	for seed := int64(0); seed < 40; seed++ {
		src, _ := bench.DiffProgram(seed, seed%2 == 1)
		srcs = append(srcs, src)
		mb := bench.MultiBlockSource(seed, 25, 6)
		srcs = append(srcs, mb, bench.MutateSource(mb, seed))
	}
	srcs = append(srcs,
		"",
		"\n\n\n",
		"x = 1; /",
		"x = 1 // no newline at the end",
		"# only a comment",
		"x = a <",
		"x = a <=",
		"x = a <\xc3\xa9",
		// Non-ASCII letters are identifier runes; non-ASCII digits lex
		// as numbers (the parser rejects them later).
		"größe = ärger + 1;",
		"π = 3; λx = π * 2;",
		"x = ٣٤ + 1;",
		"x_٣ = 1;",
		"x = 1; y = 2; z = 3;\u0085w = 4;",
		"x = 1;   y = 2;",
		"x = 1 € 2;",
		"x = 1; y = \U0001F600;",
		// Invalid UTF-8: a stray continuation byte, a truncated
		// sequence, an overlong encoding, inside and outside comments.
		"x = \x80;",
		"x = a\xc3;",
		"x\xff = 1;",
		"x = \xc0\xaf;",
		"// \xff\xfe comment\nx = 1;",
		"# \x80\nx = 2;",
		"x = 1;\n\n\xed\xa0\x80",
		"\xef\xbf\xbd",
		"x = 1 @ 2;",
		"x = `1`;",
		// A syntax error before a lexical error: the lexical error wins.
		"x = ; y = @;",
		"if (a { }\n\n$",
		"x = 1 +",
	)
	for _, src := range srcs {
		checkLexMatchesReference(t, src)
	}
}
