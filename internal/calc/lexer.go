// Package calc implements a small expression calculator: a lexer, a Pratt
// parser producing an AST, and an evaluator with variables and math
// functions. Numeric literals accept engineering suffixes ("4p", "251.2u",
// "1MEG"). It is the third-party "calculator" tool that the Artisan agents
// invoke by prompt instruction when a design step requires solving the
// compensation equations (paper §3.1, Fig. 7 Q3→A3).
package calc

import (
	"fmt"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokNumber
	tokIdent
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokCaret
	tokLParen
	tokRParen
	tokComma
	tokAssign
	tokParallel // "||": resistor-parallel operator a*b/(a+b)
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokNumber:
		return "number"
	case tokIdent:
		return "identifier"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokCaret:
		return "'^'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokAssign:
		return "'='"
	case tokParallel:
		return "'||'"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex splits src into tokens. Numbers are lexed greedily including
// engineering suffixes and unit tails, so "4pF" is one number token.
func lex(src string) ([]token, error) {
	var toks []token
	rs := []rune(src)
	i := 0
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r >= '0' && r <= '9', r == '.':
			start := i
			i++
			for i < len(rs) {
				c := rs[i]
				if c >= '0' && c <= '9' || c == '.' {
					i++
					continue
				}
				// exponent
				if (c == 'e' || c == 'E') && i+1 < len(rs) &&
					(rs[i+1] == '+' || rs[i+1] == '-' || unicode.IsDigit(rs[i+1])) {
					i += 2
					for i < len(rs) && unicode.IsDigit(rs[i]) {
						i++
					}
					continue
				}
				// engineering suffix / unit tail letters
				if unicode.IsLetter(c) || c == 'µ' || c == '°' {
					i++
					continue
				}
				break
			}
			toks = append(toks, token{tokNumber, string(rs[start:i]), start})
		case unicode.IsLetter(r) || r == '_':
			start := i
			for i < len(rs) && (unicode.IsLetter(rs[i]) || unicode.IsDigit(rs[i]) || rs[i] == '_') {
				i++
			}
			toks = append(toks, token{tokIdent, string(rs[start:i]), start})
		case r == '+':
			toks = append(toks, token{tokPlus, "+", i})
			i++
		case r == '-':
			toks = append(toks, token{tokMinus, "-", i})
			i++
		case r == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case r == '/':
			toks = append(toks, token{tokSlash, "/", i})
			i++
		case r == '^':
			toks = append(toks, token{tokCaret, "^", i})
			i++
		case r == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case r == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case r == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case r == '=':
			toks = append(toks, token{tokAssign, "=", i})
			i++
		case r == '|':
			if i+1 < len(rs) && rs[i+1] == '|' {
				toks = append(toks, token{tokParallel, "||", i})
				i += 2
			} else {
				return nil, fmt.Errorf("calc: stray '|' at position %d in %q", i, src)
			}
		default:
			return nil, fmt.Errorf("calc: unexpected character %q at position %d in %q", r, i, src)
		}
	}
	toks = append(toks, token{tokEOF, "", len(rs)})
	return toks, nil
}
