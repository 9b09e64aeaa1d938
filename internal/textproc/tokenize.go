package textproc

import (
	"strings"
	"unicode"
)

// Tokenize lowercases text and splits it into words. Letters and
// digits stay together; everything else separates tokens. Hyphenated
// compounds ("break-in") are kept whole, matching how the keyword
// lists are written.
func Tokenize(text string) []string {
	var out []string
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			out = append(out, sb.String())
			sb.Reset()
		}
	}
	runes := []rune(text)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			sb.WriteRune(unicode.ToLower(r))
		case r == '-' && sb.Len() > 0 && i+1 < len(runes) && unicode.IsLetter(runes[i+1]):
			sb.WriteRune('-')
		default:
			flush()
		}
	}
	flush()
	return out
}
