// Package tokens provides subword token counting for prompt budgeting and
// API cost accounting.
//
// Proprietary LLM APIs bill per BPE token. Offline we cannot ship OpenAI's
// exact merges table, so this package implements a deterministic greedy
// subword segmenter over a built-in vocabulary of frequent English
// fragments. Its counts track the usual "~4 characters or ~0.75 words per
// token" rule of thumb that the paper's own cost estimates use (90 tokens
// for ~60 words), which is what matters for reproducing the paper's cost
// ratios: all methods are billed with the same meter.
package tokens

import (
	"unicode"
	"unicode/utf8"
)

// Counter segments text into subword tokens and counts them. The zero
// value is not usable; construct with NewCounter.
type Counter struct {
	vocab map[string]bool
	// maxPiece is the longest vocabulary entry, bounding the greedy scan.
	maxPiece int
}

// defaultVocab lists common English subwords and fragments. Greedy
// longest-match against this vocabulary yields realistic per-word token
// counts: short frequent words are one token, long rare words split into
// several pieces.
var defaultVocab = []string{
	// Whole frequent words.
	"the", "and", "for", "are", "this", "that", "with", "from", "same",
	"yes", "no", "not", "question", "answer", "task", "entity", "entities",
	"match", "matching", "different", "identical", "record", "records",
	"product", "title", "name", "price", "brand", "year", "type", "city",
	"phone", "address", "album", "artist", "genre", "time", "released",
	"description", "category", "manufacturer", "model", "version", "author",
	"authors", "venue", "abv", "beer", "brewery", "style", "song", "music",
	"restaurant", "food", "street", "class", "copyright", "duplicate",
	"deduplication", "resolution", "refer", "object", "real", "world",
	"following", "pairs", "pair", "each", "whether", "given", "consider",
	// Common prefixes/suffixes and fragments.
	"ing", "ion", "tion", "ation", "ment", "ness", "able", "ible", "ally",
	"ed", "er", "est", "ly", "un", "re", "pre", "pro", "con", "com", "de",
	"dis", "en", "ex", "in", "im", "inter", "micro", "multi", "over",
	"semi", "sub", "super", "trans", "under", "anti", "auto", "co",
	"al", "an", "ar", "as", "at", "ea", "el", "en", "es", "ic", "is",
	"it", "le", "nd", "nt", "on", "or", "ou", "ra", "ri", "ro", "st",
	"te", "th", "ti", "to", "ve",
}

// NewCounter returns a Counter with the default vocabulary.
func NewCounter() *Counter {
	c := &Counter{vocab: make(map[string]bool, len(defaultVocab))}
	for _, p := range defaultVocab {
		c.vocab[p] = true
		if len(p) > c.maxPiece {
			c.maxPiece = len(p)
		}
	}
	return c
}

// shared is the package-level counter behind Count.
var shared = NewCounter()

// Count returns the number of subword tokens in s using the default
// vocabulary. It is safe for concurrent use.
func Count(s string) int { return shared.Count(s) }

// Count returns the number of subword tokens in s: len(c.Split(s)),
// computed without building the pieces. Words up to 64 bytes are
// lowercased into a stack buffer and vocabulary lookups index the map
// with that buffer directly, so counting allocates nothing.
func (c *Counter) Count(s string) int {
	var arr [64]byte
	buf := arr[:0]
	sc := scanner{s: s}
	n := 0
	for {
		kind, w := sc.next(buf[:0])
		switch kind {
		case endOfText:
			return n
		case wordTok:
			n += c.countWord(w)
			buf = w
		default:
			n++
		}
	}
}

// Split segments s into subword tokens. Words are segmented by greedy
// longest-match against the vocabulary with single-character fallback
// capped so that a word of length L yields at most ceil(L/4)+1 pieces on
// vocabulary misses (matching BPE behaviour on unknown words: chunks, not
// one token per character). Punctuation and digits group into small runs.
func (c *Counter) Split(s string) []string {
	var out []string
	var buf []byte
	sc := scanner{s: s}
	for {
		kind, w := sc.next(buf[:0])
		switch kind {
		case endOfText:
			return out
		case wordTok:
			buf = w
			if c.wholeWord(w) {
				out = append(out, string(w))
				break
			}
			for i := 0; i < len(w); {
				l := c.pieceLen(w[i:])
				out = append(out, string(w[i:i+l]))
				i += l
			}
		case numTok:
			out = append(out, "<num>")
		case punctTok:
			out = append(out, "<punct>")
		}
	}
}

// tokenKind classifies what scanner.next found.
type tokenKind uint8

const (
	endOfText tokenKind = iota
	wordTok             // a run of letters, lowercased
	numTok              // the start of a group of up to 3 digits
	punctTok            // the start of a group of up to 2 other characters
)

// scanner holds the segmentation rules shared by Split and Count.
// Letters join a word; digits group in runs of up to 3 per token, like
// GPT BPE; whitespace separates; any other rune is punctuation, counted
// once per two characters of a run. A letter or whitespace ends the
// current digit or punctuation run.
type scanner struct {
	s               string
	runKind, runLen int // runKind: 0 none, 1 digit, 2 punct
}

// next consumes input up to the next token and returns its kind. For a
// wordTok, the word is appended to buf in lowercase UTF-8 (exactly as
// string([]rune) encodes the lowered runes) and returned; otherwise buf
// is returned unchanged.
func (sc *scanner) next(buf []byte) (tokenKind, []byte) {
	for len(sc.s) > 0 {
		r, size := rune(sc.s[0]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(sc.s)
		}
		if unicode.IsLetter(r) {
			sc.runKind, sc.runLen = 0, 0
			if r < utf8.RuneSelf {
				buf = append(buf, byte(r)|0x20) // ASCII letters lowercase by one bit
			} else {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
			}
			sc.s = sc.s[size:]
			continue
		}
		if len(buf) > 0 {
			// The word ends here; this rune is scanned by the next call.
			return wordTok, buf
		}
		sc.s = sc.s[size:]
		switch {
		case unicode.IsDigit(r):
			if sc.runKind != 1 || sc.runLen == 3 {
				sc.runKind, sc.runLen = 1, 1
				return numTok, buf
			}
			sc.runLen++
		case unicode.IsSpace(r):
			sc.runKind, sc.runLen = 0, 0
		default:
			if sc.runKind != 2 || sc.runLen == 2 {
				sc.runKind, sc.runLen = 2, 1
				return punctTok, buf
			}
			sc.runLen++
		}
	}
	if len(buf) > 0 {
		return wordTok, buf
	}
	return endOfText, buf
}

// countWord returns how many pieces Split yields for the lowercase
// word w.
func (c *Counter) countWord(w []byte) int {
	if c.wholeWord(w) {
		return 1
	}
	n := 0
	for i := 0; i < len(w); i += c.pieceLen(w[i:]) {
		n++
	}
	return n
}

// wholeWord reports whether the lowercase word w is a single token:
// short words and vocabulary words are.
func (c *Counter) wholeWord(w []byte) bool {
	return len(w) <= 4 || c.vocab[string(w)]
}

// pieceLen returns the byte length of the greedy piece at the start of
// the non-empty rest of a word: the longest vocabulary entry of at
// least two bytes, or else a chunk of up to 5 bytes, emulating BPE
// byte-fallback grouping rather than per-character explosion.
func (c *Counter) pieceLen(rest []byte) int {
	maxLen := min(len(rest), c.maxPiece)
	for l := maxLen; l >= 2; l-- {
		if c.vocab[string(rest[:l])] {
			return l
		}
	}
	return min(5, len(rest))
}

// EstimateWords returns an approximate token count from a word count using
// the 0.75 words-per-token rule. It is used only for documentation-level
// estimates; billing paths call Count on real strings.
func EstimateWords(words int) int {
	return (words*4 + 2) / 3
}
