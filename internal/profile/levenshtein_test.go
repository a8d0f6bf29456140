package profile

import (
	"strings"
	"testing"
)

// dpDistance runs the pooled DP on any pair of strings, bypassing the
// bit-parallel path: it is the oracle that path is checked against.
func dpDistance(a, b string) int {
	return levDP(stringView(a), stringView(b))
}

// Every pair of strings over a 3-letter alphabet up to length 6 (1,093
// strings, about 1.2M ordered pairs) gets the same distance from
// LevenshteinStrings, which takes the bit-parallel path on them, as
// from the DP.
func TestLevenshteinExhaustiveSmallAlphabet(t *testing.T) {
	strs := []string{""}
	for prev := []string{""}; len(prev[0]) < 6; {
		var next []string
		for _, s := range prev {
			for _, c := range "abc" {
				next = append(next, s+string(c))
			}
		}
		strs = append(strs, next...)
		prev = next
	}
	for _, a := range strs {
		for _, b := range strs {
			if got, want := LevenshteinStrings(a, b), dpDistance(a, b); got != want {
				t.Fatalf("LevenshteinStrings(%q, %q) = %d, DP %d", a, b, got, want)
			}
		}
	}
}

// FuzzLevenshteinBitParallel checks LevenshteinStrings against the
// plain reference DP on arbitrary string pairs, in both argument
// orders. The seeds straddle the 64-rune word boundary of the
// bit-parallel path and include empty and non-ASCII operands.
func FuzzLevenshteinBitParallel(f *testing.F) {
	text := strings.Repeat("apple iphone 13 pro max 256gb graphite ", 6)
	other := strings.Repeat("iphone 13 pro 256 gb graphite (renewed) ", 6)
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		f.Add(text[:n], other[:n])
		f.Add(text[:n], other[:min(n+7, len(other))])
		f.Add(other[:n], "")
	}
	f.Add("", "")
	f.Add("café crème", "cafe creme")
	f.Add(strings.Repeat("ü", 64), strings.Repeat("u", 64))
	f.Add("\xff\xfe", "ab")
	f.Fuzz(func(t *testing.T, a, b string) {
		want := refLevenshtein(a, b)
		if got := LevenshteinStrings(a, b); got != want {
			t.Fatalf("LevenshteinStrings(%q, %q) = %d, ref %d", a, b, got, want)
		}
		if got := LevenshteinStrings(b, a); got != want {
			t.Fatalf("LevenshteinStrings(%q, %q) = %d, ref %d", b, a, got, want)
		}
	})
}
