package profile

import (
	"strings"
	"testing"
)

// The allocation-regression suite: the merge kernels must be zero-alloc
// per comparison and profile construction must stay within a small
// constant number of allocations. CI runs these under -race so a kernel
// regression fails the build.

func allocProfiles() (*Profile, *Profile) {
	in := NewInterner()
	bld := NewBuilder(in, 3)
	pa := bld.Build("apple iphone 13 pro max 256gb graphite")
	pb := bld.Build("iphone 13 pro 256 gb graphite apple smartphone")
	return pa, pb
}

func TestKernelAllocsZero(t *testing.T) {
	pa, pb := allocProfiles()
	kernels := map[string]func(){
		"Jaccard":      func() { Jaccard(pa, pb) },
		"Overlap":      func() { Overlap(pa, pb) },
		"Cosine":       func() { Cosine(pa, pb) },
		"QGramJaccard": func() { QGramJaccard(pa, pb) },
	}
	for name, fn := range kernels {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %.1f allocs per comparison, want 0", name, n)
		}
	}
}

func TestLevenshteinAllocsSteadyState(t *testing.T) {
	pa, pb := allocProfiles()
	// Warm the row pool, then ASCII comparisons must be allocation-free.
	// A GC can empty the pool mid-measurement, so tolerate a fractional
	// refill while still failing on any per-call allocation (>= 1).
	Levenshtein(pa, pb)
	if n := testing.AllocsPerRun(200, func() { Levenshtein(pa, pb) }); n >= 1 {
		t.Errorf("ASCII Levenshtein: %.1f allocs per comparison, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { LevenshteinStrings("iphone 13 pro", "iphone 14 pro max") }); n >= 1 {
		t.Errorf("ASCII LevenshteinStrings: %.1f allocs per call, want 0", n)
	}
	// The 64-rune boundary: a shorter operand of 64 runes is the widest
	// the bit-parallel path takes, one more rune falls back to the DP.
	// Both sides of the boundary must stay allocation-free.
	in := NewInterner()
	bld := NewBuilder(in, 3)
	long := bld.Build(strings.Repeat("apple iphone 13 pro max ", 4))
	for _, n := range []int{64, 65} {
		short := bld.Build(strings.Repeat("iphone 14 pro ", 5)[:n])
		if short.RuneLen() != n {
			t.Fatalf("boundary operand has %d runes, want %d", short.RuneLen(), n)
		}
		Levenshtein(long, short)
		if a := testing.AllocsPerRun(200, func() { Levenshtein(long, short) }); a >= 1 {
			t.Errorf("ASCII Levenshtein, %d-rune shorter operand: %.1f allocs per comparison, want 0", n, a)
		}
	}
}

func TestMongeElkanAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		// The one-shot path reuses a pooled scratch builder; -race makes
		// sync.Pool drop items on purpose, so steady state never settles.
		t.Skip("pooled-scratch steady state is not measurable under -race")
	}
	a := "apple iphone 13 pro max 256gb graphite"
	b := "iphone 13 pro 256 gb graphite apple smartphone"
	// Warm the pooled scratch builder and row pool; as with
	// Levenshtein, tolerate a fractional GC-emptied-pool refill while
	// failing on any per-call allocation.
	SymMongeElkanStrings(a, b)
	if n := testing.AllocsPerRun(200, func() { MongeElkanStrings(a, b) }); n >= 1 {
		t.Errorf("MongeElkanStrings: %.1f allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { SymMongeElkanStrings(a, b) }); n >= 1 {
		t.Errorf("SymMongeElkanStrings: %.1f allocs per call, want 0", n)
	}
}

func TestBuildAllocsBounded(t *testing.T) {
	in := NewInterner()
	bld := NewBuilder(in, 3)
	text := "apple iphone 13 pro max 256gb graphite smartphone"
	bld.Build(text) // intern the vocabulary once
	// Steady state: one profile struct plus its own slices (seq, tokens,
	// freq, grams). The bound is deliberately loose against runtime
	// size-class noise while still catching an accidental per-token or
	// per-gram allocation (which would show up as ~10x).
	const maxAllocs = 8
	if n := testing.AllocsPerRun(100, func() { bld.Build(text) }); n > maxAllocs {
		t.Errorf("Build: %.1f allocs per profile, want <= %d", n, maxAllocs)
	}
}

func TestLevenshteinScratchCap(t *testing.T) {
	small := &levScratch{rows: make([]int32, 2*maxLevScratch)}
	if !putLevRows(small) {
		t.Error("cap-sized scratch was dropped, want pooled")
	}
	big := &levScratch{rows: make([]int32, 2*maxLevScratch+2)}
	if putLevRows(big) {
		t.Error("oversized scratch was pooled, want dropped")
	}
	// End to end: a pathological comparison still succeeds, it just
	// doesn't poison the pool.
	long := make([]byte, maxLevScratch+100)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	if d := LevenshteinStrings(string(long), "abc"); d != len(long)-3 {
		t.Errorf("long-string distance = %d, want %d", d, len(long)-3)
	}
}
