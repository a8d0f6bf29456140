package tokens

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountEmpty(t *testing.T) {
	if got := Count(""); got != 0 {
		t.Errorf("Count(empty) = %d, want 0", got)
	}
	if got := Count("   \t\n"); got != 0 {
		t.Errorf("Count(whitespace) = %d, want 0", got)
	}
}

func TestCountShortWordsOneToken(t *testing.T) {
	for _, w := range []string{"a", "an", "the", "cat", "is"} {
		if got := Count(w); got != 1 {
			t.Errorf("Count(%q) = %d, want 1", w, got)
		}
	}
}

func TestCountVocabWordsOneToken(t *testing.T) {
	for _, w := range []string{"matching", "question", "entity", "manufacturer"} {
		if got := Count(w); got != 1 {
			t.Errorf("Count(%q) = %d, want 1 (in vocab)", w, got)
		}
	}
}

func TestCountLongUnknownWordSplits(t *testing.T) {
	got := Count("zxqvwkjhgf")
	if got < 2 || got > 4 {
		t.Errorf("Count(long unknown) = %d, want 2-4 pieces", got)
	}
}

func TestCountSentenceBand(t *testing.T) {
	// ~60 words should land near the paper's ~90 token estimate for an
	// entity pair (the 0.75 words/token heuristic), within a loose band.
	words := make([]string, 60)
	sample := []string{"title", "apple", "iphone", "smartphone", "graphite",
		"storage", "display", "retina", "camera", "battery"}
	for i := range words {
		words[i] = sample[i%len(sample)]
	}
	got := Count(strings.Join(words, " "))
	if got < 60 || got > 130 {
		t.Errorf("Count(60 words) = %d, want within [60, 130]", got)
	}
}

func TestCountMonotonicUnderConcat(t *testing.T) {
	f := func(a, b string) bool {
		// Concatenation with a space never yields fewer tokens than the
		// larger part alone.
		whole := Count(a + " " + b)
		ca, cb := Count(a), Count(b)
		return whole >= ca && whole >= cb && whole <= ca+cb+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountDigitsGroup(t *testing.T) {
	// 6 digits should be 2 tokens (runs of 3), not 6.
	if got := Count("123456"); got != 2 {
		t.Errorf("Count(123456) = %d, want 2", got)
	}
	if got := Count("12"); got != 1 {
		t.Errorf("Count(12) = %d, want 1", got)
	}
}

func TestCountPunctuation(t *testing.T) {
	if got := Count("..."); got != 2 {
		t.Errorf("Count(...) = %d, want 2", got)
	}
	if got := Count(","); got != 1 {
		t.Errorf("Count(,) = %d, want 1", got)
	}
}

func TestCountDeterministic(t *testing.T) {
	s := "title: Apple iPhone 13 Pro, price: 999.00 [SEP] title: iPhone 13 Pro Max, price: 1099.00"
	a, b := Count(s), Count(s)
	if a != b {
		t.Errorf("Count not deterministic: %d vs %d", a, b)
	}
	if a < 15 || a > 45 {
		t.Errorf("Count(pair line) = %d, expected realistic band [15,45]", a)
	}
}

func TestSplitReassemblesLetters(t *testing.T) {
	c := NewCounter()
	pieces := c.Split("unconventional")
	joined := strings.Join(pieces, "")
	if joined != "unconventional" {
		t.Errorf("Split pieces %v reassemble to %q", pieces, joined)
	}
}

func TestEstimateWords(t *testing.T) {
	if got := EstimateWords(60); got != 80 {
		t.Errorf("EstimateWords(60) = %d, want 80", got)
	}
	if got := EstimateWords(0); got != 0 {
		t.Errorf("EstimateWords(0) = %d, want 0", got)
	}
}

// Split's pieces are pinned, so the meter's segmentation cannot drift:
// letters lowercase (İ to one-byte i), digits group by three, other
// runes by two, and greedy pieces are byte slices of the lowered word,
// even where that cuts a multi-byte rune.
func TestSplitPinned(t *testing.T) {
	c := NewCounter()
	for s, want := range map[string][]string{
		"İSTANBUL Σίσυφος café": {"is", "tanbu", "l", "σί\xcf", "\x83υφ", "ος", "café"},
		"Apple iPhone13, 1234567 ...!? deduplications": {"apple", "iphon", "e", "<num>", "<punct>",
			"<num>", "<num>", "<num>", "<punct>", "<punct>", "<punct>", "deduplication", "s"},
		"unconventionalxyz rexyz": {"un", "con", "ve", "nt", "ion", "al", "xyz", "re", "xyz"},
	} {
		if got := c.Split(s); !reflect.DeepEqual(got, want) {
			t.Errorf("Split(%q) = %q, want %q", s, got, want)
		}
	}
}

// FuzzCountMatchesSplit checks that counting without building pieces
// agrees with Split on arbitrary text. The seeds cover invalid UTF-8,
// letters whose lowercase form has a different UTF-8 length (İ lowers
// to i) or form (Σ), and words longer than Count's 64-byte stack
// buffer.
func FuzzCountMatchesSplit(f *testing.F) {
	for _, s := range []string{
		"",
		"title: Apple iPhone 13 Pro Max 256GB graphite, price: 1099.00",
		"\xff\xfe\xfdabc\xc3",
		"İSTANBUL İİİİİ",
		"ΣΊΣΥΦΟΣ σίσυφος",
		strings.Repeat("deduplication", 6),
		strings.Repeat("İ", 40) + "tion",
		strings.Repeat("zxq", 30) + " ok",
		"１２３４ ٣٤٥ ab...,,!!",
	} {
		f.Add(s)
	}
	c := NewCounter()
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := c.Count(s), len(c.Split(s)); got != want {
			t.Fatalf("Count(%q) = %d, len(Split) = %d", s, got, want)
		}
	})
}

// Count is the meter on every billed prompt; it must not allocate,
// whatever the prompt's words, digits or punctuation.
func TestCountAllocsZero(t *testing.T) {
	var b strings.Builder
	for b.Len() < 1024 {
		b.WriteString("Question 3: title: Apple iPhone 13 Pro Max 256GB graphite, price: 1099.00 [SEP] ")
		b.WriteString("title: iPhone 13 Pro (Renewed) café crème, brand: APPLE INC. ")
	}
	prompt := b.String()
	if n := testing.AllocsPerRun(100, func() { Count(prompt) }); n != 0 {
		t.Errorf("Count on a %d-byte prompt: %.1f allocs per call, want 0", len(prompt), n)
	}
}

func BenchmarkCount(b *testing.B) {
	s := strings.Repeat("title: Apple iPhone 13 Pro Max 256GB graphite smartphone, price: 1099.00 ", 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(s)
	}
}
