package profile

import "sync"

// Levenshtein edit distance. ASCII operands whose shorter side has at
// most 64 bytes run a bit-parallel kernel with its whole state on the
// stack. Everything else runs the classic DP, whose rows are recycled
// through a sync.Pool so steady-state comparisons allocate nothing, with
// a size cap so one pathological long string cannot pin a huge buffer
// in the pool forever.

// maxLevScratch is the widest DP row (in cells) the pool will retain.
// Wider rows are allocated fresh and dropped after use.
const maxLevScratch = 4096

// levScratch is one pooled allocation holding both DP rows.
type levScratch struct {
	rows []int32
}

var levPool = sync.Pool{
	New: func() any { return &levScratch{} },
}

// getLevRows returns two zero-length-agnostic DP rows of n cells each,
// backed by pooled storage where possible.
func getLevRows(n int) (*levScratch, []int32, []int32) {
	s := levPool.Get().(*levScratch)
	if cap(s.rows) < 2*n {
		s.rows = make([]int32, 2*n)
	}
	rows := s.rows[:2*n]
	return s, rows[:n], rows[n:]
}

// putLevRows returns scratch to the pool and reports whether it was
// retained; oversized scratch is dropped so the pool's steady-state
// footprint stays bounded.
func putLevRows(s *levScratch) bool {
	if cap(s.rows) > 2*maxLevScratch {
		return false
	}
	levPool.Put(s)
	return true
}

// runeView is a rune-indexable view over either a byte string (pure
// ASCII, the fast path) or a decoded rune slice. The at method is small
// enough to inline, so the DP inner loop pays no interface dispatch.
type runeView struct {
	s  string
	rs []rune
	n  int
}

func (v runeView) at(i int) rune {
	if v.rs != nil {
		return v.rs[i]
	}
	return rune(v.s[i])
}

// viewOf adapts a profile's cached rune data.
func viewOf(p *Profile) runeView {
	return runeView{s: p.text, rs: p.runes, n: p.runeLen}
}

// Levenshtein returns the edit distance between the profiled texts:
// minimum single-rune insertions, deletions, substitutions. ASCII texts
// whose shorter side has at most 64 bytes take O(len(a)+len(b)) time on
// the bit-parallel path; other inputs take O(len(a)*len(b)) time and
// O(min) pooled space. It allocates nothing in steady state for ASCII
// inputs. Equal texts short-circuit to 0 — on dirty-but-overlapping ER
// data many aligned attribute values match exactly, and the O(n)
// equality check dodges the distance computation.
func Levenshtein(a, b *Profile) int {
	if a.text == b.text {
		return 0
	}
	return levViews(viewOf(a), viewOf(b))
}

// LevenshteinRatio returns the paper's LR similarity (Eq. 5):
// 1 - LED(x, y) / (len(x) + len(y)), over rune lengths. Two empty
// strings yield 1, as do any two equal texts (short-circuited).
func LevenshteinRatio(a, b *Profile) float64 {
	if a.text == b.text {
		return 1
	}
	la, lb := a.runeLen, b.runeLen
	if la == 0 && lb == 0 {
		return 1
	}
	d := levViews(viewOf(a), viewOf(b))
	return 1 - float64(d)/float64(la+lb)
}

// LevenshteinStrings is the one-shot form: the edit distance between
// two plain strings with pooled scratch and the ASCII fast path, no
// profile required.
func LevenshteinStrings(a, b string) int {
	if a == b {
		return 0
	}
	return levViews(stringView(a), stringView(b))
}

// LevenshteinRatioStrings is the one-shot LR similarity over plain
// strings.
func LevenshteinRatioStrings(a, b string) float64 {
	if a == b {
		return 1
	}
	va, vb := stringView(a), stringView(b)
	if va.n == 0 && vb.n == 0 {
		return 1
	}
	d := levViews(va, vb)
	return 1 - float64(d)/float64(va.n+vb.n)
}

// stringView builds a runeView over a plain string, decoding to runes
// only when the string is not pure ASCII.
func stringView(s string) runeView {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			rs := []rune(s)
			return runeView{rs: rs, n: len(rs)}
		}
	}
	return runeView{s: s, n: len(s)}
}

// levViews is the shared edit distance. It keeps the shorter operand as
// the row dimension, exactly like the classic implementation. Two ASCII
// operands whose shorter side fits one machine word take the
// bit-parallel path; everything else runs the pooled DP. Both compute
// the exact distance, so results are identical either way.
func levViews(ra, rb runeView) int {
	if ra.n == 0 {
		return rb.n
	}
	if rb.n == 0 {
		return ra.n
	}
	// Keep the shorter string in rb to bound the row width.
	if rb.n > ra.n {
		ra, rb = rb, ra
	}
	if rb.n <= 64 && ra.rs == nil && rb.rs == nil {
		return levBitParallel(ra.s, rb.s)
	}
	return levDP(ra, rb)
}

// levBitParallel is Myers' bit-vector edit distance in Hyyrö's form for
// global Levenshtein distance (Myers 1999, JACM 46(3); Hyyrö 2001). The
// shorter ASCII operand p (1..64 bytes) is one column of the DP matrix
// encoded as vertical +1/-1 delta bit vectors; each byte of the longer
// operand t advances the whole column in O(1) word operations, and the
// bottom cell's score is tracked through the horizontal deltas of the
// last row. Bits above len(p) hold garbage that carries and shifts only
// move upward, so they never reach the tracked bit.
func levBitParallel(t, p string) int {
	var peq [128]uint64
	for i := 0; i < len(p); i++ {
		peq[p[i]] |= 1 << uint(i)
	}
	last := uint64(1) << uint(len(p)-1)
	pv, mv := ^uint64(0), uint64(0)
	score := len(p)
	for i := 0; i < len(t); i++ {
		eq := peq[t[i]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		// The top DP row is 0, 1, 2, …: every horizontal delta entering
		// the column from above is +1, hence the shifted-in 1 bit.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// levDP is the classic two-row DP over pooled scratch; rb is the
// shorter operand. It covers non-ASCII operands and operands too long
// for one machine word, and is the oracle the bit-parallel path is
// tested against.
func levDP(ra, rb runeView) int {
	scratch, prev, cur := getLevRows(rb.n + 1)
	for j := range prev {
		prev[j] = int32(j)
	}
	for i := 1; i <= ra.n; i++ {
		cur[0] = int32(i)
		ca := ra.at(i - 1)
		for j := 1; j <= rb.n; j++ {
			cost := int32(1)
			if ca == rb.at(j-1) {
				cost = 0
			}
			d := prev[j] + 1
			if v := cur[j-1] + 1; v < d {
				d = v
			}
			if v := prev[j-1] + cost; v < d {
				d = v
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	d := int(prev[rb.n])
	putLevRows(scratch)
	return d
}
