package stats

import (
	"fmt"
	"math"
)

// TailQuantile computes one q-quantile and the mean of a stream of at
// most maxN samples in bounded memory, exactly: Quantile is bit-identical
// to QuantileSelect over every sample added, and Mean to Mean over the
// samples in arrival order.
//
// The bound is what makes it exact. For any N ≤ maxN the two order
// statistics QuantileSelect interpolates lie among the top
// keep = maxN − ⌊q·(maxN−1)⌋ samples (N − ⌊q·(N−1)⌋ never decreases in N),
// so a sample below keep others can never be read. The selector keeps
// every sample at or above a retention floor that only rises, and raises
// the floor only while at least keep retained samples stay at or above
// it. Every discarded sample is then ≤ every retained one, and Quantile
// selects ranks shifted by the number discarded. At P95 over a 48-interval
// cluster run, keep is 3,457 of up to 69,120 samples.
//
// Per sample, Add costs one running-sum addition and one compare-and-store.
// When the buffer (2·keep plus one chunk) fills, a compaction bins the
// retained samples by the top bits of their float encoding, lifts the
// floor to the lower edge of the highest bin with at least keep samples
// at or above it, and filters: two linear passes plus a max scan. Only
// when that cannot free a chunk's room (heavy ties, a degenerate spread)
// does it fall back to selecting exactly the top keep.
//
// Adding more than maxN samples panics: past the bound the retained set
// could miss the quantile, and a silently wrong tail is worse than a
// crash. NaN samples never panic but make Quantile unspecified, as with
// QuantileSelect; Mean propagates them. The zero value is not usable; a
// TailQuantile is single-goroutine state.
type TailQuantile struct {
	q     float64
	maxN  int
	keep  int     // retained samples never drop below this once any is discarded
	slack int     // room a compaction must free: the expected Add size
	n     int     // samples added
	sum   float64 // arrival-order sum of every sample added
	// floor is the retention floor: samples below it are discarded. It
	// starts at −Inf and never decreases.
	floor float64
	// buf holds the retained samples in no particular order. Its capacity
	// is fixed at construction.
	buf []float64
}

// NewTailQuantile returns a selector for the q-quantile of at most maxN
// samples. chunk is the caller's usual Add size; the retained buffer is
// allocated once, at 2·keep + chunk samples (or maxN, if smaller). It
// panics if maxN < 1.
func NewTailQuantile(q float64, maxN, chunk int) *TailQuantile {
	if maxN < 1 {
		panic(fmt.Sprintf("stats: NewTailQuantile maxN %d < 1", maxN))
	}
	keep := maxN
	switch {
	case math.IsNaN(q) || q >= 1:
		keep = 1
	case q > 0:
		keep = maxN - int(math.Floor(q*float64(maxN-1)))
	}
	slack := max(chunk, 1)
	return &TailQuantile{
		q:     q,
		maxN:  maxN,
		keep:  keep,
		slack: slack,
		floor: math.Inf(-1),
		buf:   make([]float64, 0, min(maxN, 2*keep+slack)),
	}
}

// Add appends samples in arrival order. It panics if the total would
// exceed maxN.
func (t *TailQuantile) Add(xs []float64) {
	if len(xs) > t.maxN-t.n {
		panic(fmt.Sprintf("stats: TailQuantile bound exceeded: %d + %d samples > maxN %d", t.n, len(xs), t.maxN))
	}
	t.n += len(xs)
	for len(xs) > 0 {
		if len(t.buf) == cap(t.buf) {
			t.compact()
		}
		m := min(cap(t.buf)-len(t.buf), len(xs))
		t.store(xs[:m])
		xs = xs[m:]
	}
}

// store sums xs and retains the samples at or above the floor; the
// buffer has room for all of xs. Every sample is written and the length
// advances only for kept ones, so the loop carries no data-dependent
// branch around the store.
func (t *TailQuantile) store(xs []float64) {
	buf := t.buf[:cap(t.buf)]
	k := len(t.buf)
	floor, sum := t.floor, t.sum
	for _, x := range xs {
		sum += x
		buf[k] = x
		if !(x < floor) {
			k++
		}
	}
	t.buf, t.sum = buf[:k], sum
}

// compact frees room in a full buffer. The binned floor usually frees a
// chunk's worth; when it cannot, the top keep are selected exactly.
func (t *TailQuantile) compact() {
	if f, ok := t.binnedFloor(); ok && f > t.floor {
		t.floor = f
		t.filter()
	}
	if len(t.buf) > cap(t.buf)-t.slack {
		t.selectTop()
	}
}

// tailBinShift keeps a float's sign, exponent and three mantissa bits:
// eight bins per octave.
const tailBinShift = 64 - 1 - 11 - 3

// tailBins is how many bins below the largest sample's a compaction
// resolves (32 octaves); everything further down shares the last bin.
const tailBins = 256

// binnedFloor histograms the retained samples by binned order key,
// counting down from the largest, and returns the lower edge of the
// highest bin with at least keep samples at or above it. ok is false when
// no resolved bin qualifies or the edge is not a number.
func (t *TailQuantile) binnedFloor() (floor float64, ok bool) {
	var top uint64
	for _, x := range t.buf {
		top = max(top, orderKey(x))
	}
	top >>= tailBinShift
	var hist [tailBins]int32
	for _, x := range t.buf {
		hist[min(top-orderKey(x)>>tailBinShift, tailBins-1)]++
	}
	cum := 0
	for d, c := range hist[:tailBins-1] {
		if cum += int(c); cum >= t.keep {
			f := keyFloat((top - uint64(d)) << tailBinShift)
			return f, !math.IsNaN(f)
		}
	}
	return 0, false
}

// filter drops the retained samples below the floor.
func (t *TailQuantile) filter() {
	buf, floor := t.buf, t.floor
	k := 0
	for _, x := range buf {
		buf[k] = x
		if !(x < floor) {
			k++
		}
	}
	t.buf = buf[:k]
}

// selectTop keeps exactly the top keep samples and lifts the floor to the
// smallest of them. The selection leaves everything it drops ≤ that
// floor ≤ everything it keeps.
func (t *TailQuantile) selectTop() {
	cut := len(t.buf) - t.keep
	selectKthHoare(t.buf, cut)
	t.floor = t.buf[cut]
	t.buf = t.buf[:copy(t.buf, t.buf[cut:])]
}

// Quantile returns the q-quantile of every sample added, bit-identical to
// QuantileSelect over all of them (up to the sign of a zero result, as
// between QuantileSelect and QuantileSelectUnordered); NaN when empty. It
// reorders the retained samples, so Add may continue afterwards.
func (t *TailQuantile) Quantile() float64 {
	return quantileTop(t.buf, t.q, t.n, selectKth)
}

// Mean returns the mean of every sample added, bit-identical to Mean over
// them in arrival order; NaN when empty.
func (t *TailQuantile) Mean() float64 {
	if t.n == 0 {
		return math.NaN()
	}
	return t.sum / float64(t.n)
}

// Count returns how many samples have been added.
func (t *TailQuantile) Count() int { return t.n }

// orderKey maps a float64 to a uint64 whose unsigned order is the float
// order: non-negative floats get the sign bit set, negative ones are
// inverted. −0 sorts just below +0; NaNs sort outside ±Inf.
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyFloat inverts orderKey.
func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}
