package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameQuantile reports whether a and b are the same quantile value: equal
// bits, both NaN, or zeros of either sign (which of two tied zeros a
// selection lands on is order-dependent; see QuantileSelectUnordered).
func sameQuantile(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b)) ||
		(a == 0 && b == 0)
}

// checkTailAgainstOracle feeds xs to a TailQuantile in the given chunks
// and compares Quantile and Mean with QuantileSelect and Mean over the
// whole stream, and the buffer with its construction-time capacity.
func checkTailAgainstOracle(t *testing.T, xs []float64, chunks []int, q float64, maxN, chunk int) {
	t.Helper()
	tq := NewTailQuantile(q, maxN, chunk)
	capacity := cap(tq.buf)
	rest := xs
	for _, c := range chunks {
		tq.Add(rest[:c])
		rest = rest[c:]
		if cap(tq.buf) != capacity {
			t.Fatalf("buffer capacity moved from %d to %d", capacity, cap(tq.buf))
		}
	}
	tq.Add(rest)
	if tq.Count() != len(xs) {
		t.Fatalf("Count = %d, want %d", tq.Count(), len(xs))
	}
	oracle := append([]float64(nil), xs...)
	if got, want := tq.Quantile(), QuantileSelect(oracle, q); !sameQuantile(got, want) {
		t.Fatalf("q=%v maxN=%d chunk=%d n=%d: Quantile = %v (%#x), QuantileSelect = %v (%#x)",
			q, maxN, chunk, len(xs), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := tq.Mean(), Mean(xs); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("q=%v n=%d: Mean = %v, arrival-order Mean = %v", q, len(xs), got, want)
	}
}

// randomChunks splits n into random chunk lengths (the final remainder
// is left to the caller).
func randomChunks(rng *rand.Rand, n int) []int {
	var out []int
	for n > 0 {
		c := rng.Intn(min(n, 400) + 1)
		out = append(out, c)
		n -= c
	}
	return out
}

func TestTailQuantileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gens := map[string]func() float64{
		"lognormal": func() float64 { return 20 * math.Exp(0.6*rng.NormFloat64()) },
		"ties":      func() float64 { return float64(rng.Intn(5)) },
		"zeros": func() float64 {
			switch rng.Intn(4) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return rng.Float64()
		},
		"negatives": func() float64 { return -50 + 100*rng.Float64() },
		"infinities": func() float64 {
			switch rng.Intn(10) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		},
		"wide":     func() float64 { return math.Ldexp(rng.Float64(), rng.Intn(400)-200) },
		"constant": func() float64 { return 7 },
	}
	qs := []float64{0, 0.01, 0.5, 0.9, 0.95, 0.999, 1}
	for name, gen := range gens {
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(3000)
			if trial%10 == 0 {
				n = 1 // one-sample runs
			}
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen()
			}
			maxN := n + rng.Intn(3)*rng.Intn(2000) // N = maxN about half the time
			chunk := 1 + rng.Intn(300)
			q := qs[trial%len(qs)]
			t.Run(name, func(t *testing.T) {
				checkTailAgainstOracle(t, xs, randomChunks(rng, n), q, maxN, chunk)
			})
		}
	}
}

// TestTailQuantileRunShape runs the cluster's shape — 1440-sample
// intervals of lognormal latencies up to the bound — and checks that the
// selector retains a small fraction of the run.
func TestTailQuantileRunShape(t *testing.T) {
	const perInterval, intervals = 1440, 48
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, perInterval*intervals)
	for i := range xs {
		xs[i] = 40 * math.Exp(0.4*rng.NormFloat64()) * (1 + float64(i/perInterval%7))
	}
	chunks := make([]int, intervals-1)
	for i := range chunks {
		chunks[i] = perInterval
	}
	checkTailAgainstOracle(t, xs, chunks, 0.95, len(xs), perInterval)

	tq := NewTailQuantile(0.95, len(xs), perInterval)
	for i := 0; i < len(xs); i += perInterval {
		tq.Add(xs[i : i+perInterval])
	}
	if tq.keep != 3457 {
		t.Fatalf("keep = %d, want 3457", tq.keep)
	}
	if r := len(tq.buf); r > 2*tq.keep+perInterval {
		t.Fatalf("retained %d samples, buffer bound %d", r, 2*tq.keep+perInterval)
	}
}

func TestTailQuantileEmptyAndNaN(t *testing.T) {
	tq := NewTailQuantile(0.95, 10, 4)
	if !math.IsNaN(tq.Quantile()) || !math.IsNaN(tq.Mean()) {
		t.Fatalf("empty selector: Quantile %v, Mean %v, want NaN", tq.Quantile(), tq.Mean())
	}
	// NaN samples make the quantile unspecified but must never panic,
	// whatever the compactions do with them.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		tq := NewTailQuantile([]float64{0, 0.5, 0.95, 1, math.NaN()}[trial%5], n, 1+rng.Intn(20))
		xs := make([]float64, n)
		for i := range xs {
			if i == 0 || rng.Intn(3) == 0 {
				xs[i] = math.NaN()
			} else {
				xs[i] = rng.Float64()
			}
		}
		for _, c := range randomChunks(rng, n) {
			tq.Add(xs[:c])
			xs = xs[c:]
		}
		tq.Add(xs)
		_ = tq.Quantile()
		if !math.IsNaN(tq.Mean()) {
			t.Fatalf("Mean over NaN samples = %v, want NaN", tq.Mean())
		}
	}
}

func TestTailQuantileBoundExceededPanics(t *testing.T) {
	tq := NewTailQuantile(0.95, 100, 10)
	tq.Add(make([]float64, 60))
	tq.Add(make([]float64, 40))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("adding past maxN did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "bound exceeded") {
			t.Fatalf("panic %v, want a bound-exceeded message", r)
		}
	}()
	tq.Add([]float64{1})
}

// TestTailQuantileAddZeroAlloc is the alloc-gate entry: a warm Add of one
// interval's samples, compactions included, allocates nothing.
func TestTailQuantileAddZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const perInterval, runs = 1440, 100
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, perInterval)
	for i := range xs {
		xs[i] = 30 * math.Exp(0.5*rng.NormFloat64())
	}
	tq := NewTailQuantile(0.95, (runs+2)*perInterval, perInterval)
	tq.Add(xs) // warm
	floorBefore := tq.floor
	allocs := testing.AllocsPerRun(runs, func() { tq.Add(xs) })
	if allocs != 0 {
		t.Fatalf("warm Add allocated %v times per run, want 0", allocs)
	}
	if tq.floor == floorBefore {
		t.Fatal("the measured Adds never compacted; the gate must cover a compaction")
	}
}

// decodeTailFuzz turns fuzz bytes into a q, a chunk size, a slack between
// the sample count and maxN, chunk boundaries and samples. Samples are
// 16-bit fixed-point values, so ties are common, with three codes for
// +Inf, −Inf and −0.
func decodeTailFuzz(data []byte) (q float64, chunk, slack int, cuts []int, xs []float64) {
	if len(data) < 3 {
		return 0.95, 1, 0, nil, nil
	}
	q = []float64{0.95, 0, 0.5, 0.9, 0.99, 1, 0.25, 0.999}[data[0]%8]
	chunk = 1 + int(data[1]%64)
	slack = int(data[2] % 8)
	for data = data[3:]; len(data) >= 2; data = data[2:] {
		v := binary.BigEndian.Uint16(data)
		switch v {
		case 0x7fff:
			xs = append(xs, math.Inf(1))
		case 0x8000:
			xs = append(xs, math.Inf(-1))
		case 0x8001:
			xs = append(xs, math.Copysign(0, -1))
		default:
			xs = append(xs, float64(int16(v))/16)
		}
		if v%7 == 0 {
			cuts = append(cuts, len(xs))
		}
	}
	return q, chunk, slack, cuts, xs
}

func FuzzTailQuantile(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{5, 1, 7, 0x7f, 0xff, 0x80, 0x00, 0x80, 0x01, 0, 0, 0, 0})
	f.Add([]byte{2, 63, 1, 0xff, 0xf0, 0x00, 0x10, 0x01, 0x00, 0x00, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, chunk, slack, cuts, xs := decodeTailFuzz(data)
		if len(xs) == 0 {
			return
		}
		chunks := make([]int, 0, len(cuts))
		prev := 0
		for _, c := range cuts {
			chunks = append(chunks, c-prev)
			prev = c
		}
		checkTailAgainstOracle(t, xs, chunks, q, len(xs)+slack, chunk)
	})
}
