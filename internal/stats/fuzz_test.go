package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// selectFuzzMaxN bounds the fuzzed series length: well past the
// insertion-sort cutoff of the selection kernels, and past the telemetry
// window, while keeping Theil–Sen's n(n−1)/2 slopes cheap.
const selectFuzzMaxN = 64

// decodeSelectFuzz turns fuzz bytes into a quantile q, a trend alpha and
// three equal-length series shaped like a telemetry window: xs is
// non-decreasing (interval indices, with repeats that Theil–Sen must skip),
// ys and zs are 16-bit fixed-point values, so ties and zero columns are
// common. Four codes decode to NaN, +Inf, −Inf and −0. data[0] = 255
// selects q = NaN; otherwise q = data[0]/250, which also covers q > 1.
func decodeSelectFuzz(data []byte) (q, alpha float64, xs, ys, zs []float64) {
	if len(data) < 2 {
		return 0.5, DefaultTrendAlpha, nil, nil, nil
	}
	q = float64(data[0]) / 250
	if data[0] == 255 {
		q = math.NaN()
	}
	alpha = float64(data[1]) / 255
	value := func(v uint16) float64 {
		switch v {
		case 0x7fff:
			return math.NaN()
		case 0x8000:
			return math.Inf(1)
		case 0x8001:
			return math.Inf(-1)
		case 0x8002:
			return math.Copysign(0, -1)
		}
		return float64(int16(v)) / 16
	}
	x := 0.0
	for data = data[2:]; len(data) >= 5 && len(xs) < selectFuzzMaxN; data = data[5:] {
		x += float64(data[0] % 4)
		xs = append(xs, x)
		ys = append(ys, value(binary.BigEndian.Uint16(data[1:])))
		zs = append(zs, value(binary.BigEndian.Uint16(data[3:])))
	}
	return q, alpha, xs, ys, zs
}

// classify reports whether every value is finite and whether any is −0.
func classify(cols ...[]float64) (finite, negZero bool) {
	finite = true
	for _, col := range cols {
		for _, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
			if v == 0 && math.Signbit(v) {
				negZero = true
			}
		}
	}
	return finite, negZero
}

// sameFloat is bit equality, or plain == when signed zeros may legitimately
// differ: which of two tied zeros (+0 == −0) a selection lands on depends
// on the algorithm.
func sameFloat(a, b float64, zeroSignFree bool) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	return zeroSignFree && a == b
}

// FuzzSelectKernels pins the production kernels to their sort-based,
// allocating oracles: on finite series QuantileSelect, TheilSenBuf and
// SpearmanBuf are bit-equal to QuantileReference, TheilSenReference and
// SpearmanReference, and QuantileSelectUnordered equals QuantileSelect up
// to the documented sign of a zero result, with the same errors. Every
// kernel runs twice through the same scratch, so a warm buffer must not
// change the answer. Series holding NaN or ±Inf only have to not panic.
// Seeds (telemetry-shaped windows, adversarial runs, specials) are in
// testdata/fuzz/FuzzSelectKernels.
func FuzzSelectKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		q, alpha, xs, ys, zs := decodeSelectFuzz(data)
		finite, negZero := classify(ys, zs)

		var own []float64
		for pass := 0; pass < 2; pass++ {
			own = append(own[:0], ys...)
			got := QuantileSelect(own, q)
			unordered := QuantileSelectUnordered(append([]float64(nil), ys...), q)
			if !finite {
				continue
			}
			want := QuantileReference(ys, q)
			if !sameFloat(got, want, negZero) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("QuantileSelect(%v, %v) = %v, oracle %v", ys, q, got, want)
			}
			if !sameFloat(unordered, got, true) && !(math.IsNaN(unordered) && math.IsNaN(got)) {
				t.Fatalf("QuantileSelectUnordered(%v, %v) = %v, QuantileSelect %v", ys, q, unordered, got)
			}
		}

		var buf []float64
		for pass := 0; pass < 2; pass++ {
			got, errGot := TheilSenBuf(xs, ys, alpha, &buf)
			if !finite {
				continue
			}
			want, errWant := TheilSenReference(xs, ys, alpha)
			if errGot != errWant {
				t.Fatalf("TheilSenBuf error %v, oracle %v", errGot, errWant)
			}
			if errGot == nil && !(sameFloat(got.Slope, want.Slope, negZero) &&
				sameFloat(got.Intercept, want.Intercept, negZero) &&
				got.Significant == want.Significant &&
				sameFloat(got.Agreement, want.Agreement, false) && got.N == want.N) {
				t.Fatalf("TheilSenBuf(%v, %v, %v) = %+v, oracle %+v", xs, ys, alpha, got, want)
			}
		}

		var sc SpearmanScratch
		for pass := 0; pass < 2; pass++ {
			got, errGot := SpearmanBuf(ys, zs, &sc)
			if !finite {
				continue
			}
			// Ranks compare values, and −0 == +0, so ρ is bit-exact even
			// with signed zeros present.
			want, errWant := SpearmanReference(ys, zs)
			if errGot != errWant {
				t.Fatalf("SpearmanBuf error %v, oracle %v", errGot, errWant)
			}
			if !sameFloat(got, want, false) {
				t.Fatalf("SpearmanBuf(%v, %v) = %v, oracle %v", ys, zs, got, want)
			}
		}
	})
}

// FuzzSketchBinary feeds arbitrary bytes to Sketch.UnmarshalBinary: it must
// never panic, must leave the receiver untouched on error, and any encoding
// it accepts must re-encode to exactly the same bytes, hold a count equal to
// its bucket sum, and answer quantile queries inside its exact [Min, Max]. Seeds (valid encodings and forged
// states) are in testdata/fuzz/FuzzSketchBinary.
func FuzzSketchBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSketch(0.02)
		s.Add(7)
		before, _ := s.MarshalBinary()
		if err := s.UnmarshalBinary(data); err != nil {
			after, _ := s.MarshalBinary()
			if !bytes.Equal(before, after) {
				t.Fatalf("failed decode (%v) modified the sketch", err)
			}
			return
		}
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted encoding re-encodes differently:\n in  %x\n out %x", data, enc)
		}
		// Quantile's rank walk relies on the count being the bucket sum.
		buckets := []uint64{s.zero, s.posInf, s.negInf}
		for _, m := range []map[int32]uint64{s.pos, s.neg} {
			for _, c := range m {
				buckets = append(buckets, c)
			}
		}
		var sum uint64
		for _, c := range buckets {
			var carry uint64
			if sum, carry = bits.Add64(sum, c, 0); carry != 0 {
				t.Fatalf("accepted bucket counts overflow uint64")
			}
		}
		if sum != s.Count() {
			t.Fatalf("accepted count %d, bucket sum %d", s.Count(), sum)
		}
		if s.Count() == 0 {
			return
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
			if v := s.Quantile(q); !(v >= s.Min() && v <= s.Max()) {
				t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, v, s.Min(), s.Max())
			}
		}
	})
}
