// Selection-based order-statistic kernels for the per-tenant telemetry hot
// path. A sort-based quantile copies its input and pays an O(n log n) sort
// per call; at fleet scale the telemetry manager computes a dozen medians
// per tenant per billing interval, so the copies and sorts dominate.
// QuantileSelect reorders a caller-owned slice with introselect — expected
// O(n), no allocation — and returns values that are bit-identical to the
// sort-based oracle (the same order statistics fed through the same
// interpolation expression), which the property tests in select_test.go
// and FuzzSelectKernels assert on random, tied and adversarial inputs.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// QuantileSelect returns the q-quantile of xs (0 ≤ q ≤ 1) with the same
// linear interpolation between order statistics as Quantile, but selects
// the needed order statistics in place with introselect instead of sorting
// a copy: expected O(n), zero allocations, xs reordered. Returns NaN for
// empty input and for q = NaN (a NaN quantile slips past both clamps, and
// int(math.Floor(NaN)) would otherwise index out of range). NaN values in
// xs never panic but make the result unspecified, as with Median. When xs
// mixes +0 and −0 the sign of a zero result can differ from a sort-based
// selection's: the two compare equal, and which lands in the slot depends
// on the algorithm.
func QuantileSelect(xs []float64, q float64) float64 {
	return quantileTop(xs, q, len(xs), selectKth)
}

// QuantileSelectUnordered returns exactly QuantileSelect's value — the same
// order statistics fed through the same interpolation expression — but
// leaves xs in an unspecified order, which frees it to partition with the
// Hoare scheme: Hoare swaps only wrong-sided pairs, where the Lomuto scheme
// in selectKth swaps every element below the pivot — for a high quantile
// such as P95 that is nearly the whole range on the first pass. Callers
// whose slice is dead or reset after the call (the engine's per-interval
// P95) use this; callers that need a deterministic permutation of xs keep
// QuantileSelect. The returned value is algorithm-independent up to the
// sign of a zero result: which values are the k-th and (k+1)-th order
// statistics of a multiset does not depend on how they are selected, but
// which of two tied zeros (+0 and −0 compare equal) lands in the slot does.
func QuantileSelectUnordered(xs []float64, q float64) float64 {
	return quantileTop(xs, q, len(xs), selectKthHoare)
}

// quantileTop returns the q-quantile of an n-sample multiset of which xs
// holds the len(xs) largest: the n−len(xs) absent samples are ≤ every
// element of xs, and xs must hold every order statistic the quantile
// reads (for q ≤ 0 that is the minimum, so nothing may be absent). The
// needed ranks are selected in place with sel, and the value is exactly
// the one the whole multiset would give: the same order statistics fed
// through the same interpolation expression. QuantileSelect (n = len(xs))
// and TailQuantile (n = every sample seen) share it.
func quantileTop(xs []float64, q float64, n int, sel func([]float64, int)) float64 {
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		m := xs[0]
		for _, v := range xs[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	if q >= 1 {
		m := xs[0]
		for _, v := range xs[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}
	pos := q * float64(n-1)
	rank := int(math.Floor(pos))
	off := n - len(xs)
	lo := rank - off
	hi := int(math.Ceil(pos)) - off
	sel(xs, lo)
	if lo == hi {
		return xs[lo]
	}
	// hi == lo+1: after selection everything right of lo is ≥ xs[lo], so
	// the next order statistic is the minimum of that suffix.
	hiVal := xs[hi]
	for _, v := range xs[hi+1:] {
		if v < hiVal {
			hiVal = v
		}
	}
	frac := pos - float64(rank)
	return xs[lo]*(1-frac) + hiVal*frac
}

// selectKthHoare is selectKth with Hoare partitioning: same postcondition
// (xs[k] is the k-th order statistic, prefix ≤, suffix ≥), different — and
// unspecified — final order elsewhere. Median-of-three pivot selection
// doubles as the sentinel guard (xs[lo] ≤ pivot ≤ xs[hi]), so the inner
// scans need no bounds checks beyond the crossing test.
func selectKthHoare(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	depth := 2 * bits.Len(uint(len(xs)))
	for hi > lo {
		if hi-lo < 12 {
			insertionSort(xs, lo, hi)
			return
		}
		if depth == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		depth--
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] ≤ pivot ≤ xs[i..hi]; anything strictly between j and i
		// equals the pivot and is already in final position.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// selectKth partially sorts xs so that xs[k] holds the k-th order statistic
// (0-based), everything before it is ≤ xs[k] and everything after is ≥
// xs[k]. Introselect: quickselect with a median-of-three pivot, an
// insertion-sort base case, and a full sort of the remaining range once the
// recursion depth budget is exhausted (which bounds the worst case at
// O(n log n) even on adversarial inputs such as all-equal runs).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	depth := 2 * bits.Len(uint(len(xs)))
	for hi > lo {
		if hi-lo < 12 {
			insertionSort(xs, lo, hi)
			return
		}
		if depth == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		depth--
		p := partitionMedian3(xs, lo, hi)
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
}

// partitionMedian3 partitions xs[lo..hi] around the median of the first,
// middle and last elements and returns the pivot's final index.
func partitionMedian3(xs []float64, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	xs[mid], xs[hi] = xs[hi], xs[mid] // pivot to the end
	pivot := xs[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi] = xs[hi], xs[i]
	return i
}

func insertionSort(xs []float64, lo, hi int) {
	for i := lo + 1; i <= hi; i++ {
		v := xs[i]
		j := i - 1
		for j >= lo && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
