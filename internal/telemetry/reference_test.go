package telemetry

import (
	"daasscale/internal/resource"
	"daasscale/internal/stats"
)

// signalsReference is the equivalence oracle for Manager.Signals: it
// recomputes every signal from AppendSnapshots copies, with a fresh slice
// per column and fresh kernel scratch per call, through the same stats
// kernels. It shares no ring indexing, scratch arena or cache with the
// fast path, so Signals() == signalsReference() checks the manager's
// plumbing; the kernels themselves are pinned to their sort-based oracles
// by the stats property tests and FuzzSelectKernels.
func signalsReference(m *Manager) (Signals, bool) {
	snaps := m.AppendSnapshots(nil)
	n := len(snaps)
	if n < MinIntervalsForSignals {
		return Signals{}, false
	}
	column := func(get func(*Snapshot) float64) []float64 {
		col := make([]float64, n)
		for i := range snaps {
			col[i] = get(&snaps[i])
		}
		return col
	}
	xs := column(func(s *Snapshot) float64 { return float64(s.Interval) })
	p95 := column(func(s *Snapshot) float64 { return s.P95LatencyMs })
	prev := snaps[n-2]

	var sig Signals
	sig.Window = n
	sig.Quality = m.quality(n)
	sig.Current = snaps[n-1]
	sig.MemoryUsedMB = sig.Current.MemoryUsedMB
	sig.OfferedRPS = stats.Median(column(func(s *Snapshot) float64 { return s.OfferedRPS }))
	sig.PhysicalReadsMedian = stats.Median(column(func(s *Snapshot) float64 { return s.PhysicalReads }))
	sig.Latency.AvgMs = stats.Median(column(func(s *Snapshot) float64 { return s.AvgLatencyMs }))
	sig.Latency.P95Ms = stats.Median(p95)
	sig.Latency.PrevAvgMs = prev.AvgLatencyMs
	sig.Latency.PrevP95Ms = prev.P95LatencyMs
	if tr, err := stats.TheilSenBuf(xs, p95, m.alpha, new([]float64)); err == nil {
		sig.Latency.Trend = tr
	}

	for _, k := range resource.Kinds {
		wc := WaitClassFor(k)
		util := column(func(s *Snapshot) float64 { return s.Utilization[k] })
		wait := column(func(s *Snapshot) float64 { return s.WaitMs[wc] })
		rs := ResourceSignals{
			Utilization:     stats.Median(util),
			WaitMs:          stats.Median(wait),
			WaitPct:         stats.Median(column(func(s *Snapshot) float64 { return s.WaitPct(wc) })),
			PrevWaitMs:      prev.WaitMs[wc],
			PrevUtilization: prev.Utilization[k],
		}
		if tr, err := stats.TheilSenBuf(xs, util, m.alpha, new([]float64)); err == nil {
			rs.UtilTrend = tr
		}
		if tr, err := stats.TheilSenBuf(xs, wait, m.alpha, new([]float64)); err == nil {
			rs.WaitTrend = tr
		}
		if rho, err := stats.SpearmanBuf(wait, p95, new(stats.SpearmanScratch)); err == nil {
			rs.WaitLatencyCorr = rho
		}
		sig.Resources[k] = rs
	}

	for _, wc := range []WaitClass{WaitLock, WaitLatch, WaitSystem} {
		sig.LogicalWaitPct[wc] = stats.Median(column(func(s *Snapshot) float64 { return s.WaitPct(wc) }))
	}
	return sig, true
}
