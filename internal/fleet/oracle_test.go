// Test-only exact oracles for the streaming fleet pipeline: the
// slice-materializing Section 2.2 study (GenerateFleet, Analyze) that
// Stream's Aggregate must reproduce bit for bit, and the sample-slice
// Section 4.1 calibration (CollectWaitSamples, SplitByUtilization,
// Correlation, Calibrate) that WaitDigest and StreamCalibration are
// checked against within the sketch accuracy.
package fleet

import (
	"math/rand"

	"daasscale/internal/engine"
	"daasscale/internal/estimator"
	"daasscale/internal/exec"
	"daasscale/internal/resource"
	"daasscale/internal/stats"
	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// GenerateFleet synthesizes n tenants with days of 5-minute demand history,
// each from the RNG Stream derives for its index (exec.SplitSeed), so the
// series are exactly the ones Stream feeds its aggregator.
func GenerateFleet(n, days int, seed int64) []Tenant {
	out := make([]Tenant, n)
	for i := range out {
		rng := rand.New(rand.NewSource(exec.SplitSeed(seed, int64(i))))
		out[i] = generateTenantInto(i, days, rng, nil)
	}
	return out
}

// Analyze runs the Section 2.2 study over a materialized fleet, buffering
// every inter-event interval for an exact CDF. Stream's Aggregate
// reproduces every field bit-identically except IEICDF (sketch resolution).
func Analyze(fleet []Tenant, cat *resource.Catalog) Analysis {
	var a Analysis
	a.Tenants = len(fleet)
	var ieiMinutes []float64
	var perTenantChangesPerDay []float64
	var oneStep, atMostTwo int
	for i := range fleet {
		t := &fleet[i]
		events := changeEventsInto(assignContainersInto(t, cat, nil), nil)
		a.TotalChanges += len(events)
		for j := range events {
			if j > 0 {
				ieiMinutes = append(ieiMinutes, float64(events[j].Interval-events[j-1].Interval)*5)
			}
			if events[j].StepDelta() == 1 {
				oneStep++
			}
			if events[j].StepDelta() <= 2 {
				atMostTwo++
			}
		}
		days := t.Days()
		if days > 0 {
			perTenantChangesPerDay = append(perTenantChangesPerDay, float64(len(events))/float64(days))
		}
	}
	a.IEICDF = stats.CDF(ieiMinutes)
	a.IEIWithin60Min = stats.CDFAt(a.IEICDF, 60)
	a.ChangesPerDayHist = stats.Histogram(perTenantChangesPerDay, []float64{1, 2, 3, 6, 12, 24})
	var ge1, ge6, gt24 int
	for _, c := range perTenantChangesPerDay {
		if c >= 1 {
			ge1++
		}
		if c >= 6 {
			ge6++
		}
		if c > 24 {
			gt24++
		}
	}
	if n := len(perTenantChangesPerDay); n > 0 {
		a.FracAtLeastOnePerDay = float64(ge1) / float64(n)
		a.FracAtLeastSixPerDay = float64(ge6) / float64(n)
		a.FracMoreThan24PerDay = float64(gt24) / float64(n)
	}
	if a.TotalChanges > 0 {
		a.OneStepShare = float64(oneStep) / float64(a.TotalChanges)
		a.AtMostTwoStepsShare = float64(atMostTwo) / float64(a.TotalChanges)
	}
	return a
}

// WaitSample is one (utilization, wait) observation for one resource over
// one billing interval — the raw material of Figures 4 and 6 and of the
// threshold calibration (Section 4.1).
type WaitSample struct {
	Kind        resource.Kind
	Utilization float64 // fraction of the allocation (0..1)
	WaitMs      float64 // per-interval wait magnitude
	WaitPct     float64 // share of total waits
}

// CollectWaitSamples runs many short engine stints across randomized
// (workload, container, load) configurations — a stand-in for observing
// thousands of production tenants — and returns per-interval wait samples
// for CPU and disk I/O. Deterministic in the seed. One sequential RNG
// threads through every configuration, so its sample stream differs from
// StreamCalibration's (which splits randomness per config) for the same
// seed; tests feed the same samples to both the exact and the digest path.
func CollectWaitSamples(configs, intervalsPer int, seed int64) ([]WaitSample, error) {
	rng := rand.New(rand.NewSource(seed))
	cat := resource.LockStepCatalog()
	var out []WaitSample
	for c := 0; c < configs; c++ {
		var w *workload.Workload
		switch rng.Intn(3) {
		case 0:
			w = workload.TPCC()
		case 1:
			w = workload.DS2()
		default:
			w = workload.CPUIO(workload.CPUIOConfig{
				CPUWeight:       0.2 + rng.Float64()*2,
				IOWeight:        0.2 + rng.Float64()*2,
				LogWeight:       rng.Float64(),
				WorkingSetMB:    512 + rng.Float64()*3000,
				HotspotFraction: 0.9 + rng.Float64()*0.1,
			})
		}
		cont := cat.AtStep(rng.Intn(cat.LadderLen()))
		eng, err := engine.New(w, cont, seed+int64(c)*13, engine.Options{WarmStart: rng.Float64() < 0.7})
		if err != nil {
			return nil, err
		}
		// Load spans idle to past saturation of the chosen container.
		rps := rng.Float64() * 700
		for i := 0; i < intervalsPer; i++ {
			for t := 0; t < eng.TicksPerInterval(); t++ {
				jitter := 1 + 0.1*(2*rng.Float64()-1)
				eng.Tick(rps * jitter)
			}
			snap := eng.EndInterval()
			for _, k := range []resource.Kind{resource.CPU, resource.DiskIO} {
				wc := telemetry.WaitClassFor(k)
				out = append(out, WaitSample{
					Kind:        k,
					Utilization: snap.Utilization[k],
					WaitMs:      snap.WaitMs[wc],
					WaitPct:     snap.WaitPct(wc),
				})
			}
		}
	}
	return out, nil
}

// WaitDistributions splits the wait samples of one resource by utilization
// level, reproducing Figure 6: the separation between the wait
// distributions at low (<30%) and high (>70%) utilization is what makes
// percentile-derived thresholds meaningful.
type WaitDistributions struct {
	Kind resource.Kind
	// LowUtilWaitMs / HighUtilWaitMs are the per-interval wait magnitudes
	// observed at low / high utilization.
	LowUtilWaitMs  []float64
	HighUtilWaitMs []float64
	// LowUtilWaitPct / HighUtilWaitPct are the percentage-wait samples.
	LowUtilWaitPct  []float64
	HighUtilWaitPct []float64
}

// SplitByUtilization builds the Figure 6 distributions for a resource,
// using the paper's 30%/70% utilization split — the split WaitDigest.Observe
// applies into sketches.
func SplitByUtilization(samples []WaitSample, k resource.Kind) WaitDistributions {
	d := WaitDistributions{Kind: k}
	for _, s := range samples {
		if s.Kind != k {
			continue
		}
		switch {
		case s.Utilization < 0.30:
			d.LowUtilWaitMs = append(d.LowUtilWaitMs, s.WaitMs)
			d.LowUtilWaitPct = append(d.LowUtilWaitPct, s.WaitPct)
		case s.Utilization > 0.70:
			d.HighUtilWaitMs = append(d.HighUtilWaitMs, s.WaitMs)
			d.HighUtilWaitPct = append(d.HighUtilWaitPct, s.WaitPct)
		}
	}
	return d
}

// Separation quantifies how far apart the low- and high-utilization wait
// distributions are: the ratio of the high distribution's 75th percentile
// to the low distribution's 90th percentile (>1 means separated; the
// paper's Figure 6 shows orders of magnitude).
func (d WaitDistributions) Separation() float64 {
	lo := stats.Quantile(d.LowUtilWaitMs, 0.90)
	hi := stats.Quantile(d.HighUtilWaitMs, 0.75)
	// Idle tenants often have exactly zero waits; floor the denominator at
	// one second per interval so the ratio stays meaningful.
	if lo < 1000 {
		lo = 1000
	}
	return hi / lo
}

// Correlation computes Spearman's ρ between utilization and wait magnitude
// for one resource across all samples — Figure 4's "increasing trend with a
// wide band": positive but far from 1. WaitDigest.Correlation computes the
// same statistic over a bounded deterministic prefix of the stream.
func Correlation(samples []WaitSample, k resource.Kind) (float64, error) {
	n := 0
	for _, s := range samples {
		if s.Kind == k {
			n++
		}
	}
	// One backing array for both columns plus the rank scratch, sized once.
	cols := make([]float64, 0, 2*n)
	util, wait := cols[0:0:n], cols[n:n:2*n]
	for _, s := range samples {
		if s.Kind == k {
			util = append(util, s.Utilization)
			wait = append(wait, s.WaitMs)
		}
	}
	var sc stats.SpearmanScratch
	return stats.SpearmanBuf(util, wait, &sc)
}

// Calibrate derives estimator thresholds from fleet wait samples, following
// Section 4.1: the LOW wait threshold comes from the low-utilization
// distribution (its 90th percentile — waits below this are unremarkable
// even for idle tenants), and the HIGH threshold from the lower edge (10th
// percentile) of the high-utilization distribution. The high-utilization
// population is bimodal: stable high-utilization stints with modest waits,
// and saturated stints whose wait totals grow without bound — a threshold
// must sit at the boundary between the modes, i.e. at the distribution's
// lower edge, not at its (saturation-dominated) upper percentiles. Both
// values are clamped to a sane operating range. Resources without enough
// samples keep the default thresholds. CalibrateDigests derives the same
// thresholds from WaitDigests within the sketch accuracy.
func Calibrate(samples []WaitSample) estimator.Thresholds {
	th := estimator.DefaultThresholds()
	for _, k := range []resource.Kind{resource.CPU, resource.DiskIO} {
		d := SplitByUtilization(samples, k)
		if len(d.LowUtilWaitMs) < 30 || len(d.HighUtilWaitMs) < 30 {
			continue
		}
		// d is private to this loop iteration, so the per-threshold
		// percentiles select in place instead of copying and sorting.
		low := stats.Clamp(stats.QuantileSelect(d.LowUtilWaitMs, 0.90), 2_000, 50_000)
		high := stats.Clamp(stats.QuantileSelect(d.HighUtilWaitMs, 0.10), 2*low, 200_000)
		th.WaitLowMs[k] = low
		th.WaitHighMs[k] = high
	}
	return th
}
