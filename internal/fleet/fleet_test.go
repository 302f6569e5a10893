package fleet

import (
	"testing"

	"daasscale/internal/resource"
	"daasscale/internal/stats"
)

var cat = resource.LockStepCatalog()

func TestArchetypeString(t *testing.T) {
	names := map[Archetype]string{
		Steady: "steady", Diurnal: "diurnal", Bursty: "bursty", Spiky: "spiky", Growing: "growing",
	}
	for a, n := range names {
		if a.String() != n {
			t.Errorf("%d = %q", a, a.String())
		}
	}
	if Archetype(99).String() != "archetype(99)" {
		t.Error("unknown archetype name")
	}
}

func TestGenerateFleetShape(t *testing.T) {
	fleet := GenerateFleet(50, 7, 1)
	if len(fleet) != 50 {
		t.Fatalf("fleet size = %d", len(fleet))
	}
	seen := map[Archetype]bool{}
	for i := range fleet {
		tn := &fleet[i]
		if tn.ID != i {
			t.Errorf("tenant %d has ID %d", i, tn.ID)
		}
		if len(tn.Demand) != 7*IntervalsPerDay {
			t.Fatalf("tenant %d has %d intervals", i, len(tn.Demand))
		}
		if tn.Days() != 7 {
			t.Errorf("tenant %d days = %d", i, tn.Days())
		}
		seen[tn.Archetype] = true
		for j, d := range tn.Demand {
			for _, k := range resource.Kinds {
				if d[k] < 0 {
					t.Fatalf("tenant %d interval %d negative demand %v", i, j, d)
				}
			}
		}
	}
	if len(seen) < 4 {
		t.Errorf("archetype diversity too low: %v", seen)
	}
}

func TestGenerateFleetDeterminism(t *testing.T) {
	a := GenerateFleet(5, 2, 42)
	b := GenerateFleet(5, 2, 42)
	for i := range a {
		for j := range a[i].Demand {
			if a[i].Demand[j] != b[i].Demand[j] {
				t.Fatalf("fleet not deterministic at tenant %d interval %d", i, j)
			}
		}
	}
}

func TestChangeEvents(t *testing.T) {
	assignment := []resource.Container{
		cat.AtStep(0), cat.AtStep(0), cat.AtStep(2), cat.AtStep(1), cat.AtStep(1),
	}
	events := changeEventsInto(assignment, nil)
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Interval != 2 || events[0].FromStep != 0 || events[0].ToStep != 2 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[0].StepDelta() != 2 || events[1].StepDelta() != 1 {
		t.Errorf("step deltas wrong: %+v", events)
	}
}

func TestAnalyzeReproducesFigure2Shape(t *testing.T) {
	// The Section 2.2 claims, as shapes: most changes happen within an hour
	// of the previous one; a large majority of tenants change at least once
	// a day; a substantial fraction change many times a day; and resizes
	// are overwhelmingly small steps (Section 4: ≈90% one step, ≈98% ≤2).
	fleet := GenerateFleet(400, 7, 7)
	a := Analyze(fleet, cat)
	if a.Tenants != 400 || a.TotalChanges == 0 {
		t.Fatalf("analysis empty: %+v", a)
	}
	if a.IEIWithin60Min < 0.6 {
		t.Errorf("IEI within 60 min = %v, want the majority", a.IEIWithin60Min)
	}
	if a.FracAtLeastOnePerDay < 0.6 {
		t.Errorf("tenants with ≥1 change/day = %v, want a large majority", a.FracAtLeastOnePerDay)
	}
	if a.FracAtLeastSixPerDay < 0.3 {
		t.Errorf("tenants with ≥6 changes/day = %v, want a substantial fraction", a.FracAtLeastSixPerDay)
	}
	if a.FracAtLeastOnePerDay < a.FracAtLeastSixPerDay || a.FracAtLeastSixPerDay < a.FracMoreThan24PerDay {
		t.Errorf("cumulative fractions must be monotone: %+v", a)
	}
	if a.OneStepShare < 0.7 {
		t.Errorf("one-step share = %v, want dominant", a.OneStepShare)
	}
	if a.AtMostTwoStepsShare < 0.9 {
		t.Errorf("≤2-step share = %v, want ≈0.98", a.AtMostTwoStepsShare)
	}
	if a.AtMostTwoStepsShare < a.OneStepShare {
		t.Error("≤2-step share cannot be below the 1-step share")
	}
	// The histogram uses the paper's buckets and conserves tenants.
	total := 0
	for _, b := range a.ChangesPerDayHist {
		total += b.Count
	}
	if total != 400 {
		t.Errorf("histogram lost tenants: %d", total)
	}
	// The CDF is monotone and ends at 1.
	last := 0.0
	for _, p := range a.IEICDF {
		if p.Fraction < last {
			t.Fatalf("CDF not monotone at %v", p)
		}
		last = p.Fraction
	}
	if last != 1 {
		t.Errorf("CDF should end at 1, got %v", last)
	}
}

func TestAnalyzeEmptyFleet(t *testing.T) {
	a := Analyze(nil, cat)
	if a.TotalChanges != 0 || a.OneStepShare != 0 {
		t.Errorf("empty fleet analysis should be zero: %+v", a)
	}
}

func TestWaitSamplesAndFigure4Shape(t *testing.T) {
	samples, err := CollectWaitSamples(120, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	// Figure 4: utilization and waits correlate positively but weakly — an
	// increasing trend with a wide band.
	rho, err := Correlation(samples, resource.CPU)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.2 || rho > 0.98 {
		t.Errorf("CPU wait-utilization correlation = %v, want positive but imperfect", rho)
	}
	// The paper's two counterexample populations must both exist: high
	// utilization with small waits, and (some) low utilization with
	// nontrivial waits.
	var highUtilLowWait, lowUtilSomeWait int
	for _, s := range samples {
		if s.Kind != resource.CPU {
			continue
		}
		if s.Utilization > 0.7 && s.WaitMs < 10_000 {
			highUtilLowWait++
		}
		if s.Utilization < 0.3 && s.WaitMs > 1_000 {
			lowUtilSomeWait++
		}
	}
	if highUtilLowWait == 0 {
		t.Error("expected high-utilization/low-wait samples (utilization is not demand)")
	}
	if lowUtilSomeWait == 0 {
		t.Error("expected low-utilization samples with nontrivial waits")
	}
}

func TestFigure6SeparationAndCalibration(t *testing.T) {
	samples, err := CollectWaitSamples(150, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []resource.Kind{resource.CPU, resource.DiskIO} {
		d := SplitByUtilization(samples, k)
		if len(d.LowUtilWaitMs) < 30 || len(d.HighUtilWaitMs) < 30 {
			t.Fatalf("%v: not enough samples per side (%d low, %d high)", k, len(d.LowUtilWaitMs), len(d.HighUtilWaitMs))
		}
		// Figure 6's key property: clear separation between the wait
		// distributions at low and high utilization.
		if sep := d.Separation(); sep < 2 {
			t.Errorf("%v: separation = %v, want the high-utilization waits well above", k, sep)
		}
		// Percentage waits also separate (Figure 6(c) vs 6(d)).
		lowPct := stats.Median(d.LowUtilWaitPct)
		highPct := stats.Median(d.HighUtilWaitPct)
		if highPct <= lowPct {
			t.Errorf("%v: %%-wait medians do not separate: low %v high %v", k, lowPct, highPct)
		}
	}

	th := Calibrate(samples)
	if err := th.Validate(); err != nil {
		t.Fatalf("calibrated thresholds invalid: %v", err)
	}
	for _, k := range []resource.Kind{resource.CPU, resource.DiskIO} {
		if th.WaitLowMs[k] >= th.WaitHighMs[k] {
			t.Errorf("%v: calibrated low %v not below high %v", k, th.WaitLowMs[k], th.WaitHighMs[k])
		}
	}
}

func TestCalibrateKeepsDefaultsWithoutSamples(t *testing.T) {
	th := Calibrate(nil)
	def := Calibrate([]WaitSample{})
	if th != def {
		t.Error("calibration without samples should be deterministic")
	}
	if err := th.Validate(); err != nil {
		t.Errorf("default calibration invalid: %v", err)
	}
}
