package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// randBatchWorkload draws a randomized workload for the equivalence
// property: the three standard families plus fully randomized CPU/IO
// mixes, working sets and hotspot fractions.
func randBatchWorkload(rng *rand.Rand) *workload.Workload {
	switch rng.Intn(4) {
	case 0:
		return workload.TPCC()
	case 1:
		return workload.DS2()
	default:
		return workload.CPUIO(workload.CPUIOConfig{
			CPUWeight:       0.2 + rng.Float64()*2,
			IOWeight:        0.2 + rng.Float64()*2,
			LogWeight:       rng.Float64(),
			WorkingSetMB:    256 + rng.Float64()*4000,
			HotspotFraction: 0.5 + rng.Float64()*0.5,
		})
	}
}

// TestTickBatchMatchesTick is the batching property test: across
// randomized workloads, containers, checkpoint settings, noise seeds,
// ballooning targets and batch chunk sizes, TickBatch must be
// byte-identical to calling the tickReference oracle per element — same
// snapshots, same latency samples, same internal state, same RNG
// positions, same raw wait-type breakdown. One-tick chunks go through the
// Tick wrapper, pinning it to the oracle as well.
func TestTickBatchMatchesTick(t *testing.T) {
	metaRng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 40; trial++ {
		trial := trial
		seed := metaRng.Int63()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := randBatchWorkload(rng)
			cont := cat.AtStep(rng.Intn(cat.LadderLen()))
			opts := Options{
				WarmStart:          rng.Float64() < 0.5,
				CheckpointEverySec: []int{0, 3, 7, 30}[rng.Intn(4)],
				TicksPerInterval:   10 + rng.Intn(80),
			}
			if rng.Float64() < 0.3 {
				opts.NoiseProb = -1 // noise disabled
			} else if rng.Float64() < 0.5 {
				opts.NoiseProb = 0.2 // noisy: exercises the RNG draw order
			}
			engSeed := rng.Int63()
			ref, err := New(w, cont, engSeed, opts)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := New(w, cont, engSeed, opts)
			if err != nil {
				t.Fatal(err)
			}
			var refLat, batLat []float64
			if rng.Float64() < 0.3 {
				target := 64 + rng.Float64()*1024
				ref.SetMemoryTargetMB(target)
				bat.SetMemoryTargetMB(target)
			}

			loadRng := rand.New(rand.NewSource(seed + 1))
			for interval := 0; interval < 4; interval++ {
				n := ref.TicksPerInterval()
				offered := make([]float64, n)
				base := loadRng.Float64() * 600
				for i := range offered {
					offered[i] = base * (0.5 + loadRng.Float64())
					if loadRng.Float64() < 0.05 {
						offered[i] = -offered[i] // negative loads clamp to zero
					}
				}
				for _, off := range offered {
					ref.tickReference(off)
				}
				// Feed the batch engine the same loads in random chunks:
				// partial batches must compose exactly like one big one.
				for lo := 0; lo < n; {
					hi := lo + 1 + loadRng.Intn(n-lo)
					if hi-lo == 1 {
						bat.Tick(offered[lo])
					} else {
						bat.TickBatch(offered[lo:hi])
					}
					lo = hi
				}

				// The interval's samples must be read before EndInterval
				// resets them.
				refLat = append(refLat, ref.IntervalLatencies()...)
				batLat = append(batLat, bat.IntervalLatencies()...)
				rs, bs := ref.EndInterval(), bat.EndInterval()
				if rs != bs {
					t.Fatalf("interval %d: snapshots differ:\nref %+v\nbat %+v", interval, rs, bs)
				}
				rc, ri, rl := ref.SheddedWork()
				bc, bi, bl := bat.SheddedWork()
				if rc != bc || ri != bi || rl != bl {
					t.Fatalf("interval %d: shedded work differs", interval)
				}
				if ref.MemoryUsedMB() != bat.MemoryUsedMB() {
					t.Fatalf("interval %d: buffer pool differs: %v vs %v",
						interval, ref.MemoryUsedMB(), bat.MemoryUsedMB())
				}
				rwt, bwt := ref.LastIntervalWaitTypes(), bat.LastIntervalWaitTypes()
				if len(rwt) != len(bwt) {
					t.Fatalf("interval %d: wait-type maps differ in size", interval)
				}
				for k, v := range rwt {
					if bwt[k] != v {
						t.Fatalf("interval %d: wait type %s: %v vs %v", interval, k, v, bwt[k])
					}
				}
			}
			if len(refLat) != len(batLat) {
				t.Fatalf("latency sample counts differ: %d vs %d", len(refLat), len(batLat))
			}
			for i := range refLat {
				if refLat[i] != batLat[i] {
					t.Fatalf("latency sample %d differs: %v vs %v", i, refLat[i], batLat[i])
				}
			}
			// The engines' RNGs must be at the same position: a further
			// identical interval stays identical.
			ref.tickReference(100)
			bat.TickBatch([]float64{100})
			if rs, bs := ref.EndInterval(), bat.EndInterval(); rs != bs {
				t.Fatalf("post-run RNG positions diverged:\nref %+v\nbat %+v", rs, bs)
			}
		})
	}
}

// TestTickBatchEmpty: a zero-length batch is a no-op.
func TestTickBatchEmpty(t *testing.T) {
	e := mustEngine(t, workload.DS2(), cat.AtStep(4), 9)
	e.Tick(50)
	before := e.acc
	e.TickBatch(nil)
	e.TickBatch([]float64{})
	if e.acc.ticks != before.ticks || e.acc.txns != before.txns {
		t.Fatal("empty TickBatch mutated the accumulator")
	}
}

// TestResetReleasesOversizedLatSamples is the retained-capacity regression
// test: a burst interval (far more ticks than TicksPerInterval before
// EndInterval) must not pin its oversized latency-sample array for the
// engine's lifetime, while a normal interval's array keeps being reused.
func TestResetReleasesOversizedLatSamples(t *testing.T) {
	e := mustEngine(t, workload.DS2(), cat.AtStep(5), 11)
	// Burst: enough high-load ticks to exceed the retained cap (24
	// samples per tick at offered >= 24).
	for i := 0; i < maxRetainedLatSamples/24+50; i++ {
		e.Tick(500)
	}
	if len(e.acc.latSamples) <= maxRetainedLatSamples {
		t.Fatalf("burst interval produced only %d samples; test needs > %d",
			len(e.acc.latSamples), maxRetainedLatSamples)
	}
	e.EndInterval()
	if c := cap(e.acc.latSamples); c > maxRetainedLatSamples {
		t.Fatalf("oversized backing array retained after reset: cap %d > %d", c, maxRetainedLatSamples)
	}

	// Normal intervals: the (sane-sized) array is retained and reused.
	for i := 0; i < e.TicksPerInterval(); i++ {
		e.Tick(500)
	}
	e.EndInterval()
	c1 := cap(e.acc.latSamples)
	if c1 == 0 || c1 > maxRetainedLatSamples {
		t.Fatalf("normal interval retained cap %d, want 1..%d", c1, maxRetainedLatSamples)
	}
	for i := 0; i < e.TicksPerInterval(); i++ {
		e.Tick(500)
	}
	e.EndInterval()
	if c2 := cap(e.acc.latSamples); c2 != c1 {
		t.Fatalf("steady-state interval reallocated the sample array: cap %d -> %d", c1, c2)
	}
}

// TestVisitLastIntervalWaitTypes: the zero-alloc visitor yields exactly
// the map LastIntervalWaitTypes materializes — same types, bit-identical
// values — and visits nothing before the first interval.
func TestVisitLastIntervalWaitTypes(t *testing.T) {
	e := mustEngine(t, workload.TPCC(), cat.AtStep(3), 13)
	visits := 0
	e.VisitLastIntervalWaitTypes(func(telemetry.WaitType, float64) { visits++ })
	if visits != 0 {
		t.Fatalf("visitor fired %d times before the first interval", visits)
	}

	for i := 0; i < e.TicksPerInterval(); i++ {
		e.Tick(200)
	}
	e.EndInterval()

	want := e.LastIntervalWaitTypes()
	got := map[telemetry.WaitType]float64{}
	e.VisitLastIntervalWaitTypes(func(wt telemetry.WaitType, ms float64) { got[wt] += ms })
	if len(got) != len(want) {
		t.Fatalf("visitor produced %d types, map %d", len(got), len(want))
	}
	var total float64
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("type %s: visitor %v != map %v", k, got[k], v)
		}
		total += v
	}
	if total <= 0 || math.IsNaN(total) {
		t.Fatalf("degenerate wait total %v", total)
	}
	// Folding the breakdown back through the classifier reproduces the
	// snapshot's class totals (the estimator-facing contract).
	agg := telemetry.AggregateWaitTypes(want)
	for cls, ms := range agg {
		if ms < 0 {
			t.Fatalf("class %d negative after aggregation: %v", cls, ms)
		}
	}
}
