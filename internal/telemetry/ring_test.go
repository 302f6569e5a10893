package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"daasscale/internal/resource"
)

// randomSnapshot builds a fully-populated snapshot with noisy but finite
// values, including tied and zero columns to stress the selection kernels.
func randomSnapshot(rng *rand.Rand, interval int) Snapshot {
	var s Snapshot
	s.Interval = interval
	s.Container = "C1"
	s.Step = 1
	s.Cost = 2
	for _, k := range resource.Kinds {
		s.Utilization[k] = float64(rng.Intn(20)) / 20 // frequent ties
		s.UtilizationPeak[k] = s.Utilization[k]
	}
	for i := range s.WaitMs {
		if rng.Intn(3) == 0 {
			s.WaitMs[i] = 0 // idle classes
		} else {
			s.WaitMs[i] = rng.Float64() * 50_000
		}
	}
	s.AvgLatencyMs = 20 + rng.Float64()*100
	s.P95LatencyMs = s.AvgLatencyMs * (1.5 + rng.Float64())
	s.Transactions = rng.Float64() * 1e4
	s.OfferedRPS = rng.Float64() * 500
	s.MemoryUsedMB = rng.Float64() * 4096
	s.PhysicalReads = rng.Float64() * 1e5
	s.PhysicalWrites = rng.Float64() * 1e4
	return s
}

// TestSignalsMatchReference is the equivalence property of the
// zero-allocation ring-buffer fast path: it must be bit-identical to the
// test-only oracle on random windows of every length, before and after the
// ring wraps, and on a 1000-tenant fleet of 25-interval streams at the
// default window (each tenant's manager reset and replayed, as the fleet
// benchmark drives it).
func TestSignalsMatchReference(t *testing.T) {
	check := func(t *testing.T, m *Manager, label string) {
		t.Helper()
		got, okGot := m.Signals()
		want, okWant := signalsReference(m)
		if okGot != okWant {
			t.Fatalf("%s: ok mismatch %v vs %v", label, okGot, okWant)
		}
		if okGot && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (window %d): fast path diverged\n got %+v\nwant %+v",
				label, m.Window(), got, want)
		}
	}
	t.Run("random-windows", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 50; trial++ {
			window := MinIntervalsForSignals + rng.Intn(12)
			m := NewManager(window)
			feed := window*2 + rng.Intn(window) // wraps the ring at least once
			for i := 0; i < feed; i++ {
				m.Observe(randomSnapshot(rng, i))
				check(t, m, fmt.Sprintf("trial %d interval %d", trial, i))
			}
		}
	})
	t.Run("fleet-1k", func(t *testing.T) {
		const tenants, intervals = 1000, 25
		rng := rand.New(rand.NewSource(42))
		m := NewManager(DefaultWindow)
		for i := 0; i < tenants; i++ {
			m.Reset()
			for j := 0; j < intervals; j++ {
				m.Observe(randomSnapshot(rng, j))
				check(t, m, fmt.Sprintf("tenant %d interval %d", i, j))
			}
		}
	})
}

// TestSignalsCachedBetweenObservations: repeat Signals() calls without new
// observations return the identical value, and a new observation
// invalidates the cache.
func TestSignalsCachedBetweenObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewManager(6)
	for i := 0; i < 8; i++ {
		m.Observe(randomSnapshot(rng, i))
	}
	first, ok := m.Signals()
	if !ok {
		t.Fatal("no signals")
	}
	again, _ := m.Signals()
	if !reflect.DeepEqual(first, again) {
		t.Fatal("cached Signals differ from the first computation")
	}
	m.Observe(randomSnapshot(rng, 8))
	after, _ := m.Signals()
	if after.Current.Interval != 8 {
		t.Fatalf("cache not invalidated: current interval = %d", after.Current.Interval)
	}
}

// TestResetRewarmMatchesFreshManager: a ring-buffer manager that has been
// used, Reset, and re-warmed must produce exactly the Signals of a freshly
// constructed manager fed the same tail of snapshots — retained arenas and
// ring state must leak nothing across Reset.
func TestResetRewarmMatchesFreshManager(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		window := MinIntervalsForSignals + rng.Intn(8)
		used := NewManager(window)
		// Dirty the manager: fill past wrap, compute signals, reset.
		for i := 0; i < window*3; i++ {
			used.Observe(randomSnapshot(rng, i))
		}
		if _, ok := used.Signals(); !ok {
			t.Fatal("no signals before reset")
		}
		used.Reset()
		if used.Len() != 0 {
			t.Fatalf("len after reset = %d", used.Len())
		}
		if _, ok := used.Signals(); ok {
			t.Fatal("signals available immediately after reset")
		}

		fresh := NewManager(window)
		tail := make([]Snapshot, window+2)
		for i := range tail {
			tail[i] = randomSnapshot(rng, 100+i)
		}
		for _, s := range tail {
			used.Observe(s)
			fresh.Observe(s)
			gotUsed, okUsed := used.Signals()
			gotFresh, okFresh := fresh.Signals()
			if okUsed != okFresh {
				t.Fatalf("trial %d: ok mismatch after reset: %v vs %v", trial, okUsed, okFresh)
			}
			if okUsed && !reflect.DeepEqual(gotUsed, gotFresh) {
				t.Fatalf("trial %d: re-warmed manager diverged from fresh manager\n got %+v\nwant %+v",
					trial, gotUsed, gotFresh)
			}
		}
	}
}

func TestAppendSnapshotsChronological(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewManager(4)
	for i := 0; i < 11; i++ {
		m.Observe(randomSnapshot(rng, i))
	}
	snaps := m.AppendSnapshots(nil)
	if len(snaps) != 4 {
		t.Fatalf("len = %d, want 4", len(snaps))
	}
	for i, s := range snaps {
		if want := 7 + i; s.Interval != want {
			t.Errorf("snaps[%d].Interval = %d, want %d", i, s.Interval, want)
		}
	}
}

// TestSignalsZeroAllocAfterWarmup is the allocation gate of the PR's
// acceptance criteria: at window 10, a warmed manager's
// Observe+Signals cycle must not touch the heap. Run by `make verify`
// (skipped under -race, whose instrumentation perturbs the counts).
func TestSignalsZeroAllocAfterWarmup(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(77))
	m := NewManager(DefaultWindow)
	snaps := make([]Snapshot, DefaultWindow*2)
	for i := range snaps {
		snaps[i] = randomSnapshot(rng, i)
	}
	for _, s := range snaps {
		m.Observe(s)
	}
	if _, ok := m.Signals(); !ok { // warm the arenas
		t.Fatal("no signals after warm-up")
	}
	next := 0
	allocs := testing.AllocsPerRun(200, func() {
		m.Observe(snaps[next%len(snaps)])
		next++
		if _, ok := m.Signals(); !ok {
			t.Fatal("signals unavailable")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Manager.Signals allocated %v times per run, want 0", allocs)
	}
}
