package telemetry_test

import (
	"math/rand"
	"reflect"
	"testing"

	"daasscale/internal/faults"
	"daasscale/internal/telemetry"
)

// TestSignalsMatchReferenceUnderFaults drives a manager through the
// aggressive fault-injection plans (drops, duplicates, reordering,
// corrupted fields) and asserts the fast path stays bit-identical to the
// test-only oracle at every decision point: sanitization, gap and
// delivery-order accounting must not perturb the ring or the arenas.
func TestSignalsMatchReferenceUnderFaults(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plan := faults.Uniform(0.8)
		plan.Seed = seed
		in := faults.NewInjector(plan, 100+seed)
		m := telemetry.NewManager(telemetry.DefaultWindow)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 120; i++ {
			for _, fs := range in.Apply(telemetry.RandomSnapshot(rng, i)) {
				m.Observe(fs)
			}
			got, ok := m.Signals()
			want, okRef := telemetry.SignalsReference(m)
			if ok != okRef {
				t.Fatalf("seed %d interval %d: ok mismatch", seed, i)
			}
			if ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d interval %d: fast path diverged from the oracle under faults", seed, i)
			}
		}
	}
}
