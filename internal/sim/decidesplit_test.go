package sim

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"daasscale/internal/engine"
	"daasscale/internal/fabric"
	"daasscale/internal/faults"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// decideSplitSpec is a small cluster under combined telemetry faults and
// actuation chaos with auditing on — the most state the decide/apply split
// has to carry between phases (decisions, fault/actuation stat deltas,
// audit records).
func decideSplitSpec() MultiTenantSpec {
	mk := func(i int, w *workload.Workload, tr *trace.Trace, goal float64) TenantSpec {
		return TenantSpec{ID: string(rune('a' + i)), Workload: w, Trace: tr, GoalMs: goal, Seed: int64(i + 1)}
	}
	return MultiTenantSpec{
		Tenants: []TenantSpec{
			mk(0, workload.DS2(), trace.Trace1(90, 1), 60),
			mk(1, workload.TPCC(), trace.Trace4(90, 2), 200),
			mk(2, workload.CPUIO(workload.DefaultCPUIOConfig()), trace.Trace2(90, 3), 80),
			mk(3, workload.DS2(), trace.Trace3(70, 4), 90),
			mk(4, workload.TPCC(), trace.Trace1(90, 5), 150),
		},
		Servers:    2,
		Policy:     fabric.BestFit,
		EngineOpts: engine.Options{WarmStart: true},
		Faults:     faults.Uniform(0.15),
		Actuation:  actuationChaosConfig(),
		Audit:      true,
	}
}

// goldenDecideSplit pins decideSplitSpec's result — dumpMultiTenant's
// fields, the contention surface and every tenant's full audit trail. It
// was captured while the retired fully-serial reference schedule (serial
// decide+apply over per-call ticks) was still in the tree and agreed with
// the parallel-decide schedule at every worker count, so the pin carries
// that equivalence forward. Recapture only for an intentional, documented
// behavior change (set printGoldens and paste).
const goldenDecideSplit = "93b3419862cb7a89258c3519df866731698bf1323a04f801ffddac1efb5cfb17"

// dumpDecideSplit is the canonical dump goldenDecideSplit hashes.
// DecisionRecords hold only value types, so %#v renders each one exactly
// (shortest round-trip floats).
func dumpDecideSplit(b *strings.Builder, r MultiTenantResult) {
	dumpMultiTenantContention(b, r)
	for _, tr := range r.Tenants {
		for _, rec := range tr.Audit {
			fmt.Fprintf(b, "%#v\n", rec)
		}
	}
}

// TestClusterDecideSplitWorkerBitIdentity is the parallel-decide phase's
// worker-count property under combined faults + actuation chaos: fanning
// RunTicks+Decide across 1, 3 or 8 workers produces byte-identical
// cluster results, audit trails included, all equal to the pin captured
// against the serial reference schedule.
func TestClusterDecideSplitWorkerBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 3, 8} {
		got, err := NewRunner(WithParallelism(workers)).RunMultiTenant(ctx, decideSplitSpec())
		if err != nil {
			t.Fatal(err)
		}
		h := hashDump(func(b *strings.Builder) { dumpDecideSplit(b, got) })
		if printGoldens {
			t.Errorf("workers=%d: golden %q", workers, h)
			continue
		}
		if h != goldenDecideSplit {
			t.Fatalf("workers=%d: hash %s, want golden %s (decide/apply split drifted from the serial schedule)",
				workers, h, goldenDecideSplit)
		}
	}
}

// TestClusterPhaseLabelsBitIdentical: pprof phase labelling is pure
// observability — it must not perturb results.
func TestClusterPhaseLabelsBitIdentical(t *testing.T) {
	ctx := context.Background()
	plain, err := NewRunner(WithParallelism(4)).RunMultiTenant(ctx, decideSplitSpec())
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := NewRunner(WithParallelism(4), WithPhaseLabels()).RunMultiTenant(ctx, decideSplitSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, labeled) {
		t.Fatal("phase labels changed cluster results")
	}
}
