package sim

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"daasscale/internal/actuate"
	"daasscale/internal/faults"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// The cross-runner golden equivalence suite. Every cell of the matrix —
// {single run, six-policy comparison, multi-tenant cluster, ballooning} ×
// {clean, telemetry faults, faults + actuation chaos} × {serial, parallel
// workers} — is serialized through a canonical dump that enumerates the
// pre-refactor result fields explicitly (so later additive fields cannot
// silently perturb the pins), hashed, and compared against a constant
// captured from the pre-refactor loop bodies. Any behavioral drift in the
// shared control loop — fault routing, actuation gating, finalization —
// shows up here as a hash mismatch, bit for bit.
//
// To re-capture after an INTENTIONAL behavior change, set printGoldens to
// true, run `go test ./internal/sim -run TestEquivalenceGolden -v`, and
// paste the printed entries back into goldenEquivalence.

var printGoldens = false

// goldenEquivalence pins the pre-refactor outputs. Captured at the seed
// state (before internal/loop existed) and must never change except for an
// intentional, documented behavior change. The one so far: the single/* and
// comparison/* cells were re-pinned when the run-level AvgMs became the
// arrival-order mean of every request (it had been summed after the P95
// selection permuted the samples); their dumps differ from the seed pins
// only in that token, by at most 1.7e-14 relative.
var goldenEquivalence = map[string]string{
	"single/clean":       "e28d1f9e2b66fc6dcecdf597481488ef1c4cbd68f58b12325ab5828df53d721a",
	"single/faults":      "ddf51c623440e631b26f0fd26066a4fe6cd22e22a6a4a1bd2b1876fc1388a6d4",
	"single/chaos":       "be21707c0677cc9d8054db2cd1ef345177f5e8d27214a648d8e02257b0989e17",
	"comparison/clean":   "2f64207094e309ca803d401add71b0b0fc6085b37a39e553308a82170753d3eb",
	"comparison/faults":  "6e2a952910e5efbba0d599f98eb88a110ada18bbb018e6bd792f8e3e597ffe2d",
	"comparison/chaos":   "b69bbab8bc3e2a27ff8b4177e29b84f95caf312484f7cf0bcfc79048eec40f13",
	"multitenant/clean":  "19f5c0b5eada3042d13eb6a0a363507682ba5b358c7f7f1b90ed788f4023b75e",
	"multitenant/faults": "9c2cdbc93318787de6c0c9360ed4c96cd7610092833a1cfa95ee460b12d07494",
	"multitenant/chaos":  "35cd5ba91c20a116269faf46935050247aed01c5a86d508353a3b5e1fbf0d713",
	"ballooning/clean":   "5338062a93f9f0c872e8113a0cd401eb2d6044a6cdfe0b652f4f54f44bc371b0",
	"ballooning/faults":  "cbe065028e85c9aed3a801abe72cdc2c4c0e123b09bdf2bf3c9cd819f87b07aa",
	"ballooning/chaos":   "ba15dea7ec649d44aceda9cefacb341cd27bfef3e1f5e41a28f8d1fb964ce083",
}

// fx formats a float64 exactly (hex mantissa/exponent round-trips every
// bit, including negative zero; NaN prints as NaN).
func fx(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func dumpFaultStats(b *strings.Builder, s faults.Stats) {
	fmt.Fprintf(b, "faults{%d %d", s.Intervals, s.Delivered)
	for _, n := range s.Injected {
		fmt.Fprintf(b, " %d", n)
	}
	b.WriteString("}")
}

func dumpActuationStats(b *strings.Builder, s actuate.Stats) {
	fmt.Fprintf(b, "act{%d %d %d %d %d %d %d %d %d %d %d %d}",
		s.Submitted, s.Ops, s.Attempts, s.Retries, s.Applied,
		s.Throttled, s.TransientFailures, s.Refused,
		s.Superseded, s.Expired, s.SumEffectIntervals, s.MaxEffectIntervals)
}

func dumpIntervalPoint(b *strings.Builder, p IntervalPoint) {
	fmt.Fprintf(b, "pt{%d %s %d %s %s %s %s", p.Interval, p.Container, p.Step,
		fx(p.Cost), fx(p.ContainerCPUFrac), fx(p.CPUUtilFrac), fx(p.OfferedRPS))
	for _, v := range p.Utilization {
		b.WriteString(" " + fx(v))
	}
	for _, v := range p.UtilizationPeak {
		b.WriteString(" " + fx(v))
	}
	fmt.Fprintf(b, " %s %s %s", fx(p.AvgMs), fx(p.P95Ms), fx(p.PerformanceFactor))
	for _, v := range p.WaitPct {
		b.WriteString(" " + fx(v))
	}
	fmt.Fprintf(b, " %s %s %s}\n", fx(p.MemoryUsedMB), fx(p.PhysicalReads), fx(p.BalloonTargetMB))
}

func dumpResult(b *strings.Builder, r Result) {
	fmt.Fprintf(b, "result{%s %s %s %s %d %s %s %s %s %d %s ",
		r.Policy, r.Workload, r.Trace, fx(r.GoalMs), r.Intervals,
		fx(r.TotalCost), fx(r.AvgCostPerInterval), fx(r.P95Ms), fx(r.AvgMs),
		r.Changes, fx(r.ChangeFraction))
	dumpFaultStats(b, r.FaultStats)
	b.WriteString(" ")
	dumpActuationStats(b, r.ActuationStats)
	fmt.Fprintf(b, " series=%d\n", len(r.Series))
	for _, p := range r.Series {
		dumpIntervalPoint(b, p)
	}
	b.WriteString("}\n")
}

func dumpComparison(b *strings.Builder, c Comparison) {
	fmt.Fprintf(b, "comparison{%s results=%d\n", fx(c.GoalMs), len(c.Results))
	for _, r := range c.Results {
		dumpResult(b, r)
	}
	b.WriteString("}\n")
}

func dumpMultiTenant(b *strings.Builder, r MultiTenantResult) {
	fmt.Fprintf(b, "cluster{migrations=%d refusals=%d peak=%s tenants=%d\n",
		r.Migrations, r.Refusals, fx(r.PeakClusterCPUFrac), len(r.Tenants))
	for _, tr := range r.Tenants {
		fmt.Fprintf(b, "tenant{%s %s %s %s %d %d %d ", tr.ID,
			fx(tr.TotalCost), fx(tr.AvgCostPerInterval), fx(tr.P95Ms),
			tr.Changes, tr.RefusedResizes, tr.Migrations)
		dumpActuationStats(b, tr.Actuation)
		b.WriteString("}\n")
	}
	b.WriteString("}\n")
}

func dumpBallooningArm(b *strings.Builder, a BallooningArm) {
	fmt.Fprintf(b, "arm{%s aborted=%t shrunk=%d reverted=%d ", a.Name,
		a.Aborted, a.ShrunkAt, a.RevertedAt)
	dumpActuationStats(b, a.Actuation)
	fmt.Fprintf(b, " series=%d\n", len(a.Series))
	for _, p := range a.Series {
		fmt.Fprintf(b, "bpt{%d %s %s %s %s %s}\n", p.Interval,
			fx(p.MemoryUsedMB), fx(p.AvgMs), fx(p.P95Ms),
			fx(p.PhysicalReads), fx(p.BalloonTargetMB))
	}
	b.WriteString("}\n")
}

func dumpBallooning(b *strings.Builder, r BallooningResult) {
	fmt.Fprintf(b, "ballooning{ws=%s\n", fx(r.WorkingSetMB))
	dumpBallooningArm(b, r.Without)
	dumpBallooningArm(b, r.With)
	b.WriteString("}\n")
}

func hashDump(dump func(*strings.Builder)) string {
	var b strings.Builder
	dump(&b)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// equivalenceChaos returns the fault plan and actuation config of one
// matrix column. kind is "clean", "faults" or "chaos". The fault seed is
// per-runner: ballooning needs a stream that actually lands a fault inside
// the shrink window (seed 3 leaves both arms untouched there, which would
// pin a faulted cell indistinguishable from the clean one).
func equivalenceChaos(runner, kind string) (faults.Plan, actuate.Config) {
	var plan faults.Plan
	var act actuate.Config
	if kind == "faults" || kind == "chaos" {
		plan = faults.Uniform(0.2)
		plan.Seed = 3
		if runner == "ballooning" {
			// Chosen by probing: with the actuated channel on, most fault
			// streams happen to miss every decision the arms make.
			plan.Seed = 4
			if kind == "chaos" {
				plan.Seed = 9
			}
		}
	}
	if kind == "chaos" {
		act = actuationChaosConfig()
	}
	return plan, act
}

func equivalenceTenants() []TenantSpec {
	return []TenantSpec{
		{ID: "alpha", Workload: workload.TPCC(), Trace: trace.Trace1(40, 5), GoalMs: 120},
		{ID: "beta", Workload: workload.DS2(), Trace: trace.Trace2(40, 6), GoalMs: 100},
		{ID: "gamma", Workload: workload.DS2(), Trace: trace.Trace4(40, 7), GoalMs: 90},
	}
}

// runEquivalenceCell produces the canonical dump hash for one (runner,
// chaos) cell at the given worker count.
func runEquivalenceCell(t *testing.T, runner, kind string, workers int) string {
	t.Helper()
	ctx := context.Background()
	plan, act := equivalenceChaos(runner, kind)
	r := NewRunner(WithParallelism(workers))
	switch runner {
	case "single":
		res, err := r.Run(ctx, Spec{
			Workload:  workload.DS2(),
			Trace:     trace.Trace2(60, 7),
			Policy:    chaosAutoPolicy(t),
			Seed:      11,
			GoalMs:    100,
			Faults:    plan,
			Actuation: act,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", runner, kind, err)
		}
		return hashDump(func(b *strings.Builder) { dumpResult(b, res) })
	case "comparison":
		comp, err := r.RunComparison(ctx, ComparisonSpec{
			Workload:   workload.DS2(),
			Trace:      trace.Trace2(48, 7),
			GoalFactor: 5,
			Seed:       11,
			Faults:     plan,
			Actuation:  act,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", runner, kind, err)
		}
		return hashDump(func(b *strings.Builder) { dumpComparison(b, comp) })
	case "multitenant":
		res, err := r.RunMultiTenant(ctx, MultiTenantSpec{
			Tenants:   equivalenceTenants(),
			Servers:   2,
			Seed:      9,
			Faults:    plan,
			Actuation: act,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", runner, kind, err)
		}
		return hashDump(func(b *strings.Builder) { dumpMultiTenant(b, res) })
	case "ballooning":
		res, err := r.RunBallooning(ctx, BallooningSpec{
			Seed:      5,
			Intervals: 48,
			ShrinkAt:  16,
			Faults:    plan,
			Actuation: act,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", runner, kind, err)
		}
		return hashDump(func(b *strings.Builder) { dumpBallooning(b, res) })
	}
	t.Fatalf("unknown runner %q", runner)
	return ""
}

// TestEquivalenceGolden is the refactor's bit-identity contract: all four
// runners, under every chaos combination, at serial and parallel worker
// counts, reproduce the exact pre-refactor outputs.
func TestEquivalenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden equivalence matrix is not a -short test")
	}
	for _, runner := range []string{"single", "comparison", "multitenant", "ballooning"} {
		for _, kind := range []string{"clean", "faults", "chaos"} {
			runner, kind := runner, kind
			t.Run(runner+"/"+kind, func(t *testing.T) {
				t.Parallel()
				key := runner + "/" + kind
				serial := runEquivalenceCell(t, runner, kind, 1)
				parallel := runEquivalenceCell(t, runner, kind, 4)
				if serial != parallel {
					t.Fatalf("%s: serial %s != parallel %s", key, serial, parallel)
				}
				want := goldenEquivalence[key]
				if want == "" || printGoldens {
					t.Errorf("golden %q: %q,", key, serial)
					return
				}
				if serial != want {
					t.Errorf("%s: hash %s, want golden %s (behavior drift from the pre-refactor loop)", key, serial, want)
				}
			})
		}
	}
}
