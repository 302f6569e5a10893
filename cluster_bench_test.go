package daasscale_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"daasscale/internal/sim"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// clusterBenchSpec builds the 1k-tenant cluster the bench-cluster gate
// measures: the three standard workload families and four standard load
// shapes cycled across the fleet, tenant seeds derived from the cluster
// seed.
func clusterBenchSpec(tenants, intervals int) sim.MultiTenantSpec {
	spec := sim.MultiTenantSpec{Servers: (tenants + 1) / 2, Seed: benchSeed}
	for i := 0; i < tenants; i++ {
		var w *workload.Workload
		switch i % 3 {
		case 1:
			w = workload.TPCC()
		case 2:
			w = workload.CPUIO(workload.DefaultCPUIOConfig())
		default:
			w = workload.DS2()
		}
		var tr *trace.Trace
		s := benchSeed + int64(i)
		switch i % 4 {
		case 1:
			tr = trace.Trace2(intervals, s)
		case 2:
			tr = trace.Trace3(intervals, s)
		case 3:
			tr = trace.Trace4(intervals, s)
		default:
			tr = trace.Trace1(intervals, s)
		}
		spec.Tenants = append(spec.Tenants, sim.TenantSpec{
			ID:       fmt.Sprintf("tenant-%04d", i),
			Workload: w,
			Trace:    tr,
			GoalMs:   100,
		})
	}
	return spec
}

// minClusterTenantIntervalsPerSec is the bench-cluster throughput floor:
// at least 1.2x the median throughput of the retired reference schedule
// (per-call engine ticks, fully serial decide+apply) on the same
// 1000-tenant, 12-interval, 8-worker cluster. Over nine runs on a 2-CPU
// x86-64 host (Go 1.24) that schedule's median was 9984
// tenant-intervals/s (range 9236-10537); 1.2 x 9984 = 11981, rounded up.
const minClusterTenantIntervalsPerSec = 12000

// maxClusterAllocMBPerOp is the bench-cluster memory ceiling: heap bytes
// allocated by one 8-worker run, spec construction included (the scope
// of -benchmem's B/op). Keeping every request's latency until the run
// ends cost 224 MB per run (1000 tenants x 12 intervals, of which the
// pre-sized sample buffers were 1000 x 12 x 60 x 24 float64s = 138 MB);
// keeping only the samples that can still be a tenant's P95 costs 112 MB
// (x86-64, Go 1.24). 160 MB sits between the two, so a retain-everything
// buffer cannot come back unnoticed.
const maxClusterAllocMBPerOp = 160

// BenchmarkCluster1kTenants is the cluster hot-path gate on a 1000-tenant
// cluster (parallel ticks+decide over engine.TickBatch, serial apply). It
// first proves the schedule is worker-count independent — the 1-worker
// and 8-worker runs must be byte-identical — then requires the best of
// three 8-worker runs to sustain minClusterTenantIntervalsPerSec and
// every 8-worker run to allocate at most maxClusterAllocMBPerOp.
// `make bench-cluster` records the numbers in BENCH_cluster.json.
func BenchmarkCluster1kTenants(b *testing.B) {
	const tenants, intervals, workers = 1000, 12, 8
	ctx := context.Background()

	// Spec construction (workloads, traces) is test scaffolding, not the
	// measured hot path: build it before starting the clock, fresh per run
	// so no run warms state for the next.
	run := func(workers int) (float64, float64, sim.MultiTenantResult) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec := clusterBenchSpec(tenants, intervals)
		r := sim.NewRunner(sim.WithParallelism(workers))
		// Collect the previous run's garbage before the clock starts so it
		// never inflates this run's measurement.
		runtime.GC()
		start := time.Now()
		res, err := r.RunMultiTenant(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		ns := float64(time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&after)
		return ns, float64(after.TotalAlloc-before.TotalAlloc) / 1e6, res
	}

	// Correctness first: the result must not depend on the worker count.
	_, _, serial := run(1)
	bestNs, allocMB := -1.0, 0.0
	var parallel sim.MultiTenantResult
	for rep := 0; rep < 3; rep++ {
		ns, mb, res := run(workers)
		parallel = res
		if bestNs < 0 || ns < bestNs {
			bestNs = ns
		}
		allocMB = max(allocMB, mb)
	}
	if !reflect.DeepEqual(serial, parallel) {
		b.Fatalf("cluster run at %d workers diverged from the 1-worker run (migrations %d vs %d, refusals %d vs %d)",
			workers, parallel.Migrations, serial.Migrations, parallel.Refusals, serial.Refusals)
	}

	tenantIntervalsPerSec := float64(tenants*intervals) / (bestNs / 1e9)
	if tenantIntervalsPerSec < minClusterTenantIntervalsPerSec && !raceEnabled {
		b.Fatalf("cluster run sustains %.0f tenant-intervals/s, want >= %.0f",
			tenantIntervalsPerSec, float64(minClusterTenantIntervalsPerSec))
	}
	if allocMB > maxClusterAllocMBPerOp {
		b.Fatalf("cluster run allocates %.1f MB, want <= %d MB", allocMB, maxClusterAllocMBPerOp)
	}
	printOnce("cluster-1k", func() {
		fmt.Printf("\nCluster hot path: %d tenants x %d intervals @ %d workers: %.0f ms (%.0f tenant-intervals/s, floor %.0f), %.1f MB allocated (ceiling %d)\n",
			tenants, intervals, workers, bestNs/1e6, tenantIntervalsPerSec, float64(minClusterTenantIntervalsPerSec),
			allocMB, maxClusterAllocMBPerOp)
	})
	b.ReportMetric(tenantIntervalsPerSec, "tenant-intervals/s")
	recordBench("Cluster1kTenants", map[string]float64{
		"tenants":                      tenants,
		"intervals":                    intervals,
		"workers":                      workers,
		"run_ms":                       bestNs / 1e6,
		"tenant_intervals_per_s":       tenantIntervalsPerSec,
		"floor_tenant_intervals_per_s": minClusterTenantIntervalsPerSec,
		"alloc_mb_per_op":              allocMB,
		"ceiling_alloc_mb_per_op":      maxClusterAllocMBPerOp,
		"gomaxprocs":                   float64(runtime.GOMAXPROCS(0)),
		"migrations":                   float64(parallel.Migrations),
		"refusals":                     float64(parallel.Refusals),
	})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(workers)
	}
}
