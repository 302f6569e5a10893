package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"daasscale/internal/exec"
	"daasscale/internal/fabric"
	"daasscale/internal/sim"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// cluster-contended: 1000 tenants (DS2/TPCC/CPUIO × Trace1–4, goal
// 100 ms) under the noisy-neighbor interference model, rebalanced every
// 6 intervals with packing, at lanes workers.
const (
	clusterTenants   = 1000
	clusterIntervals = 48
	rebalanceEvery   = 6
	// minIntervals keeps at least ten intervals beyond the p90.
	minIntervals = 100
)

// pinnedDigests are the MultiTenantResult digests of the cluster
// workload per seed. A deliberate change to simulation output re-pins
// them: go run . -pin 0-31 prints the table.
var pinnedDigests = map[int64]string{
	0:  "703d252a2bd4c7d4",
	1:  "93fbd721db8152ee",
	2:  "f90411bdd0a6a85b",
	3:  "b444a84529af2f28",
	4:  "2a7cd46ff1f8f25a",
	5:  "5ee53831e03c4283",
	6:  "49507280ac9aeed8",
	7:  "0024a41647977bc6",
	8:  "d67a3014ac706930",
	9:  "f8df5ea5ed42b9f6",
	10: "f9b82f151671eb27",
	11: "d71ac0ff4baadecc",
	12: "95885669dbf01d5b",
	13: "7fec2a39bcdfd60c",
	14: "cdf29ba2676196dd",
	15: "61f129762fb5ba64",
	16: "d55ce56e92b78333",
	17: "914193c050a07a31",
	18: "7043f4f566f8f5f4",
	19: "ea9012e188d39bf1",
	20: "19bb4adfec03b873",
	21: "a7fc9be94cf89c9a",
	22: "4ad1abd8498dc5f3",
	23: "c188597f220d4708",
	24: "7e19f96f254415ad",
	25: "c6efe668db196be0",
	26: "409c00b712b454a8",
	27: "b706b2dd5ab166ee",
	28: "a56e8e312ae769ec",
	29: "2f52cc90a151125f",
	30: "268be54c1b7f6970",
	31: "974a51c868dde5a0",
}

// clusterSpec builds the fleet: the three workload families and four
// load shapes cycled across tenants, trace seeds and the cluster seed
// drawn from the workload seed.
func clusterSpec(seed int64) sim.MultiTenantSpec {
	spec := sim.MultiTenantSpec{
		Servers:        (clusterTenants + 1) / 2,
		Seed:           seed,
		Contention:     fabric.Contention{Enable: true},
		RebalanceEvery: rebalanceEvery,
		RebalancePack:  true,
	}
	for i := 0; i < clusterTenants; i++ {
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
		s := seed*clusterTenants + int64(i)
		switch i % 4 {
		case 1:
			tr = trace.Trace2(clusterIntervals, s)
		case 2:
			tr = trace.Trace3(clusterIntervals, s)
		case 3:
			tr = trace.Trace4(clusterIntervals, s)
		default:
			tr = trace.Trace1(clusterIntervals, s)
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

// resultDigest hashes every field of a cluster result; %#v prints
// floats in their shortest exact form, so equal digests mean equal bits.
func resultDigest(res sim.MultiTenantResult) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", res)))
	return hex.EncodeToString(sum[:8])
}

// clusterRun is one timed sim.Runner.RunMultiTenant.
type clusterRun struct {
	wall      time.Duration
	intervals []time.Duration // batch-end to batch-end: one interval's ticks and the previous apply
	progress  exec.Progress   // the pool's last report
	digest    string
	res       sim.MultiTenantResult
}

func timedClusterRun(ctx context.Context, spec sim.MultiTenantSpec, workers int) (clusterRun, error) {
	var (
		mu    sync.Mutex
		marks []time.Time
		last  exec.Progress
		total int
	)
	r := sim.NewRunner(sim.WithParallelism(workers), sim.WithProgress(func(p exec.Progress) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if p.Done == p.Total && p.Total > total {
			total = p.Total
			marks = append(marks, now)
		}
		last = p
	}))
	t0 := time.Now()
	res, err := r.RunMultiTenant(ctx, spec)
	run := clusterRun{wall: time.Since(t0), progress: last, res: res}
	if err != nil {
		return run, err
	}
	// marks[0] ends the per-tenant construction batch, marks[m+1] ends
	// interval m's tick-and-decide batch.
	for i := 1; i < len(marks); i++ {
		run.intervals = append(run.intervals, marks[i].Sub(marks[i-1]))
	}
	if len(run.intervals) != clusterIntervals {
		return run, fmt.Errorf("observed %d interval boundaries, want %d", len(run.intervals), clusterIntervals)
	}
	run.digest = resultDigest(res)
	return run, nil
}

func runCluster(ctx context.Context, rc runConfig) (*outcome, error) {
	o := newOutcome(nil)

	var setups []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		clusterSpec(rc.seed)
		setups = append(setups, time.Since(t0))
	}

	// Untraced runs for the measured window (half of it in a traced run,
	// whose other half is the traced mirror).
	window := time.Duration(rc.seconds * float64(time.Second))
	if rc.trace {
		window /= 2
	}
	var runs []clusterRun
	var intervals []float64
	var failed int64
	runtime.GC()
	heap := startHeapSampler(heapSampleEach)
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < window || (!rc.trace && len(intervals) < minIntervals) {
		spec := clusterSpec(rc.seed)
		runtime.GC()
		run, err := timedClusterRun(ctx, spec, rc.lanes)
		if err != nil {
			failed++
			o.check("cluster run", err)
			break
		}
		runs = append(runs, run)
		for _, d := range run.intervals {
			intervals = append(intervals, float64(d)/1e6)
		}
	}
	peak := heap.Stop()

	// The mirror re-runs the cluster from the packages' public API (traced
	// in a traced run); its result must be bit-identical to the runner's.
	var tr *tracer
	if rc.trace {
		tr = newTracer()
		o.tr = tr
	}
	runtime.GC()
	m, err := mirrorCluster(ctx, clusterSpec(rc.seed), rc.lanes, tr)
	o.attempted = int64(len(runs)) + 1
	if err != nil {
		failed++
		o.check("mirror run", err)
	}
	o.failed = failed
	if len(runs) == 0 || err != nil {
		return o, nil
	}

	digest := runs[0].digest
	var digErr error
	for i, r := range runs {
		if r.digest != digest {
			digErr = fmt.Errorf("run %d digest %s differs from run 0's %s", i, r.digest, digest)
		}
	}
	o.check("result digest identical across runs", digErr)
	o.check("public-API mirror reproduces the result bit for bit", errIf(m.digest != digest, "mirror digest %s, runner digest %s", m.digest, digest))
	if pin, ok := pinnedDigests[rc.seed]; ok {
		o.check("result digest equals the pinned digest", errIf(digest != pin, "digest %s, pinned %s", digest, pin))
	}
	o.check("packing gate: zero predicted violations after the last rebalance", errIf(m.lastViolations != 0, "%d predicted violations", m.lastViolations))
	o.report["result_digest"] = digest
	_, pinned := pinnedDigests[rc.seed]
	o.report["digest_pinned"] = pinned

	ivl := summarize(intervals, 0.90)
	o.check("interval p90 has at least 10 samples beyond it", errIf(!rc.trace && ivl.Beyond < 10, "%d samples leave %d beyond the p90", ivl.Samples, ivl.Beyond))
	walls := make([]time.Duration, len(runs))
	for i, r := range runs {
		walls[i] = r.wall
	}
	tips := float64(clusterTenants*clusterIntervals) / medianSeconds(walls)
	setupS := medianSeconds(setups)
	o.e2e["setup_s"] = setupS
	o.e2e["peak_heap_mb"] = peak
	o.e2e["op_p50_ms"] = ivl.P50
	o.e2e["op_tail_ms"] = ivl.Tail
	o.named("setup_s", setupS, "s")
	o.named("peak_heap_mb", peak, "MB")
	o.named("error_ratio", float64(failed)/float64(o.attempted), "ratio")
	o.named("tenant_intervals_per_s", tips, "1/s")
	o.named("interval_p50_ms", ivl.P50, "ms")
	o.named("interval_p90_ms", ivl.Tail, "ms")
	o.report["samples"] = map[string]any{"runs": len(runs), "intervals": ivl, "setup_s": setups, "run_wall_s": walls}
	o.report["cluster"] = map[string]any{
		"migrations": runs[0].res.Migrations, "refusals": runs[0].res.Refusals,
		"rebalance_migrations": runs[0].res.RebalanceMigrations,
		"peak_wait_inflation":  runs[0].res.PeakWaitInflation,
	}

	if rc.trace {
		last := runs[len(runs)-1].progress
		l := o.layers
		l["exec.worker_utilization"] = last.WorkerUtilization
		l["exec.task_p50_us"] = float64(last.P50) / 1e3
		l["sim.interval_ms"] = ivl.P50
		mirrorLayers(o, m, rc.lanes, ivl.P50)
	}
	return o, nil
}

// printPins prints the pinnedDigests entries for seeds lo-hi.
func printPins(span string) error {
	var lo, hi int64
	if _, err := fmt.Sscanf(span, "%d-%d", &lo, &hi); err != nil {
		return fmt.Errorf("-pin wants a seed range like 0-31: %w", err)
	}
	for seed := lo; seed <= hi; seed++ {
		run, err := timedClusterRun(context.Background(), clusterSpec(seed), 2)
		if err != nil {
			return err
		}
		fmt.Printf("\t%d: %q,\n", seed, run.digest)
	}
	return nil
}

func errIf(bad bool, format string, args ...any) error {
	if bad {
		return fmt.Errorf(format, args...)
	}
	return nil
}
