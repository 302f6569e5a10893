// Command daas-sim runs a single auto-scaling experiment: one workload ×
// trace pair evaluated under all six policies (Max, Peak, Avg, Trace, Util,
// Auto), printing the paper-style comparison table and, optionally, the
// drill-down series of one policy as CSV.
//
// Usage:
//
//	daas-sim [-workload tpcc|ds2|cpuio] [-trace trace1..trace4]
//	         [-goal-factor F] [-seed S] [-sensitivity low|medium|high]
//	         [-budget B -budget-intervals N] [-workers W]
//	         [-faults RATE -fault-seed S]
//	         [-actuation-latency N -actuation-jitter N -actuation-fail R
//	          -actuation-throttle R -actuation-burst-start N
//	          -actuation-burst-len N -actuation-deadline N -actuation-seed S]
//	         [-csv POLICY -out FILE]
//	         [-cluster N -cluster-servers M -cluster-goal-ms G
//	          -cluster-intervals K -contention -rebalance-every K
//	          -rebalance-pack]
//	         [-cpuprofile FILE -memprofile FILE]
//
// With -faults R > 0 every policy's telemetry channel runs in chaos mode: a
// deterministic fault plan injects dropped, duplicated, reordered and
// corrupted snapshots at total rate R (spread uniformly over the fault
// kinds). The engine and the billing stay truthful — only what the policies
// observe is perturbed — and the run is reproducible: the same seed and
// fault seed give bit-identical results at any worker count.
//
// The -actuation-* flags put the resize channel itself under chaos: every
// container change a policy decides becomes an asynchronous operation that
// takes -actuation-latency billing intervals (plus a deterministic jitter
// of up to -actuation-jitter) to execute, can be throttled or fail
// transiently, retries with capped exponential backoff under a
// per-operation deadline, and is reconciled desired-vs-actual — a stale
// in-flight resize is superseded when the policy changes its mind. Like the
// telemetry faults, actuation chaos is seed-deterministic and never touches
// the offline Max run that derives the latency goal.
//
// With -cluster N > 0 the command switches to the paper's Figure 3
// deployment instead: N auto-scaled tenants (a TPC-C/DS2/CPUIO mix over the
// four standard traces) share -cluster-servers database servers through the
// management fabric, and the per-tenant and per-node outcomes are printed.
// -contention turns on the noisy-neighbor interference model (overcommitted
// shared channels inflate co-residents' waits), -rebalance-every K runs the
// goal-preserving placement optimizer every K intervals, and
// -rebalance-pack additionally consolidates tenants onto fewer nodes when
// no goal is violated. -cluster-intervals K compresses every tenant's trace
// to K billing intervals (keeping its load shape), which bounds the run's
// memory: each tenant retains its run-level latency samples. The -faults
// and -actuation-* flags apply to the cluster run too.
//
// -cpuprofile and -memprofile write CPU and allocation pprof profiles of
// the run, in either mode. In -cluster mode a CPU profile also labels the
// runner's phases (phase=ticks+decide, phase=apply), so the profile splits
// the parallel tick/decide fan-out from the serial fabric-apply section:
//
//	daas-sim -cluster 1000 -cluster-intervals 12 -workers 8 -cpuprofile cpu.pprof
//	go tool pprof -top -tagfocus phase=apply cpu.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"daasscale/internal/actuate"
	"daasscale/internal/budget"
	"daasscale/internal/estimator"
	"daasscale/internal/fabric"
	"daasscale/internal/faults"
	"daasscale/internal/fleet"
	"daasscale/internal/report"
	"daasscale/internal/resource"
	"daasscale/internal/sim"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daas-sim: ")
	workloadName := flag.String("workload", "cpuio", "workload: tpcc, ds2 or cpuio")
	traceName := flag.String("trace", "trace2", "trace: trace1..trace4")
	goalFactor := flag.Float64("goal-factor", 1.25, "latency goal as a multiple of the Max-container p95")
	seed := flag.Int64("seed", 42, "seed")
	sensitivity := flag.String("sensitivity", "medium", "performance sensitivity: low, medium or high")
	budgetTotal := flag.Float64("budget", 0, "optional budget for Auto over the budgeting period (0 = unlimited)")
	budgetIntervals := flag.Int("budget-intervals", 0, "budgeting period in billing intervals (defaults to the trace length)")
	workers := flag.Int("workers", 0, "worker-pool width for the policy fan-out (0 = all cores); never changes results")
	faultRate := flag.Float64("faults", 0, "total telemetry fault rate in [0,1] (0 = clean run)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-plan seed (varies fault timing independently of -seed)")
	actLatency := flag.Int("actuation-latency", 0, "billing intervals a resize takes to execute (0 with no other actuation flag = synchronous)")
	actJitter := flag.Int("actuation-jitter", 0, "extra per-operation latency jitter in [0,N] intervals")
	actFail := flag.Float64("actuation-fail", 0, "per-attempt transient failure probability in [0,1]")
	actThrottle := flag.Float64("actuation-throttle", 0, "per-attempt fabric throttle probability in [0,1]")
	actBurstStart := flag.Int("actuation-burst-start", 0, "first interval of a 100% throttle storm (with -actuation-burst-len)")
	actBurstLen := flag.Int("actuation-burst-len", 0, "length of the throttle storm in intervals (0 = none)")
	actDeadline := flag.Int("actuation-deadline", 0, "per-operation deadline in intervals (0 = none)")
	actSeed := flag.Int64("actuation-seed", 1, "actuation-chaos seed (varies actuation faults independently of -seed)")
	calibrate := flag.Bool("calibrate", false, "calibrate estimator thresholds from a fleet sample first")
	explain := flag.Bool("explain", false, "print the per-interval decision-audit trail (rule explanations, fault and actuation events)")
	explainPolicy := flag.String("explain-policy", "Auto", "policy whose audit trail -explain prints")
	explainRows := flag.Int("explain-rows", 40, "maximum audit lines -explain prints")
	csvPolicy := flag.String("csv", "", "export this policy's per-interval series as CSV")
	outPath := flag.String("out", "", "CSV output file (default stdout)")
	clusterTenants := flag.Int("cluster", 0, "run a multi-tenant cluster with this many tenants instead of the policy comparison (0 = off)")
	clusterServers := flag.Int("cluster-servers", 0, "cluster size in servers (0 = one largest container per two tenants)")
	clusterGoalMs := flag.Float64("cluster-goal-ms", 100, "per-tenant p95 latency goal in the cluster run (ms)")
	clusterIntervals := flag.Int("cluster-intervals", 0, "compress each cluster tenant's trace to this many billing intervals (0 = full trace)")
	contention := flag.Bool("contention", false, "enable the noisy-neighbor interference model on the cluster fabric")
	rebalanceEvery := flag.Int("rebalance-every", 0, "run the goal-preserving placement optimizer every N intervals (0 = never)")
	rebalancePack := flag.Bool("rebalance-pack", false, "also consolidate tenants onto fewer nodes when no goal is violated")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (labels the cluster phases in -cluster mode)")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()

	w, err := workload.ByName(*workloadName)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.ByName(*traceName, *seed)
	if err != nil {
		log.Fatal(err)
	}
	var sens estimator.Sensitivity
	switch *sensitivity {
	case "low":
		sens = estimator.SensitivityLow
	case "medium":
		sens = estimator.SensitivityMedium
	case "high":
		sens = estimator.SensitivityHigh
	default:
		log.Fatalf("unknown sensitivity %q", *sensitivity)
	}

	var faultPlan faults.Plan
	if *faultRate > 0 {
		faultPlan = faults.Uniform(*faultRate)
		faultPlan.Seed = *faultSeed
	}
	actCfg := actuate.Config{
		Seed:              *actSeed,
		LatencyIntervals:  *actLatency,
		JitterIntervals:   *actJitter,
		FailRate:          *actFail,
		ThrottleRate:      *actThrottle,
		BurstStart:        *actBurstStart,
		BurstLen:          *actBurstLen,
		DeadlineIntervals: *actDeadline,
	}
	if !actCfg.Enabled() {
		actCfg = actuate.Config{}
	}

	if *clusterIntervals < 0 {
		log.Fatalf("-cluster-intervals must be >= 0, got %d", *clusterIntervals)
	}
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	if *clusterTenants > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		runCluster(ctx, clusterConfig{
			tenants:        *clusterTenants,
			servers:        *clusterServers,
			goalMs:         *clusterGoalMs,
			intervals:      *clusterIntervals,
			seed:           *seed,
			workers:        *workers,
			contention:     *contention,
			rebalanceEvery: *rebalanceEvery,
			rebalancePack:  *rebalancePack,
			faults:         faultPlan,
			actuation:      actCfg,
			phaseLabels:    *cpuProfile != "",
		})
		return
	}
	if *contention || *rebalanceEvery > 0 || *rebalancePack || *clusterIntervals > 0 {
		log.Fatal("-contention, -rebalance-* and -cluster-intervals need a cluster run: set -cluster N")
	}

	cs := sim.ComparisonSpec{
		Workload:    w,
		Trace:       tr,
		GoalFactor:  *goalFactor,
		Seed:        *seed,
		Sensitivity: sens,
		Audit:       *explain,
	}
	cs.Faults = faultPlan
	cs.Actuation = actCfg
	if *budgetTotal > 0 {
		n := *budgetIntervals
		if n == 0 {
			n = tr.Len()
		}
		cat := resource.LockStepCatalog()
		bud, err := budget.New(budget.Aggressive, *budgetTotal, n, cat.Smallest().Cost, cat.Largest().Cost, 0)
		if err != nil {
			log.Fatal(err)
		}
		cs.AutoBudget = bud
	}
	if *calibrate {
		calSpec, err := fleet.NewCalibrationSpec(200, 4, *seed)
		if err != nil {
			log.Fatal(err)
		}
		cal, err := fleet.StreamCalibration(context.Background(), calSpec, nil)
		if err != nil {
			log.Fatal(err)
		}
		cs.Thresholds = cal.Thresholds
		fmt.Fprintln(os.Stderr, "note: Auto uses fleet-calibrated thresholds")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	comp, err := sim.NewRunner(sim.WithParallelism(*workers)).RunComparison(ctx, cs)
	if err != nil {
		log.Fatal(err)
	}
	title := fmt.Sprintf("%s × %s, goal %.2f × Max p95", w.Name, tr.Name, *goalFactor)
	report.ComparisonTable(os.Stdout, title, comp)
	if cs.Faults.Enabled() {
		fmt.Printf("\ntelemetry chaos (rate %.0f%%, fault seed %d; Max stays clean for goal derivation):\n",
			*faultRate*100, *faultSeed)
		for _, r := range comp.Results {
			if r.FaultStats.Total() > 0 {
				fmt.Printf("  %-6s %s\n", r.Policy, r.FaultStats)
			}
		}
	}
	if cs.Actuation.Enabled() {
		fmt.Printf("\nresize actuation (seed %d; the offline Max run stays synchronous):\n", *actSeed)
		for _, r := range comp.Results {
			if r.ActuationStats.Ops > 0 {
				fmt.Printf("  %-6s %s\n", r.Policy, r.ActuationStats)
			}
		}
	}

	if *explain {
		r, ok := comp.ByPolicy(*explainPolicy)
		if !ok {
			log.Fatalf("no result for policy %q", *explainPolicy)
		}
		fmt.Println()
		report.ExplainTable(os.Stdout, fmt.Sprintf("%s on %s × %s", r.Policy, r.Workload, r.Trace), r.Audit, *explainRows)
	}

	if *csvPolicy != "" {
		r, ok := comp.ByPolicy(*csvPolicy)
		if !ok {
			log.Fatalf("no result for policy %q", *csvPolicy)
		}
		out := os.Stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := report.SeriesCSV(out, r.Series); err != nil {
			log.Fatal(err)
		}
	}
}

// startProfiles starts a CPU profile into cpuPath (when set) and returns
// the function that stops it and writes an allocation profile into memPath
// (when set).
func startProfiles(cpuPath, memPath string) (stop func()) {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				log.Fatal(err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// clusterConfig gathers the -cluster* knobs of a multi-tenant run.
type clusterConfig struct {
	tenants        int
	servers        int
	goalMs         float64
	intervals      int // 0 = full traces
	seed           int64
	workers        int
	contention     bool
	rebalanceEvery int
	rebalancePack  bool
	faults         faults.Plan
	actuation      actuate.Config
	phaseLabels    bool
}

// runCluster executes the Figure 3 deployment: cfg.tenants auto-scaled
// tenants (a workload/trace mix) sharing cfg.servers servers through the
// management fabric, optionally under the noisy-neighbor interference model
// and the goal-preserving placement optimizer.
func runCluster(ctx context.Context, cfg clusterConfig) {
	spec := sim.MultiTenantSpec{
		Servers:        cfg.servers,
		Seed:           cfg.seed,
		Faults:         cfg.faults,
		Actuation:      cfg.actuation,
		RebalanceEvery: cfg.rebalanceEvery,
		RebalancePack:  cfg.rebalancePack,
	}
	if cfg.contention {
		spec.Contention = fabric.Contention{Enable: true}
	}
	mix := []*workload.Workload{workload.TPCC(), workload.DS2(), workload.CPUIO(workload.DefaultCPUIOConfig())}
	traceNames := []string{"trace1", "trace2", "trace3", "trace4"}
	for i := 0; i < cfg.tenants; i++ {
		tr, err := trace.ByName(traceNames[i%len(traceNames)], cfg.seed+int64(i))
		if err != nil {
			log.Fatal(err)
		}
		if cfg.intervals > 0 {
			tr = tr.Resample(cfg.intervals)
		}
		spec.Tenants = append(spec.Tenants, sim.TenantSpec{
			ID:       fmt.Sprintf("t%02d", i),
			Workload: mix[i%len(mix)],
			Trace:    tr,
			GoalMs:   cfg.goalMs,
		})
	}

	opts := []sim.Option{sim.WithParallelism(cfg.workers)}
	if cfg.phaseLabels {
		opts = append(opts, sim.WithPhaseLabels())
	}
	res, err := sim.NewRunner(opts...).RunMultiTenant(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}

	title := fmt.Sprintf("%d tenants on %d server(s), goal p95 ≤ %.0f ms", cfg.tenants, len(res.Nodes), cfg.goalMs)
	switch {
	case cfg.contention && cfg.rebalanceEvery > 0:
		title += fmt.Sprintf(", contention on, rebalance every %d", cfg.rebalanceEvery)
	case cfg.contention:
		title += ", contention on"
	}
	fmt.Printf("cluster: %s\n", title)
	fmt.Printf("%-5s  %10s  %14s  %8s  %8s  %6s  %6s  %6s\n",
		"id", "p95 (ms)", "cost/interval", "changes", "refused", "migr", "rebal", "meets")
	for _, t := range res.Tenants {
		meets := "yes"
		if cfg.goalMs > 0 && t.P95Ms > cfg.goalMs {
			meets = "NO"
		}
		fmt.Printf("%-5s  %10.1f  %14.2f  %8d  %8d  %6d  %6d  %6s\n",
			t.ID, t.P95Ms, t.AvgCostPerInterval, t.Changes, t.RefusedResizes,
			t.Migrations, t.RebalanceMigrations, meets)
	}
	fmt.Println()
	report.NodeTable(os.Stdout, title, res)
}
