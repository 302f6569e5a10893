// Command perfbench is the repository's benchmark. Each run measures one
// workload and prints its metrics; the last line of standard output is
// one JSON object {correct, attempted, failed, metrics}.
//
// Workloads:
//
//   - serve-steady: open-loop telemetry ingest, backfills and reads
//     against the real daemon on loopback, 1000 warm tenants.
//   - serve-restart: a fresh daemon opens ledgers with long, uneven
//     histories while hot tenants keep streaming.
//   - cluster-contended: the 1000-tenant contended cluster simulation
//     with periodic goal-preserving rebalancing and packing.
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// re-runs the workload with spans around the calls into each package and
// reports the per-layer metrics. See README.md for the metric table.
//
// Usage:
//
//	go run . -workload serve-steady -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics every untraced run reports. Each workload
// maps its headline operation onto op_p50_ms and op_tail_ms (README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// perLayer lists the metrics every traced run reports; a layer the
// workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"serve.decode_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.busy_frac", "ratio"},
	{"serve.open_ms", "ms"},
	{"serve.restart_divergent_decisions", "count"},
	{"ledger.append_us", "us"},
	{"ledger.fsync_us", "us"},
	{"ledger.syncs_per_request", "ratio"},
	{"ledger.replay_us_per_decision", "us"},
	{"ledger.bytes_per_decision", "B"},
	{"loop.step_snapshot_us", "us"},
	{"telemetry.signals_us", "us"},
	{"policy.decide_us", "us"},
	{"telemetry.sanitized", "count"},
	{"engine.tickbatch_us", "us"},
	{"engine.end_interval_us", "us"},
	{"engine.latency_samples", "count"},
	{"loop.decide_us", "us"},
	{"loop.apply_us", "us"},
	{"loop.finalize_ms", "ms"},
	{"fabric.resize_us", "us"},
	{"fabric.refusal_ratio", "ratio"},
	{"fabric.migrations", "count"},
	{"fabric.rebalance_ms", "ms"},
	{"fabric.optimize_ms", "ms"},
	{"fabric.rebalance_moves", "ratio"},
	{"exec.worker_utilization", "ratio"},
	{"exec.task_p50_us", "us"},
	{"sim.interval_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // work directory (the disk sync probe), removed at exit
	lanes    int    // sending goroutines, connections and sim workers
}

// outcome is what a workload run produced.
type outcome struct {
	checks    []check
	attempted int64
	failed    int64
	e2e       map[string]float64
	layers    map[string]float64
	// report holds every other figure: the per-workload metrics by their
	// own names, sample counts, the layer table and the reconciliation.
	report map[string]any
	// figures are the workload's end-to-end metrics under their own
	// names (ingest_p50_ms, reopen_p90_ms, ...), printed by every run.
	figures map[string]metric
	tr      *tracer
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newOutcome(tr *tracer) *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}, figures: map[string]metric{}, tr: tr}
}

// named records one of the workload's own end-to-end figures.
func (o *outcome) named(name string, v float64, unit string) {
	o.figures[name] = metric{Value: v, Unit: unit}
}

// check records an output check; err == nil passes.
func (o *outcome) check(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return len(o.checks) > 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"serve-steady":      runSteady,
	"serve-restart":     runRestart,
	"cluster-contended": runCluster,
}

func main() {
	var rc runConfig
	var traceFlag int
	var out string
	flag.StringVar(&rc.workload, "workload", "", "workload to run: serve-steady, serve-restart or cluster-contended")
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&rc.seconds, "seconds", 10, "measured duration in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&out, "out", ".bench_build/perfbench", "directory for the run's report, spans and work files")
	pin := flag.String("pin", "", "print the cluster result digests of a seed range (e.g. 0-31) for pinnedDigests, and exit")
	flag.Parse()
	rc.trace = traceFlag == 1
	if *pin != "" {
		if err := printPins(*pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(rc, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(rc runConfig, out string) error {
	fn, ok := workloads[rc.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", rc.workload)
	}
	if rc.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	rc.lanes = runtime.NumCPU()
	if rc.lanes > 2 {
		rc.lanes = 2
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	// A run cut short leaves its work directory behind; clear it.
	stale, _ := filepath.Glob(filepath.Join(out, "work-*"))
	for _, d := range stale {
		removeAll(d)
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return err
	}
	defer removeAll(work)
	rc.work = work

	ctx := context.Background()
	start := time.Now()
	o, err := fn(ctx, rc)
	if err != nil {
		return fmt.Errorf("%s: %w", rc.workload, err)
	}
	o.report["wall_s"] = time.Since(start).Seconds()

	metrics := map[string]metric{}
	if rc.trace {
		for _, m := range perLayer {
			metrics[m.name] = metric{Value: o.layers[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := o.e2e[m.name]
			if !ok {
				return fmt.Errorf("%s did not measure %s", rc.workload, m.name)
			}
			metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}

	report := map[string]any{
		"workload":  rc.workload,
		"seed":      rc.seed,
		"seconds":   rc.seconds,
		"trace":     rc.trace,
		"lanes":     rc.lanes,
		"host":      readHost(),
		"rationale": rationale(rc.workload),
		"checks":    o.checks,
		"figures":   o.figures,
		"report":    o.report,
	}
	if rc.trace {
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-%d.txt", rc.workload, rc.seed))
		if err := o.tr.writeSpans(spans); err != nil {
			return err
		}
		report["spans_file"] = spans
		report["layers"] = o.tr.stats()
	}
	rb, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, fmt.Sprintf("report-%s-%d-trace%d.json", rc.workload, rc.seed, boolInt(rc.trace))), rb, 0o644); err != nil {
		return err
	}
	printSummary(rc, o)
	if rc.trace {
		printLayers(o)
	}

	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, metrics}
	if final.Attempted < 1 {
		final.Attempted = 1
	}
	fb, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(fb))
	if !final.Correct {
		return errors.New("an output check failed")
	}
	return nil
}

// printSummary prints the human-readable part of a run: host, checks and
// every figure by name and unit.
func printSummary(rc runConfig, o *outcome) {
	h := readHost()
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", rc.workload, rc.seed, rc.seconds, rc.trace)
	fmt.Printf("host: %s, nproc=%d, GOMAXPROCS=%d, %s, lanes=%d\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, rc.lanes)
	if why := rationale(rc.workload); why != "" {
		fmt.Printf("why: %s\n", why)
	}
	for _, c := range o.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Printf("check %-34s %s\n", c.Name, status)
	}
	names := make([]string, 0, len(o.figures))
	for k := range o.figures {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-24s %12.4f %s\n", k, o.figures[k].Value, o.figures[k].Unit)
	}
	keys := make([]string, 0, len(o.report))
	for k := range o.report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, err := json.Marshal(o.report[k])
		if err != nil {
			b = []byte(fmt.Sprint(o.report[k]))
		}
		fmt.Printf("%s: %s\n", k, b)
	}
}

// printLayers prints every traced span name with its call count,
// median, total and self time, then the per-layer metrics.
func printLayers(o *outcome) {
	st := o.tr.stats()
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		l := st[k]
		fmt.Printf("span  %-28s calls=%-7d median=%.2fus total=%.1fms self=%.1fms\n", k, l.Calls, l.MedianUs, l.TotalMs, l.SelfMs)
	}
	for _, m := range perLayer {
		fmt.Printf("layer %-34s %12.4f %s\n", m.name, o.layers[m.name], m.unit)
	}
}

// rationale is the workload's one-line reason, read from BENCHMARK.json
// at the checkout root ("" when absent).
func rationale(workload string) string {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return ""
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return ""
	}
	for _, w := range spec.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
