package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"daasscale/internal/actuate"
	"daasscale/internal/core"
	"daasscale/internal/engine"
	"daasscale/internal/exec"
	"daasscale/internal/fabric"
	"daasscale/internal/loop"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/sim"
	"daasscale/internal/stats"
	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// The mirror re-runs sim.Runner.RunMultiTenant's synchronous contended
// schedule from the public API of engine, loop, policy and fabric, so
// the benchmark can put spans around each call. Ticks fan out across the
// pool; each tenant's decision and apply then run serially in tenant
// order through loop.StepSnapshot, which decides exactly as the runner's
// parallel Decide does (a tenant's decision reads only its own state), so
// the result is bit-identical to the runner's — the benchmark checks it.

// mirrorTenant is one tenant's state.
type mirrorTenant struct {
	spec    sim.TenantSpec
	eng     *engine.Engine
	gen     *workload.Generator
	lp      *loop.TenantLoop[resource.Container]
	res     sim.TenantResult
	samples []float64
	offered []float64
	snap    telemetry.Snapshot
	shadow  *telemetry.Manager // times Observe+Signals on the tenant's snapshots
	// activeScalar is the dominant inflation the last snapshot ran under.
	activeScalar float64
	step         uint64 // the open step span, parent of decide and resize spans
	decide       uint64 // the open loop.decide span, parent of policy.decide
}

// mirrorResult is the mirror's result and its own counts.
type mirrorResult struct {
	res            sim.MultiTenantResult
	digest         string
	lastViolations int // predicted violations after the last rebalance
	resizes        int
	planned        int // rebalance and optimize moves planned
	executed       int
	samples        int64
	intervals      []float64 // ms
}

// spanDecider times the loop's decision half: Observe and Decide.
type spanDecider struct {
	inner loop.Decider[resource.Container]
	tr    *tracer
	t     *mirrorTenant
}

func (d spanDecider) Observe(s telemetry.Snapshot) {
	a := d.tr.begin("loop.decide", d.t.step)
	d.t.decide = a.id
	d.inner.Observe(s)
	d.tr.end(a)
}

func (d spanDecider) Decide(info loop.StepInfo, truth telemetry.Snapshot, actual resource.Container) loop.Decision[resource.Container] {
	a := d.tr.begin("loop.decide", d.t.step)
	dec := d.inner.Decide(info, truth, actual)
	d.tr.end(a)
	return dec
}

// mirrorPolicy times the policy's own decision inside loop.decide.
type mirrorPolicy struct {
	policy.Policy
	tr *tracer
	t  *mirrorTenant
}

func (p mirrorPolicy) Observe(s telemetry.Snapshot) policy.Decision {
	a := p.tr.begin("policy.decide", p.t.decide)
	d := p.Policy.Observe(s)
	p.tr.end(a)
	return d
}

// fabricApplier lands resizes on the shared fabric, as the runner's does.
type fabricApplier struct {
	fab *fabric.Fabric
	tr  *tracer
	t   *mirrorTenant
	n   *int
}

func (a fabricApplier) Apply(c resource.Container) error {
	*a.n++
	sp := a.tr.begin("fabric.resize", a.t.step)
	migrated, err := a.fab.Resize(a.t.spec.ID, c)
	a.tr.end(sp)
	if errors.Is(err, fabric.ErrRefused) {
		a.t.res.RefusedResizes++
		return fmt.Errorf("%w: %v", actuate.ErrRefused, err)
	}
	if err != nil {
		return err
	}
	a.t.eng.SetContainer(c)
	if migrated {
		a.t.res.Migrations++
	}
	return nil
}

func (a fabricApplier) Actual() resource.Container { return a.t.eng.Container() }

type scalerReconciler struct{ scaler *core.AutoScaler }

func (r scalerReconciler) ForceActual(c resource.Container) { r.scaler.ForceContainer(c) }

func mirrorCluster(ctx context.Context, spec sim.MultiTenantSpec, workers int, tr *tracer) (mirrorResult, error) {
	var out mirrorResult
	cat := resource.LockStepCatalog()
	fab, err := fabric.New(spec.Servers, cat.Largest().Alloc, spec.Policy)
	if err != nil {
		return out, err
	}
	if err := fab.SetContention(spec.Contention); err != nil {
		return out, err
	}
	intervals := 0
	for _, ts := range spec.Tenants {
		intervals = max(intervals, ts.Trace.Len())
	}
	goal := func(ms float64) core.LatencyGoal {
		if ms > 0 {
			return core.LatencyGoal{Kind: core.GoalP95, Ms: ms}
		}
		return core.LatencyGoal{}
	}
	tenants := make([]*mirrorTenant, len(spec.Tenants))
	byID := make(map[string]*mirrorTenant, len(tenants))
	for i, ts := range spec.Tenants {
		if ts.Seed == 0 {
			ts.Seed = exec.SplitSeedString(spec.Seed, ts.ID)
		}
		scaler, err := core.New(core.Config{Catalog: cat, Initial: cat.Smallest(), Goal: goal(ts.GoalMs)})
		if err != nil {
			return out, err
		}
		eng, err := engine.New(ts.Workload, scaler.Container(), ts.Seed, spec.EngineOpts)
		if err != nil {
			return out, err
		}
		t := &mirrorTenant{
			spec: ts,
			eng:  eng,
			gen:  workload.NewGenerator(ts.Seed+loop.GeneratorSeedOffset, 0.1),
			res:  sim.TenantResult{ID: ts.ID},
			// Sized for the whole run, as the runner sizes its buffer.
			samples:      make([]float64, 0, intervals*eng.TicksPerInterval()*engine.MaxLatencySamplesPerTick),
			shadow:       telemetry.NewManager(5),
			activeScalar: 1,
		}
		t.lp = loop.New(loop.Config[resource.Container]{
			ID:     ts.ID,
			Engine: eng,
			Seed:   ts.Seed,
			Jitter: 0.1,
			Decider: spanDecider{
				inner: &loop.PolicyDecider{Policy: mirrorPolicy{Policy: policy.NewAuto(scaler), tr: tr, t: t}, MemoryTarget: eng.MemoryTargetMB},
				tr:    tr, t: t,
			},
			Applier:         fabricApplier{fab: fab, tr: tr, t: t, n: &out.resizes},
			Reconciler:      scalerReconciler{scaler},
			Describe:        loop.DescribeContainer,
			SetMemoryTarget: true,
		})
		tenants[i] = t
		byID[ts.ID] = t
		if err := fab.Place(ts.ID, eng.Container()); err != nil {
			return out, fmt.Errorf("placing tenant %q: %w", ts.ID, err)
		}
	}

	install := func() {
		a := tr.begin("sim.contention", 0)
		for _, t := range tenants {
			inf, node, ok := fab.TenantInflation(t.spec.ID)
			if !ok {
				continue
			}
			t.lp.SetNodeContention(node, fab.ServerPressure(node), inf)
			out.res.PeakWaitInflation = max(out.res.PeakWaitInflation, inf.Max())
			if spec.Contention.Enabled() {
				t.eng.SetContention(engine.Contention{
					CPU:    inf[fabric.ChannelCPUCache],
					Memory: inf[fabric.ChannelBufferPool],
					LogIO:  inf[fabric.ChannelLogDevice],
				})
				t.activeScalar = inf.Max()
			}
		}
		tr.end(a)
	}
	install()

	pool := exec.NewPool(exec.Options{Workers: workers})
	for m := 0; m < intervals; m++ {
		t0 := time.Now()
		iv := tr.begin("sim.interval", 0)
		phase := tr.begin("sim.tick_phase", iv.id)
		err := pool.Run(ctx, len(tenants), func(_ context.Context, i int) error {
			t := tenants[i]
			task := tr.begin("sim.tenant_ticks", phase.id)
			target := t.spec.Trace.At(m)
			if m >= t.spec.Trace.Len() {
				target = 0
			}
			n := t.eng.TicksPerInterval()
			if cap(t.offered) < n {
				t.offered = make([]float64, n)
			}
			buf := t.offered[:n]
			for k := range buf {
				buf[k] = t.gen.Offered(target)
			}
			a := tr.begin("engine.tickbatch", task.id)
			t.eng.TickBatch(buf)
			tr.end(a)
			t.samples = append(t.samples, t.eng.IntervalLatencies()...)
			a = tr.begin("engine.end_interval", task.id)
			t.snap = t.eng.EndInterval()
			tr.end(a)
			if tr != nil {
				a = tr.begin("telemetry.signals", task.id)
				t.shadow.Observe(t.snap)
				t.shadow.Signals()
				tr.end(a)
			}
			tr.end(task)
			return nil
		})
		tr.end(phase)
		if err != nil {
			return out, err
		}
		serial := tr.begin("sim.serial_phase", iv.id)
		for _, t := range tenants {
			a := tr.begin("loop.step_snapshot", serial.id)
			t.step = a.id
			err := t.lp.StepSnapshot(m, t.snap, true)
			tr.end(a)
			if err != nil {
				return out, fmt.Errorf("interval %d: resizing tenant %q: %w", m, t.spec.ID, err)
			}
		}
		if (m+1)%spec.RebalanceEvery == 0 {
			if out.lastViolations, err = rebalance(spec, fab, tenants, byID, tr, serial.id, &out); err != nil {
				return out, fmt.Errorf("interval %d: %w", m, err)
			}
		}
		install()
		for _, u := range fab.Utilization() {
			out.res.PeakClusterCPUFrac = max(out.res.PeakClusterCPUFrac, u)
		}
		if err := fab.Validate(); err != nil {
			return out, fmt.Errorf("interval %d: %w", m, err)
		}
		tr.end(serial)
		tr.end(iv)
		out.intervals = append(out.intervals, float64(time.Since(t0))/1e6)
	}

	for _, t := range tenants {
		tot := t.lp.Finalize(intervals)
		t.res.TotalCost = tot.TotalCost
		t.res.AvgCostPerInterval = tot.AvgCostPerInterval
		t.res.Changes = tot.Changes
		t.res.Actuation = tot.Actuation
		out.samples += int64(len(t.samples))
		if len(t.samples) > 0 {
			a := tr.begin("loop.finalize", 0)
			t.res.P95Ms = stats.QuantileSelect(t.samples, 0.95)
			tr.end(a)
		}
		out.res.Tenants = append(out.res.Tenants, t.res)
		out.res.RebalanceMigrations += t.res.RebalanceMigrations
	}
	out.res.Migrations = fab.Migrations()
	out.res.Refusals = fab.Refusals()
	util := fab.UtilizationByResource()
	for i, s := range fab.Servers() {
		out.res.Nodes = append(out.res.Nodes, sim.NodeStats{
			Node:        s.ID,
			Tenants:     s.TenantCount(),
			Utilization: util[i],
			Pressure:    fab.ServerPressure(i),
			Inflation:   fab.ServerInflation(i),
		})
	}
	out.digest = resultDigest(out.res)
	return out, nil
}

// rebalance plans goal-preserving moves (or, with nothing violated,
// consolidating ones) and executes them synchronously. It returns the
// predicted violations left after the moves.
func rebalance(spec sim.MultiTenantSpec, fab *fabric.Fabric, tenants []*mirrorTenant, byID map[string]*mirrorTenant, tr *tracer, parent uint64, out *mirrorResult) (int, error) {
	goals := make([]fabric.TenantGoal, 0, len(tenants))
	for _, t := range tenants {
		g := fabric.TenantGoal{ID: t.spec.ID, GoalMs: t.spec.GoalMs}
		if p95 := t.lp.Snapshot().P95LatencyMs; p95 > 0 && t.activeScalar > 0 {
			g.BaselineP95Ms = p95 / t.activeScalar
		}
		goals = append(goals, g)
	}
	a := tr.begin("fabric.rebalance", parent)
	plan := fab.Rebalance(goals)
	tr.end(a)
	if spec.RebalancePack && len(plan.Moves) == 0 {
		a = tr.begin("fabric.optimize", parent)
		plan = fab.Optimize(goals)
		tr.end(a)
	}
	out.planned += len(plan.Moves)
	a = tr.begin("fabric.migrate", parent)
	for _, mv := range plan.Moves {
		err := fab.Migrate(mv.Tenant, mv.To)
		if errors.Is(err, fabric.ErrRefused) {
			continue // the next round re-plans from reality
		}
		if err != nil {
			return 0, fmt.Errorf("rebalancing tenant %q: %w", mv.Tenant, err)
		}
		t := byID[mv.Tenant]
		t.eng.MigrateRestart()
		t.res.RebalanceMigrations++
		out.executed++
	}
	tr.end(a)
	// A predicted violation is one placement can cause and fix: the
	// contention-free baseline meets the goal, the baseline inflated by
	// the tenant's node does not. (A baseline already over its goal is
	// the auto-scaler's to fix, not the placement's.)
	violations := 0
	for _, g := range goals {
		inf, _, ok := fab.TenantInflation(g.ID)
		if ok && g.GoalMs > 0 && g.BaselineP95Ms <= g.GoalMs && g.BaselineP95Ms*inf.Max() > g.GoalMs {
			violations++
		}
	}
	return violations, nil
}

// mirrorLayers derives the cluster's per-layer metrics from the traced
// mirror and reconciles them with the mirror's interval wall time.
func mirrorLayers(o *outcome, m mirrorResult, workers int, runnerP50 float64) {
	tr := o.tr
	st := tr.stats()
	spans := tr.snapshot()
	kids := childIndex(spans)
	var decide, apply []float64
	for _, s := range spans {
		if s.Name != "loop.step_snapshot" {
			continue
		}
		var d float64
		for _, k := range kids[s.ID] {
			if k.Name == "loop.decide" {
				d += us(k)
			}
		}
		decide = append(decide, d)
		apply = append(apply, us(s)-d)
	}
	refused := 0
	for _, t := range m.res.Tenants {
		refused += t.RefusedResizes
	}
	l := o.layers
	l["engine.tickbatch_us"] = st["engine.tickbatch"].MedianUs
	l["engine.end_interval_us"] = st["engine.end_interval"].MedianUs
	l["engine.latency_samples"] = float64(m.samples)
	l["telemetry.signals_us"] = st["telemetry.signals"].MedianUs
	l["policy.decide_us"] = st["policy.decide"].MedianUs
	l["loop.step_snapshot_us"] = st["loop.step_snapshot"].MedianUs
	l["loop.decide_us"] = quantile(decide, 0.5)
	l["loop.apply_us"] = quantile(apply, 0.5)
	l["loop.finalize_ms"] = st["loop.finalize"].MedianUs / 1e3
	l["fabric.resize_us"] = st["fabric.resize"].MedianUs
	if m.resizes > 0 {
		l["fabric.refusal_ratio"] = float64(refused) / float64(m.resizes)
	}
	l["fabric.migrations"] = float64(m.res.Migrations)
	l["fabric.rebalance_ms"] = st["fabric.rebalance"].MedianUs / 1e3
	l["fabric.optimize_ms"] = st["fabric.optimize"].MedianUs / 1e3
	if m.planned > 0 {
		l["fabric.rebalance_moves"] = float64(m.executed) / float64(m.planned)
	}
	mirrorP50 := quantile(m.intervals, 0.5)
	l["trace.overhead_frac"] = (mirrorP50 - runnerP50) / runnerP50

	// Reconcile, in mean ms per interval. The tick phase runs tenants on
	// workers in parallel, so its layers count worker time divided by the
	// worker count; the serial phase counts wall time.
	n := float64(len(m.intervals))
	w := float64(workers)
	total := func(name string) float64 { return st[name].TotalMs / n }
	tasks := total("sim.tenant_ticks")
	parts := map[string]float64{
		"engine.tickbatch / workers":       total("engine.tickbatch") / w,
		"engine.end_interval / workers":    total("engine.end_interval") / w,
		"telemetry.signals / workers":      total("telemetry.signals") / w,
		"tenant task other / workers":      (tasks - total("engine.tickbatch") - total("engine.end_interval") - total("telemetry.signals")) / w,
		"pool wait and imbalance":          total("sim.tick_phase") - tasks/w,
		"loop.decide (serial)":             mean(decide) * float64(len(decide)) / 1e3 / n,
		"loop.apply incl. fabric.resize":   mean(apply) * float64(len(apply)) / 1e3 / n,
		"fabric.rebalance+optimize":        total("fabric.rebalance") + total("fabric.optimize"),
		"fabric.migrate (rebalance moves)": total("fabric.migrate"),
		"contention install":               total("sim.contention"),
	}
	e2e := total("sim.interval")
	resid := e2e
	for _, v := range parts {
		resid -= v
	}
	l["trace.residual_frac"] = resid / e2e
	o.report["reconcile"] = map[string]any{
		"unit":          "mean ms per interval of the traced mirror",
		"intervals":     len(m.intervals),
		"workers":       workers,
		"end_to_end_ms": e2e,
		"self_ms":       parts,
		"residual_ms":   resid,
		"residual_frac": resid / e2e,
	}
	o.report["tracing_overhead"] = map[string]any{
		"runner_interval_p50_ms": runnerP50, "traced_mirror_interval_p50_ms": mirrorP50,
		"note": "the mirror also runs each decision serially, as the runner does not",
	}
}
