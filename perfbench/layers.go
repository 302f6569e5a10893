package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"daasscale/internal/core"
	"daasscale/internal/exec"
	"daasscale/internal/fsio"
	"daasscale/internal/ledger"
	"daasscale/internal/loop"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/serve"
	"daasscale/internal/telemetry"
)

func us(s span) float64 { return float64(s.End-s.Start) / 1e3 }

// childIndex groups spans by parent.
func childIndex(spans []span) map[uint64][]span {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// steadyLayers derives serve-steady's per-layer metrics from the traced
// half of the window and from a replay of sampled tenants' streams
// through the loop and ledger, and reconciles them with the end-to-end
// time of a single-snapshot POST.
func steadyLayers(o *outcome, rc runConfig, in steadyInputs, res []opResult, fsys fsio.FS, untraced, traced []float64) error {
	tr := o.tr
	spans := tr.snapshot()
	kids := childIndex(spans)

	// Live spans of each traced single-snapshot request: the client round
	// trip, the daemon handler inside it, and the handler's children.
	var overhead []float64
	sums := map[string]float64{}
	n := 0
	for _, s := range spans {
		if s.Name != "http.request" {
			continue
		}
		var h span
		var dec float64
		for _, k := range kids[s.ID] {
			switch k.Name {
			case "serve.handler":
				h = k
			case "serve.decode":
				dec = us(k)
			}
		}
		if h.ID == 0 {
			continue
		}
		n++
		overhead = append(overhead, us(s)-us(h))
		sums["rtt"] += us(s)
		sums["http"] += us(s) - us(h)
		sums["serve.decode"] += dec
		for _, g := range kids[h.ID] {
			sums[g.Name] += us(g)
		}
	}
	if n == 0 {
		return fmt.Errorf("no traced single-snapshot request completed")
	}

	// Traced wall time and handler busy time.
	var from, to time.Duration = -1, 0
	for i, op := range in.ops {
		if !op.trace {
			continue
		}
		if from < 0 || op.due < from {
			from = op.due
		}
		if res[i].end > to {
			to = res[i].end
		}
	}
	var busy float64
	posts := 0
	for _, s := range spans {
		switch s.Name {
		case "serve.handler", "serve.handler_backfill":
			posts++
			busy += us(s)
		case "serve.handler_read", "serve.open":
			busy += us(s)
		}
	}

	// Replay every tenth tenant's stream through the same loop, policy and
	// ledger recorder the daemon builds, with spans around each call.
	seqs := map[int][]int{}
	for t := 0; t < steadyTenants; t += 10 {
		seqs[t] = []int{0}
	}
	for _, op := range in.ops {
		if s, ok := seqs[op.tenant]; ok && op.kind == opPost {
			for q := op.want - op.n; q < op.want; q++ {
				s = append(s, q)
			}
			seqs[op.tenant] = s
		}
	}
	o.check("layer replay reproduces the live ledgers", replayServeLayers(tr, rc.seed, in, seqs, fsys))
	var sampled []string
	for t := range seqs {
		sampled = append(sampled, in.ids[t])
	}
	perDec, bytesPerDec, _, err := timeLedgerReplay(tr, fsys, ledgerDir, sampled)
	if err != nil {
		return err
	}
	if err := timeDiskSync(tr, rc.work, fsys, filepath.Join(ledgerDir, sampled[0]+".ledger")); err != nil {
		return err
	}

	med := func(name string) float64 { return quantile(tr.durationsUs(name), 0.5) }
	avg := func(name string) float64 { return mean(tr.durationsUs(name)) }
	l := o.layers
	l["serve.decode_us"] = med("serve.decode")
	l["serve.handler_us"] = med("serve.handler")
	l["serve.http_overhead_us"] = quantile(overhead, 0.5)
	l["serve.busy_frac"] = busy / (float64(to-from) / 1e3)
	l["ledger.fsync_us"] = med("ledger.fsync")
	l["ledger.syncs_per_request"] = float64(len(tr.durationsUs("ledger.sync"))) / float64(posts)
	l["policy.decide_us"] = med("policy.decide")
	l["ledger.append_us"] = med("ledger.append")
	l["loop.step_snapshot_us"] = med("loop.step_snapshot")
	l["telemetry.signals_us"] = med("telemetry.signals")
	l["telemetry.sanitized"] = float64(tr.count("telemetry.sanitized"))
	l["ledger.replay_us_per_decision"] = perDec
	l["ledger.bytes_per_decision"] = bytesPerDec
	p50u, p50t := quantile(untraced, 0.5), quantile(traced, 0.5)
	l["trace.overhead_frac"] = (p50t - p50u) / p50u

	// Reconcile, in mean microseconds per single-snapshot request. Live
	// spans: the HTTP round trip outside the handler, the decode, the
	// policy decision, the ledger write and sync (to ramFS). From the
	// replay: the ledger append (encode and buffer) and the loop's own
	// work.
	fn := float64(n)
	parts := map[string]float64{
		"http (round trip - handler)": sums["http"] / fn,
		"serve.decode":                sums["serve.decode"] / fn,
		"policy.decide":               sums["policy.decide"] / fn,
		"ledger.write":                sums["ledger.write"] / fn,
		"ledger.sync (ramFS)":         sums["ledger.sync"] / fn,
		"ledger.append (replay)":      avg("ledger.append"),
		"loop self (replay)":          avg("loop.step_snapshot") - avg("policy.decide.replay") - avg("ledger.append"),
	}
	e2e := sums["rtt"] / fn
	resid := e2e
	for _, v := range parts {
		resid -= v
	}
	l["trace.residual_frac"] = resid / e2e
	o.report["reconcile"] = map[string]any{
		"unit":          "mean us per traced single-snapshot POST",
		"requests":      n,
		"end_to_end_us": e2e,
		"self_us":       parts,
		"residual_us":   resid,
		"residual_frac": resid / e2e,
	}
	o.report["tracing_overhead"] = map[string]any{
		"untraced_ingest_p50_ms": p50u, "traced_ingest_p50_ms": p50t,
		"untraced_samples": len(untraced), "traced_samples": len(traced),
	}
	return nil
}

// stateApplier is the daemon's substrate: it records the decided
// container and memory target.
type stateApplier struct {
	cur   resource.Container
	memMB float64
}

func (a *stateApplier) Apply(c resource.Container) error { a.cur = c; return nil }
func (a *stateApplier) Actual() resource.Container       { return a.cur }

// spanPolicy times a policy's decisions under the current step span.
type spanPolicy struct {
	policy.Policy
	tr     *tracer
	parent *uint64
}

func (p spanPolicy) Observe(s telemetry.Snapshot) policy.Decision {
	a := p.tr.begin("policy.decide.replay", *p.parent)
	d := p.Policy.Observe(s)
	p.tr.end(a)
	return d
}

// spanRecorder times the ledger append (AppendDecision+AppendLineItem).
type spanRecorder struct {
	rec    *ledger.Recorder
	tr     *tracer
	parent *uint64
}

func (r spanRecorder) Record(d loop.DecisionRecord) {
	a := r.tr.begin("ledger.append", *r.parent)
	r.rec.Record(d)
	r.tr.end(a)
}

// replayServeLayers steps each sampled tenant's accepted snapshots
// through a pipeline assembled as the daemon assembles it (default
// policy, sanitization, loop.StepSnapshot, ledger recorder), timing each
// layer, and requires the resulting ledgers to equal the live ones.
func replayServeLayers(tr *tracer, seed int64, in steadyInputs, seqs map[int][]int, live fsio.FS) error {
	mem := newRAMFS()
	if err := mem.MkdirAll("/layers", 0o755); err != nil {
		return err
	}
	cat := resource.DefaultCatalog()
	for t, ss := range seqs {
		id := in.ids[t]
		path := "/layers/" + id + ".ledger"
		w, err := ledger.OpenWriterFS(mem, path, ledger.WithSyncEvery(0))
		if err != nil {
			return err
		}
		ap := &stateApplier{cur: cat.Smallest()}
		sc, err := core.New(core.Config{Catalog: cat, Initial: ap.cur, Goal: core.LatencyGoal{Kind: core.GoalP95, Ms: serve.DefaultGoalMs}})
		if err != nil {
			return err
		}
		var cur uint64
		rec := &ledger.Recorder{W: w}
		lp := loop.New(loop.Config[resource.Container]{
			ID:   id,
			Seed: exec.SplitSeedString(seed, id),
			Decider: &loop.PolicyDecider{
				Policy:       spanPolicy{Policy: policy.NewAuto(sc), tr: tr, parent: &cur},
				MemoryTarget: func() float64 { return ap.memMB },
			},
			Applier:  ap,
			Recorder: spanRecorder{rec: rec, tr: tr, parent: &cur},
			Describe: loop.DescribeContainer,
		})
		mgr := telemetry.NewManager(5)
		var prev *telemetry.Snapshot
		for _, seq := range ss {
			snap := in.shapes[t].snapshot(seq)
			tr.add("telemetry.sanitized", int64(telemetry.SanitizeSnapshot(&snap, prev)))
			p := snap
			prev = &p
			a := tr.begin("telemetry.signals", 0)
			mgr.Observe(snap)
			mgr.Signals()
			tr.end(a)
			step := tr.begin("loop.step_snapshot", 0)
			cur = step.id
			err := lp.StepSnapshot(seq, snap, true)
			tr.end(step)
			if err != nil {
				return err
			}
			if err := rec.Err(); err != nil {
				return err
			}
			ap.memMB = lp.LastDecision().BalloonTargetMB
		}
		if err := w.Close(); err != nil {
			return err
		}
		got, err := mem.ReadFile(path)
		if err != nil {
			return err
		}
		want, err := live.ReadFile(filepath.Join(ledgerDir, id+".ledger"))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("tenant %s: replayed ledger (%d bytes) differs from the live one (%d bytes)", id, len(got), len(want))
		}
	}
	return nil
}

// timeLedgerReplay replays the given tenants' ledgers with
// ledger.ReplayFS and returns the time and bytes per decision, and each
// tenant's replay time.
func timeLedgerReplay(tr *tracer, fsys fsio.FS, dir string, ids []string) (usPerDecision, bytesPerDecision float64, each map[string]time.Duration, err error) {
	var decisions, size int64
	var total time.Duration
	each = make(map[string]time.Duration, len(ids))
	for _, id := range ids {
		path := filepath.Join(dir, id+".ledger")
		b, err := fsys.ReadFile(path)
		if err != nil {
			return 0, 0, nil, err
		}
		a := tr.begin("ledger.replay", 0)
		t0 := time.Now()
		log, err := ledger.ReplayFS(fsys, path)
		each[id] = time.Since(t0)
		tr.end(a)
		if err != nil {
			return 0, 0, nil, err
		}
		total += each[id]
		decisions += int64(len(log.Decisions()))
		size += int64(len(b))
	}
	if decisions == 0 {
		return 0, 0, nil, fmt.Errorf("no decisions to replay")
	}
	return float64(total) / 1e3 / float64(decisions), float64(size) / float64(decisions), each, nil
}

// diskSyncRecords is how many decisions timeDiskSync appends.
const diskSyncRecords = 200

// timeDiskSync times ledger.Writer.Sync on the real disk (the ledger.fsync
// spans): it appends a live ledger's decisions, each with its line item,
// to a ledger under dir and syncs after each one, as the daemon's default
// stride does per record.
func timeDiskSync(tr *tracer, dir string, fsys fsio.FS, from string) error {
	log, err := ledger.ReplayFS(fsys, from)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "fsync.ledger")
	w, err := ledger.OpenWriter(path, ledger.WithSyncEvery(0))
	if err != nil {
		return err
	}
	defer os.Remove(path)
	decs := log.Decisions()
	for i := 0; i < diskSyncRecords && len(decs) > 0; i++ {
		d := decs[i%len(decs)]
		if err := w.AppendDecision(d); err != nil {
			w.Close()
			return err
		}
		if err := w.AppendLineItem(ledger.LineItemFor(d)); err != nil {
			w.Close()
			return err
		}
		a := tr.begin("ledger.fsync", 0)
		err := w.Sync()
		tr.end(a)
		if err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
