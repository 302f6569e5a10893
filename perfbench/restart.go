package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"daasscale/internal/fsio"
	"daasscale/internal/ledger"
	"daasscale/internal/serve"
)

// serve-restart: a fresh daemon opens a ledger directory with uneven
// histories. Every returning tenant is due to send its next snapshot
// within the first second after the restart (then one a second); hot
// tenants with short histories stream throughout. Opening the returning
// ledgers keeps the daemon about a quarter busy over that second, so a
// reopen's latency is mostly its own open plus the few it waits behind. The
// daemon restarts every restartWindow on the same directory, so one run
// measures several restarts.
const (
	returningTenants = 30
	hotTenants       = 50
	minHistory       = 100
	maxHistory       = 4000
	hotRate          = 10.0 // snapshots per second per hot tenant
	returningEvery   = time.Second
	restartWindow    = 1500 * time.Millisecond
	// historyStride spreads history strata over the burst; coprime with
	// returningTenants, so it permutes the strata.
	historyStride = 13
)

type restartInputs struct {
	ids     []string // returning tenants first, then hot ones
	shapes  []shape
	history []int  // intervals decided before the first restart
	hist    []op   // set-up: the histories, in 50-snapshot batches
	rounds  [][]op // each restart's schedule, single snapshots by due time
}

func (in restartInputs) returning(t int) bool { return t < returningTenants }

// makeRestart draws the inputs for rounds restarts. Returning tenant t
// is the t-th due in each restart's first second, and its history is
// log-uniform over [minHistory, maxHistory], drawn within stratum
// (t*historyStride) mod 30: long and short histories interleave evenly
// over the burst, so the burst's shape (and the total history) varies
// little between seeds while every history length is the seed's. Hot
// tenants have 10–30 decisions.
func makeRestart(seed int64, rounds int) restartInputs {
	rng := rand.New(rand.NewSource(seed))
	in := restartInputs{}
	for t := 0; t < returningTenants+hotTenants; t++ {
		sh := newShape(rng)
		var id string
		var h int
		if t < returningTenants {
			id = fmt.Sprintf("r%03d", t)
			stratum := (t * historyStride) % returningTenants
			u := (float64(stratum) + rng.Float64()) / returningTenants
			h = int(math.Round(minHistory * math.Pow(maxHistory/minHistory, u)))
		} else {
			id = fmt.Sprintf("h%03d", t-returningTenants)
			h = 10 + rng.Intn(21)
		}
		in.ids = append(in.ids, id)
		in.shapes = append(in.shapes, sh)
		in.history = append(in.history, h)
		for s := 0; s < h; s += backfillLen {
			n := min(backfillLen, h-s)
			in.hist = append(in.hist, op{kind: opPost, tenant: t, lane: t % 2, n: n, want: s + n, body: batchBody(sh, s, n)})
		}
	}
	next := append([]int(nil), in.history...)
	for r := 0; r < rounds; r++ {
		var round []op
		for t := range in.ids {
			var due, every time.Duration
			if in.returning(t) {
				due = time.Duration((float64(t) + rng.Float64()) / returningTenants * float64(time.Second))
				every = returningEvery
			} else {
				every = time.Duration(float64(time.Second) / hotRate)
				due = time.Duration(rng.Float64() * float64(every))
			}
			for ; due < restartWindow; due += every {
				round = append(round, op{due: due, kind: opPost, tenant: t, lane: t % 2, n: 1, want: next[t] + 1, body: singleBody(in.shapes[t], next[t])})
				next[t]++
			}
		}
		sort.SliceStable(round, func(i, j int) bool { return round[i].due < round[j].due })
		in.rounds = append(in.rounds, round)
	}
	return in
}

// restartSetup builds the pre-restart ledgers and the uninterrupted
// reference: one daemon ingests every history, its ledgers are copied to
// each of dirs on disk, then the same daemon, never restarted, ingests
// every round. It returns, per tenant, the encoded decisions the
// uninterrupted daemon made after the first restart point.
func restartSetup(seed int64, in restartInputs, disk fsio.FS, dirs []string) ([][][]byte, error) {
	mem := newRAMFS()
	srv, err := serve.New(serve.Config{LedgerDir: "/ref", Seed: seed, FS: mem, SyncEvery: -1})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if err := feed(h, in.ids, in.hist); err != nil {
		srv.Close()
		return nil, err
	}
	for _, dir := range dirs {
		if err := copyLedgers(mem, "/ref", disk, dir, in.ids); err != nil {
			srv.Close()
			return nil, err
		}
	}
	err = feed(h, in.ids, in.rounds...)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return postRestartDecisions(mem, "/ref", in)
}

// copyLedgers copies the tenants' ledgers from src to a new directory
// on dst.
func copyLedgers(src fsio.FS, from string, dst fsio.FS, dir string, ids []string) error {
	if err := dst.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, id := range ids {
		b, err := src.ReadFile(filepath.Join(from, id+".ledger"))
		if err != nil {
			return err
		}
		f, err := dst.OpenFile(filepath.Join(dir, id+".ledger"), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		_, err = f.Write(b)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// postRestartDecisions reads each tenant's decisions at or after its
// first restart point, encoded.
func postRestartDecisions(fsys fsio.FS, dir string, in restartInputs) ([][][]byte, error) {
	out := make([][][]byte, len(in.ids))
	for t, id := range in.ids {
		log, err := ledger.ReplayFS(fsys, filepath.Join(dir, id+".ledger"))
		if err != nil {
			return nil, err
		}
		for _, d := range log.Decisions() {
			if d.Interval >= in.history[t] {
				out[t] = append(out[t], ledger.EncodeDecision(&d))
			}
		}
	}
	return out, nil
}

// restartRound is one restart: a fresh daemon on the directory and one
// round's schedule open-loop against it.
type restartRound struct {
	ops       []op
	res       []opResult
	restartAt time.Time // before serve.New
	loopStart time.Time // the schedule's time zero
	peakMB    float64
	st        *serveTrace
	stopErr   error
}

func runRestartRound(ctx context.Context, rc runConfig, in restartInputs, ops []op, disk fsio.FS, dir string, tr *tracer) (restartRound, error) {
	cfg := serve.Config{LedgerDir: dir, Seed: rc.seed, FS: disk}
	var wrap func(http.Handler) http.Handler
	p := restartRound{ops: ops}
	if tr != nil {
		p.st = newServeTrace(tr)
		cfg = p.st.config(cfg)
		wrap = p.st.wrap
		p.ops = append([]op(nil), ops...)
		for i := range p.ops {
			p.ops[i].trace = true
		}
	}
	runtime.GC()
	heap := startHeapSampler(heapSampleEach)
	p.restartAt = time.Now()
	d, err := startDaemon(cfg, wrap)
	if err != nil {
		heap.Stop()
		return p, err
	}
	p.res, p.loopStart = runOpenLoop(ctx, d.url, in.ids, p.ops, rc.lanes, tr)
	p.peakMB = heap.Stop()
	p.stopErr = d.stop()
	return p, nil
}

// restartFigures are one restart's latency figures.
type restartFigures struct {
	reopen, hot, lag []float64 // ms
	catchup          float64   // s
	firstOp          []int     // index of each returning tenant's first post
}

func (p restartRound) figures(in restartInputs) restartFigures {
	f := restartFigures{firstOp: make([]int, returningTenants)}
	for t := range f.firstOp {
		f.firstOp[t] = -1
	}
	offset := p.loopStart.Sub(p.restartAt)
	for i, o := range p.ops {
		r := p.res[i]
		if r.err != nil {
			continue
		}
		if r.free {
			f.lag = append(f.lag, float64(r.start-o.due)/1e6)
		}
		ms := float64(r.latency(o)) / 1e6
		switch {
		case !in.returning(o.tenant):
			f.hot = append(f.hot, ms)
		case f.firstOp[o.tenant] < 0:
			f.firstOp[o.tenant] = i
			f.reopen = append(f.reopen, ms)
			f.catchup = math.Max(f.catchup, (offset + r.end).Seconds())
		}
	}
	return f
}

func runRestart(ctx context.Context, rc runConfig) (*outcome, error) {
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	o := newOutcome(tr)
	rounds := max(1, int(rc.seconds*float64(time.Second)/float64(restartWindow)))
	// A traced run restarts untraced for the first half of its rounds and
	// traced for the rest.
	untracedRounds := rounds
	if rc.trace {
		rounds = max(2, rounds)
		untracedRounds = rounds / 2
	}

	var (
		setups []time.Duration
		in     restartInputs
		ref    [][][]byte
		disk   *ramFS
	)
	const live, pristine = "/live", "/pristine"
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		in = makeRestart(rc.seed, rounds)
		disk = newRAMFS()
		var err error
		if ref, err = restartSetup(rc.seed, in, disk, []string{live, pristine}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	in.hist = nil // the histories are on disk; do not count them in the daemon's heap

	var runs []restartRound
	for r, ops := range in.rounds {
		var rtr *tracer
		if r >= untracedRounds {
			rtr = tr
		}
		p, err := runRestartRound(ctx, rc, in, ops, disk, live, rtr)
		if err != nil {
			return nil, err
		}
		o.check(fmt.Sprintf("restart %d: daemon shut down cleanly", r), p.stopErr)
		runs = append(runs, p)
	}

	// Output checks: the predicted replies, nothing acked lost across the
	// restarts, and ledgers identical to the same restarts of a pristine
	// copy fed in-process (so they are identical run to run).
	acked := map[string]int{}
	for t, id := range in.ids {
		acked[id] = in.history[t]
	}
	var firstErr error
	for _, p := range runs {
		failed, first := checkReplies(in.ids, p.ops, p.res, acked)
		o.attempted += int64(len(p.ops))
		o.failed += failed
		if firstErr == nil {
			firstErr = first
		}
	}
	o.check("every reply acknowledged as scheduled", firstErr)
	o.check("serve.VerifyLedgers: nothing acked lost across the restarts", verifyAcked(disk, live, acked))
	liveSums, digest, err := ledgerDigests(disk, live, in.ids)
	for _, ops := range in.rounds {
		if err == nil {
			_, err = replayIngest(serve.Config{LedgerDir: pristine, Seed: rc.seed, FS: disk}, in.ids, ops)
		}
	}
	if err == nil {
		var again map[string]string
		if again, _, err = ledgerDigests(disk, pristine, in.ids); err == nil {
			err = sameLedgers(liveSums, again)
		}
	}
	o.check("ledgers identical to in-process restarts", err)
	o.report["ledger_digest"] = digest

	// The restart defect as a count: post-restart decisions that differ
	// from the uninterrupted daemon's. Reported, not gated.
	divergent, compared, err := divergence(disk, live, in, ref)
	o.check("post-restart decisions comparable with the reference", err)

	// End-to-end figures from the untraced restarts, pooled.
	var reopen, hot, lag, catchups, peaks []float64
	for _, p := range runs[:untracedRounds] {
		f := p.figures(in)
		reopen = append(reopen, f.reopen...)
		hot = append(hot, f.hot...)
		lag = append(lag, f.lag...)
		catchups = append(catchups, f.catchup)
		peaks = append(peaks, p.peakMB)
	}
	reopenS := summarize(reopen, 0.90)
	o.check("reopen p90 has at least 10 samples beyond it", enoughTail(reopenS))
	hotS := summarize(hot, 0.99)
	o.check("hot-set ingest p99 has at least 10 samples beyond it", enoughTail(hotS))
	setupS := medianSeconds(setups)
	peak := quantile(peaks, 1)
	o.e2e["setup_s"] = setupS
	o.e2e["peak_heap_mb"] = peak
	o.e2e["op_p50_ms"] = reopenS.P50
	o.e2e["op_tail_ms"] = reopenS.Tail
	o.named("setup_s", setupS, "s")
	o.named("peak_heap_mb", peak, "MB")
	o.named("error_ratio", float64(o.failed)/float64(o.attempted), "ratio")
	o.named("ingest_p50_ms", hotS.P50, "ms")
	o.named("ingest_p99_ms", hotS.Tail, "ms")
	o.named("reopen_p50_ms", reopenS.P50, "ms")
	o.named("reopen_p90_ms", reopenS.Tail, "ms")
	o.named("catchup_s", quantile(catchups, 0.5), "s")
	o.named("restart_divergent_decisions", float64(divergent), "count")
	totalHist := 0
	for _, h := range in.history {
		totalHist += h
	}
	o.report["samples"] = map[string]any{
		"restarts": untracedRounds, "reopen": reopenS, "hot_ingest": hotS, "lag": len(lag),
		"catchup_per_restart_s": catchups,
		"setup_s":               setups, "history_decisions": totalHist, "post_restart_compared": compared,
	}
	o.layers["serve.restart_divergent_decisions"] = float64(divergent)
	o.layers["loadgen.lag_p99_ms"] = quantile(lag, 0.99)

	if rc.trace {
		if err := restartLayers(o, rc, in, runs[untracedRounds:], disk, live, reopenS.P50); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// divergence counts post-restart decisions that differ from the
// uninterrupted reference's, and how many were compared.
func divergence(fsys fsio.FS, dir string, in restartInputs, ref [][][]byte) (divergent, compared int, err error) {
	got, err := postRestartDecisions(fsys, dir, in)
	if err != nil {
		return 0, 0, err
	}
	for t := range got {
		if len(got[t]) != len(ref[t]) {
			return 0, 0, fmt.Errorf("tenant %s: %d post-restart decisions, reference has %d", in.ids[t], len(got[t]), len(ref[t]))
		}
		for i := range got[t] {
			compared++
			if !bytes.Equal(got[t][i], ref[t][i]) {
				divergent++
			}
		}
	}
	return divergent, compared, nil
}

// restartLayers derives the per-layer metrics from the traced restarts
// and reconciles a returning tenant's first POST after a restart.
func restartLayers(o *outcome, rc runConfig, in restartInputs, traced []restartRound, disk fsio.FS, dir string, untracedP50 float64) error {
	tr := o.tr
	spans := tr.snapshot()
	kids := childIndex(spans)
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}

	var returning []string
	for t := 0; t < returningTenants; t++ {
		returning = append(returning, in.ids[t])
	}
	perDec, bytesPerDec, replayed, err := timeLedgerReplay(tr, disk, dir, returning)
	if err != nil {
		return err
	}
	if err := timeDiskSync(tr, rc.work, disk, filepath.Join(dir, returning[0]+".ledger")); err != nil {
		return err
	}

	// Reconcile each returning tenant's first POST (due to reply): time
	// queued in the sender, the HTTP round trip outside the handler, the
	// first-touch handler's traced children, and its ledger decoding as
	// timed by replaying the same ledger afterwards (ledger.ReplayFS less
	// the live read). What remains inside the handler — rebuilding the
	// pipeline, scanning the segment for a torn tail, waiting on the
	// server lock — is the unattributed residual.
	parts := map[string]float64{}
	var e2e, wallUs float64
	var open, reopen []float64
	n := 0
	for _, p := range traced {
		f := p.figures(in)
		reopen = append(reopen, f.reopen...)
		var end time.Duration
		for _, r := range p.res {
			end = max(end, r.end)
		}
		wallUs += float64(end) / 1e3
		for t, i := range f.firstOp {
			if i < 0 || p.res[i].err != nil {
				continue
			}
			r, op := p.res[i], p.ops[i]
			req, ok := byID[r.span]
			if !ok {
				continue
			}
			var h span
			for _, k := range kids[req.ID] {
				if k.Name == "serve.open" {
					h = k
				}
			}
			if h.ID == 0 {
				continue
			}
			n++
			open = append(open, float64(p.st.opened[in.ids[t]])/1e6)
			e2e += float64(r.latency(op)) / 1e3
			parts["sender queue (send - due)"] += float64(r.start-op.due) / 1e3
			parts["http (round trip - handler)"] += us(req) - us(h)
			var read float64
			for _, g := range kids[h.ID] {
				parts["open: "+g.Name] += us(g)
				if g.Name == "ledger.read" {
					read += us(g)
				}
			}
			parts["open: frame decode (replayed)"] += max(0, float64(replayed[in.ids[t]])/1e3-read)
		}
	}
	if n == 0 {
		return fmt.Errorf("no traced reopen completed")
	}
	resid := e2e
	for k := range parts {
		resid -= parts[k]
		parts[k] /= float64(n)
	}
	e2e /= float64(n)
	resid /= float64(n)

	var busy float64
	posts := 0
	var overhead []float64
	for _, s := range spans {
		switch s.Name {
		case "serve.handler", "serve.open":
			posts++
			busy += us(s)
		case "http.request":
			for _, k := range kids[s.ID] {
				if k.Name == "serve.handler" {
					overhead = append(overhead, us(s)-us(k))
				}
			}
		}
	}

	med := func(name string) float64 { return quantile(tr.durationsUs(name), 0.5) }
	l := o.layers
	l["serve.open_ms"] = quantile(open, 0.5)
	l["serve.decode_us"] = med("serve.decode")
	l["serve.handler_us"] = med("serve.handler")
	l["serve.http_overhead_us"] = quantile(overhead, 0.5)
	l["serve.busy_frac"] = busy / wallUs
	l["ledger.fsync_us"] = med("ledger.fsync")
	l["ledger.syncs_per_request"] = float64(len(tr.durationsUs("ledger.sync"))) / float64(posts)
	l["policy.decide_us"] = med("policy.decide")
	l["ledger.replay_us_per_decision"] = perDec
	l["ledger.bytes_per_decision"] = bytesPerDec
	p50t := quantile(reopen, 0.5)
	l["trace.overhead_frac"] = (p50t - untracedP50) / untracedP50
	l["trace.residual_frac"] = resid / e2e
	o.report["reconcile"] = map[string]any{
		"unit":          "mean us per returning tenant's first POST after a restart, from its due time",
		"requests":      n,
		"end_to_end_us": e2e,
		"self_us":       parts,
		"residual_us":   resid,
		"residual_frac": resid / e2e,
	}
	o.report["tracing_overhead"] = map[string]any{
		"untraced_reopen_p50_ms": untracedP50, "traced_reopen_p50_ms": p50t, "traced_restarts": len(traced),
	}
	return nil
}
