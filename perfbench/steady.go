package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"daasscale/internal/fsio"
	"daasscale/internal/serve"
)

// serve-steady: 1000 warm tenants on the daemon's shipped defaults (one
// sync per record, to ramFS), driven open-loop at a fixed rate of about
// 40% of the two-connection closed-loop capacity for the same request
// mix (about 5000 requests/s on a 2-CPU Xeon VM, bound by the live
// connection).
const (
	steadyTenants  = 1000
	bulkTenants    = 50     // the tenants that backfill and are read
	steadyRate     = 2000.0 // requests per second
	steadyWarmup   = time.Second
	backfillLen    = 50
	setupReps      = 3
	heapSampleEach = 5 * time.Millisecond
	sliceLen       = 2 * time.Second
	ledgerDir      = "/ledgers" // on the daemon's ramFS
)

// steadyInputs is everything the run sends, generated from the seed.
type steadyInputs struct {
	ids    []string
	shapes []shape
	opens  []op // interval 0 of every tenant, sent during set-up
	ops    []op // the timed schedule: warm-up, then the measured window
}

// makeSteady builds the schedule: ~97% single-snapshot POSTs round-robin
// over the live tenants, ~2% 50-snapshot backfills and ~1% bill or
// decisions reads round-robin over the bulk tenants. Live traffic has
// one connection and bulk traffic the other, so a backfill never holds a
// live snapshot behind it in the sender. In a traced run the second half
// of the measured window is traced and the first half is not.
func makeSteady(seed int64, seconds float64, traced bool) steadyInputs {
	rng := rand.New(rand.NewSource(seed))
	in := steadyInputs{}
	next := make([]int, steadyTenants)
	for i := 0; i < steadyTenants; i++ {
		in.ids = append(in.ids, fmt.Sprintf("s%04d", i))
		sh := newShape(rng)
		in.shapes = append(in.shapes, sh)
		in.opens = append(in.opens, op{kind: opPost, tenant: i, lane: i % 2, n: 1, want: 1, body: singleBody(sh, 0)})
		next[i] = 1
	}
	const live = steadyTenants - bulkTenants
	liveOrder, bulkOrder := rng.Perm(live), rng.Perm(bulkTenants)
	var nLive, nBulk int
	measured := time.Duration(seconds * float64(time.Second))
	traceFrom := steadyWarmup + measured/2
	total := int((steadyWarmup + measured).Seconds() * steadyRate)
	for k := 0; k < total; k++ {
		o := op{due: time.Duration(float64(k) / steadyRate * float64(time.Second))}
		o.trace = traced && o.due >= traceFrom
		u := rng.Float64()
		if u < 0.97 {
			t := liveOrder[nLive%live]
			nLive++
			o.kind, o.tenant, o.n, o.body = opPost, t, 1, singleBody(in.shapes[t], next[t])
			next[t]++
			o.want = next[t]
			in.ops = append(in.ops, o)
			continue
		}
		t := live + bulkOrder[nBulk%bulkTenants]
		nBulk++
		o.tenant, o.lane = t, 1
		if u < 0.99 {
			o.kind, o.n, o.body = opPost, backfillLen, batchBody(in.shapes[t], next[t], backfillLen)
			next[t] += backfillLen
		} else {
			o.kind = opBill
			if rng.Intn(2) == 1 {
				o.kind = opDecisions
			}
		}
		o.want = next[t]
		in.ops = append(in.ops, o)
	}
	return in
}

func runSteady(ctx context.Context, rc runConfig) (*outcome, error) {
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	o := newOutcome(tr)

	// Set-up, timed several times: generate the inputs, start the daemon,
	// open every tenant. The last set-up is the one measured against.
	var (
		setups []time.Duration
		in     steadyInputs
		d      *daemon
		disk   *ramFS
	)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		disk = newRAMFS()
		in = makeSteady(rc.seed, rc.seconds, rc.trace)
		cfg := serve.Config{LedgerDir: ledgerDir, Seed: rc.seed, FS: disk}
		var wrap func(h http.Handler) http.Handler
		if rc.trace {
			st := newServeTrace(tr)
			cfg = st.config(cfg)
			wrap = st.wrap
		}
		var err error
		if d, err = startDaemon(cfg, wrap); err != nil {
			return nil, err
		}
		if err := openAll(ctx, d, in.ids, in.opens, rc.lanes); err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}

	runtime.GC()
	heap := startHeapSampler(heapSampleEach)
	res, _ := runOpenLoop(ctx, d.url, in.ids, in.ops, rc.lanes, tr)
	peak := heap.Stop()
	stopErr := d.stop()
	o.check("daemon shut down cleanly", stopErr)

	// Output checks: every reply is the predicted one, nothing acked was
	// lost, and the ledgers equal an in-process replay of the same
	// per-tenant streams byte for byte (so they are identical run to run).
	acked := map[string]int{}
	for _, op := range in.opens {
		acked[in.ids[op.tenant]] = 1
	}
	failed, first := checkReplies(in.ids, in.ops, res, acked)
	o.attempted, o.failed = int64(len(in.ops)), failed
	o.check("every reply acknowledged as scheduled", first)
	o.check("serve.VerifyLedgers: nothing acked lost", verifyAcked(disk, ledgerDir, acked))
	live, liveDigest, err := ledgerDigests(disk, ledgerDir, in.ids)
	if err == nil {
		var fs fsio.FS
		fs, err = replayIngest(serve.Config{LedgerDir: "/replay", Seed: rc.seed}, in.ids, in.opens, in.ops)
		if err == nil {
			var ref map[string]string
			if ref, _, err = ledgerDigests(fs, "/replay", in.ids); err == nil {
				err = sameLedgers(live, ref)
			}
		}
	}
	o.check("ledgers identical to an in-process replay", err)
	o.report["ledger_digest"] = liveDigest

	// End-to-end figures from the untraced part of the measured window.
	// The single-snapshot figures are medians over slices of the window
	// (each slice's p50 and p90), so a few seconds of host noise move
	// them less than pooled quantiles would.
	var single, backfill, read, tracedSingle, lag []float64
	var slices [][]float64
	for i, op := range in.ops {
		r := res[i]
		if op.due < steadyWarmup || r.err != nil {
			continue
		}
		ms := float64(r.latency(op)) / 1e6
		if r.free {
			lag = append(lag, float64(r.start-op.due)/1e6)
		}
		switch {
		case op.trace && op.kind == opPost && op.n == 1:
			tracedSingle = append(tracedSingle, ms)
		case op.trace:
		case op.kind != opPost:
			read = append(read, ms)
		case op.n == 1:
			single = append(single, ms)
			k := int((op.due - steadyWarmup) / sliceLen)
			for len(slices) <= k {
				slices = append(slices, nil)
			}
			slices[k] = append(slices[k], ms)
		default:
			backfill = append(backfill, ms)
		}
	}
	var p50s, p90s []float64
	for _, sl := range slices {
		if s := summarize(sl, 0.90); s.Beyond >= 10 {
			p50s = append(p50s, s.P50)
			p90s = append(p90s, s.Tail)
		}
	}
	ingest99 := summarize(single, 0.99)
	o.check("ingest p99 has at least 10 samples beyond it", enoughTail(ingest99))
	o.check("every slice's p90 has at least 10 samples beyond it", errIf(len(p50s) == 0 || len(p50s) < len(slices)-1, "%d of %d slices usable", len(p50s), len(slices)))
	p50, p90 := quantile(p50s, 0.5), quantile(p90s, 0.5)
	setupS := medianSeconds(setups)
	o.e2e["setup_s"] = setupS
	o.e2e["peak_heap_mb"] = peak
	o.e2e["op_p50_ms"] = p50
	o.e2e["op_tail_ms"] = p90
	o.named("setup_s", setupS, "s")
	o.named("peak_heap_mb", peak, "MB")
	o.named("error_ratio", float64(failed)/float64(len(in.ops)), "ratio")
	o.named("ingest_p50_ms", p50, "ms")
	o.named("ingest_p90_ms", p90, "ms")
	o.named("ingest_p99_ms", ingest99.Tail, "ms")
	o.named("backfill_p50_ms", quantile(backfill, 0.5), "ms")
	o.named("read_p50_ms", quantile(read, 0.5), "ms")
	o.report["samples"] = map[string]any{
		"ingest": ingest99, "slices": len(slices), "slice_p50_ms": p50s, "slice_p90_ms": p90s,
		"backfill": len(backfill), "read": len(read), "lag": len(lag), "setup_s": setups,
	}
	o.layers["loadgen.lag_p99_ms"] = quantile(lag, 0.99)

	if rc.trace {
		if err := steadyLayers(o, rc, in, res, disk, single, tracedSingle); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// enoughTail fails unless at least ten samples lie beyond the tail
// percentile.
func enoughTail(s tailSummary) error {
	if s.Beyond < 10 {
		return fmt.Errorf("%d samples leave only %d beyond the %g quantile", s.Samples, s.Beyond, s.TailQ)
	}
	return nil
}
