package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"daasscale/internal/core"
	"daasscale/internal/fsio"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/serve"
	"daasscale/internal/telemetry"
)

// spanHeader carries the sender's request span to the daemon wrapper, so
// the daemon-side spans of a request hang under the client's.
const spanHeader = "X-Bench-Span"

// serveTrace times the daemon from outside it, at the three seams its
// public API offers: the HTTP handler, the ledger filesystem (fsio.FS)
// and the tenant policy (Config.NewPolicy). Only requests that carry a
// span header are traced; a tenant's filesystem and policy calls are
// attributed to the tenant's in-flight traced request.
type serveTrace struct {
	tr *tracer

	mu   sync.Mutex
	cur  map[string]uint64 // tenant → open handler span
	seen map[string]bool   // tenants the daemon has been asked about
	// opened is each tenant's first-touch handler time (traced requests).
	opened map[string]time.Duration
}

func newServeTrace(tr *tracer) *serveTrace {
	return &serveTrace{tr: tr, cur: map[string]uint64{}, seen: map[string]bool{}, opened: map[string]time.Duration{}}
}

func (st *serveTrace) current(tenant string) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cur[tenant]
}

// config returns the daemon config with the filesystem and policy seams
// traced. The policy is built exactly as the daemon's default is.
func (st *serveTrace) config(cfg serve.Config) serve.Config {
	cfg.FS = tracedFS{FS: cfg.FS, st: st}
	cat := resource.DefaultCatalog()
	cfg.NewPolicy = func(id string, initial resource.Container) (policy.Policy, error) {
		sc, err := core.New(core.Config{
			Catalog: cat,
			Initial: initial,
			Goal:    core.LatencyGoal{Kind: core.GoalP95, Ms: serve.DefaultGoalMs},
		})
		if err != nil {
			return nil, err
		}
		return &tracedPolicy{Policy: policy.NewAuto(sc), st: st, tenant: id}, nil
	}
	return cfg
}

// tenantOfPath extracts the tenant ID from /v1/tenants/{id}/...
func tenantOfPath(p string) string {
	rest, ok := strings.CutPrefix(p, "/v1/tenants/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// wrap returns the traced handler. A traced POST body is first decoded
// into the wire schema on its own (the serve.decode span), then handed
// to the daemon unchanged.
func (st *serveTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant := tenantOfPath(r.URL.Path)
		st.mu.Lock()
		first := tenant != "" && !st.seen[tenant]
		st.seen[tenant] = true
		st.mu.Unlock()
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		name := "serve.handler_read"
		if r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			r.Body.Close()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			d := st.tr.begin("serve.decode", parent)
			var req wireRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			_ = dec.Decode(&req) // the daemon's own decode reports errors
			name = "serve.handler"
			if len(req.Batch) > 0 {
				d.name = "serve.decode_backfill"
				name = "serve.handler_backfill"
			}
			st.tr.end(d)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		if first {
			name = "serve.open"
		}
		a := st.tr.begin(name, parent)
		st.mu.Lock()
		st.cur[tenant] = a.id
		st.mu.Unlock()
		t0 := time.Now()
		h.ServeHTTP(w, r)
		took := time.Since(t0)
		st.mu.Lock()
		delete(st.cur, tenant)
		if first {
			st.opened[tenant] = took
		}
		st.mu.Unlock()
		st.tr.end(a)
	})
}

// ledgerTenant maps a ledger segment path to its tenant ID.
func ledgerTenant(path string) string {
	base := filepath.Base(path)
	if i := strings.Index(base, ".ledger"); i > 0 {
		return base[:i]
	}
	return ""
}

// tracedFS times ledger reads, writes and syncs.
type tracedFS struct {
	fsio.FS
	st *serveTrace
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, st: f.st, tenant: ledgerTenant(name)}, nil
}

func (f tracedFS) ReadFile(name string) ([]byte, error) {
	a := f.st.tr.begin("ledger.read", f.st.current(ledgerTenant(name)))
	if a.parent == 0 {
		return f.FS.ReadFile(name)
	}
	b, err := f.FS.ReadFile(name)
	f.st.tr.end(a)
	return b, err
}

type tracedFile struct {
	fsio.File
	st     *serveTrace
	tenant string
}

func (f *tracedFile) Write(p []byte) (int, error) {
	parent := f.st.current(f.tenant)
	if parent == 0 {
		return f.File.Write(p)
	}
	a := f.st.tr.begin("ledger.write", parent)
	n, err := f.File.Write(p)
	f.st.tr.end(a)
	return n, err
}

func (f *tracedFile) Sync() error {
	parent := f.st.current(f.tenant)
	if parent == 0 {
		return f.File.Sync()
	}
	a := f.st.tr.begin("ledger.sync", parent)
	err := f.File.Sync()
	f.st.tr.end(a)
	return err
}

// tracedPolicy times the decision: policy.decide covers the auto-scaler's
// telemetry window update, its signals and its rules.
type tracedPolicy struct {
	policy.Policy
	st     *serveTrace
	tenant string
}

func (p *tracedPolicy) Observe(s telemetry.Snapshot) policy.Decision {
	parent := p.st.current(p.tenant)
	if parent == 0 {
		return p.Policy.Observe(s)
	}
	a := p.st.tr.begin("policy.decide", parent)
	d := p.Policy.Observe(s)
	p.st.tr.end(a)
	return d
}
