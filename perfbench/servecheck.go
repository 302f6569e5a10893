package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"daasscale/internal/fsio"
	"daasscale/internal/serve"
)

// replyCheck verifies one op's reply: a 200 whose NextSeq (POST) or
// record count (GET) is the one the schedule predicts. It returns the
// acknowledged NextSeq of a POST (0 otherwise).
func replyCheck(o op, status int, body []byte) (next int, err error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	switch o.kind {
	case opPost:
		var rep struct {
			NextSeq  int `json:"next_seq"`
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return 0, fmt.Errorf("decoding ingest reply: %w", err)
		}
		if rep.NextSeq != o.want || rep.Accepted != o.n {
			return 0, fmt.Errorf("ingest reply next_seq %d accepted %d, want %d and %d", rep.NextSeq, rep.Accepted, o.want, o.n)
		}
		return rep.NextSeq, nil
	case opBill:
		var rep struct {
			LineItems []json.RawMessage `json:"line_items"`
			TotalCost float64           `json:"total_cost"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return 0, fmt.Errorf("decoding bill: %w", err)
		}
		if len(rep.LineItems) != o.want || rep.TotalCost <= 0 {
			return 0, fmt.Errorf("bill has %d items costing %g, want %d items", len(rep.LineItems), rep.TotalCost, o.want)
		}
	default:
		var rep struct {
			Decisions []struct {
				Interval int
			} `json:"decisions"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return 0, fmt.Errorf("decoding decisions: %w", err)
		}
		if n := len(rep.Decisions); n != o.want || (n > 0 && rep.Decisions[n-1].Interval != n-1) {
			return 0, fmt.Errorf("decisions reply has %d records, want %d", n, o.want)
		}
	}
	return 0, nil
}

// checkReplies checks every reply, records each tenant's acknowledged
// NextSeq into acked and returns the failures and the first error.
func checkReplies(ids []string, ops []op, res []opResult, acked map[string]int) (failed int64, first error) {
	for i, o := range ops {
		next, err := res[i].next, res[i].err
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("%s op %d: %w", ids[o.tenant], i, err)
			}
			continue
		}
		if next > acked[ids[o.tenant]] {
			acked[ids[o.tenant]] = next
		}
	}
	return failed, first
}

// verifyAcked runs the daemon's own crash-consistency verifier over a
// ledger directory and also requires that no tenant holds a decision
// beyond what was acknowledged.
func verifyAcked(fsys fsio.FS, dir string, acked map[string]int) error {
	checks, err := serve.VerifyLedgers(fsys, dir, acked)
	if err != nil {
		return err
	}
	if len(checks) != len(acked) {
		return fmt.Errorf("%d ledgers on disk for %d acknowledged tenants", len(checks), len(acked))
	}
	for _, c := range checks {
		if c.Decisions != acked[c.Tenant] {
			return fmt.Errorf("tenant %s: %d decisions on disk, %d acknowledged", c.Tenant, c.Decisions, acked[c.Tenant])
		}
	}
	return nil
}

// replayIngest feeds the POST ops, in schedule order per tenant, through
// a fresh in-process daemon and closes it. Per-tenant decisions do not
// depend on other tenants or on timing, so its ledgers must equal a live
// run's byte for byte. The daemon runs on cfg.FS (a fresh ramFS when
// nil), which is returned.
func replayIngest(cfg serve.Config, ids []string, batches ...[]op) (fsio.FS, error) {
	if cfg.FS == nil {
		cfg.FS = newRAMFS()
	}
	cfg.SyncEvery = -1 // ledger bytes do not depend on the sync stride
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	err = feed(srv.Handler(), ids, batches...)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return cfg.FS, err
}

// feed sends the POST ops straight to a handler, two tenants' streams at
// a time, and checks every reply.
func feed(h http.Handler, ids []string, batches ...[]op) error {
	const workers = 2
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ops := range batches {
				for _, o := range ops {
					if o.kind != opPost || o.tenant%workers != w || errs[w] != nil {
						continue
					}
					req := httptest.NewRequest(http.MethodPost, "/v1/tenants/"+ids[o.tenant]+"/telemetry", bytes.NewReader(o.body))
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, req)
					if _, err := replyCheck(o, rr.Code, rr.Body.Bytes()); err != nil {
						errs[w] = fmt.Errorf("feeding %s: %w", ids[o.tenant], err)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ledgerDigests hashes each tenant's ledger file and returns the
// per-tenant digests and one digest over all of them.
func ledgerDigests(fsys fsio.FS, dir string, ids []string) (map[string]string, string, error) {
	out := make(map[string]string, len(ids))
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	all := sha256.New()
	for _, id := range sorted {
		b, err := fsys.ReadFile(filepath.Join(dir, id+".ledger"))
		if err != nil {
			return nil, "", err
		}
		sum := sha256.Sum256(b)
		out[id] = hex.EncodeToString(sum[:])
		fmt.Fprintf(all, "%s %s\n", id, out[id])
	}
	return out, hex.EncodeToString(all.Sum(nil))[:16], nil
}

// sameLedgers compares two directories' per-tenant digests.
func sameLedgers(a, b map[string]string) error {
	for id, d := range a {
		if b[id] != d {
			return fmt.Errorf("tenant %s ledger differs between the live run and the in-process replay", id)
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d ledgers", len(a), len(b))
	}
	return nil
}

// openAll opens every tenant with its first snapshot, closed-loop over
// the lanes, and fails unless every open is acknowledged.
func openAll(ctx context.Context, d *daemon, ids []string, opens []op, lanes int) error {
	res, _ := runOpenLoop(ctx, d.url, ids, opens, lanes, nil)
	for i, o := range opens {
		if err := res[i].err; err != nil {
			return fmt.Errorf("opening tenant %s: %w", ids[o.tenant], err)
		}
	}
	return nil
}

// removeAll deletes a work directory, reporting failures on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
