package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"daasscale/internal/serve"
)

// opKind is what one scheduled request does.
type opKind uint8

const (
	opPost      opKind = iota // telemetry POST, one snapshot or a batch
	opBill                    // GET /bill
	opDecisions               // GET /decisions
)

// op is one request of an open-loop schedule. Its body is encoded during
// set-up, so the sender only writes bytes.
type op struct {
	due    time.Duration // send time, from the phase start
	kind   opKind
	tenant int
	lane   int // the sending goroutine and connection
	n      int // snapshots in a POST body
	// want is the expected reply: NextSeq for a POST, the record count
	// for a GET.
	want  int
	body  []byte
	trace bool // record spans for this request
}

// opResult is what the sender saw for one op.
type opResult struct {
	start, end time.Duration // send and full response, from the phase start
	// free reports that the op's lane was idle at its due time, so start
	// minus due is the generator's own lateness.
	free bool
	// next is the checked reply's NextSeq (POST); err is a transport
	// error or a reply other than the schedule predicts.
	next int
	err  error
	span uint64 // the request's http.request span (traced ops)
}

func (r opResult) latency(o op) time.Duration { return r.end - o.due }

// runOpenLoop sends ops on their schedule over lanes connections, one
// sending goroutine per lane (an op's lane is clamped to the lanes
// there are). A schedule keeps each tenant on one lane, so its requests
// arrive in order. Every request is timed from its due time, which
// counts the wait a stall imposes on later requests.
// It returns the results, index-aligned with ops, and the schedule's time
// zero.
func runOpenLoop(ctx context.Context, base string, ids []string, ops []op, lanes int, tr *tracer) ([]opResult, time.Time) {
	res := make([]opResult, len(ops))
	byLane := make([][]int, lanes)
	for i, o := range ops {
		l := min(o.lane, lanes-1)
		byLane[l] = append(byLane[l], i)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		idx := byLane[l]
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp}
			for _, i := range idx {
				if ctx.Err() != nil {
					res[i].err = ctx.Err()
					continue
				}
				o := ops[i]
				free := false
				if wait := o.due - time.Since(start); wait >= 0 {
					free = true
					time.Sleep(wait)
				}
				res[i] = send(ctx, client, base, ids[o.tenant], o, start, tr)
				res[i].free = free
			}
		}()
	}
	wg.Wait()
	return res, start
}

func send(ctx context.Context, client *http.Client, base, id string, o op, start time.Time, tr *tracer) opResult {
	var req *http.Request
	var err error
	switch o.kind {
	case opPost:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/tenants/"+id+"/telemetry", bytes.NewReader(o.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case opBill:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/tenants/"+id+"/bill", nil)
	default:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/tenants/"+id+"/decisions", nil)
	}
	if err != nil {
		return opResult{err: err}
	}
	var sp active
	if o.trace {
		sp = tr.begin("http.request", 0)
		req.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
	}
	r := opResult{start: time.Since(start), span: sp.id}
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		r.end = time.Since(start)
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Since(start)
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	// Checked now, after the clock stopped, so large read replies are not
	// kept until the run ends.
	r.next, r.err = replyCheck(o, resp.StatusCode, body)
	return r
}

// daemon is the real serving daemon behind a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startDaemon builds a Server from cfg and serves it on 127.0.0.1. wrap,
// when set, wraps the daemon's handler (the traced runs' spans).
func startDaemon(cfg serve.Config, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, waits for in-flight requests and the
// serve goroutine, then drains and closes the daemon's ledgers.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}
