package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's own calls into the
// program's packages: name, start, end and the span that caused it.
// Spans stay in memory until the run ends, when writeSpans dumps them.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

// span is one timed call. Parent is 0 for a root span.
type span struct {
	ID, Parent uint64
	Name       string
	Start, End int64 // ns since the tracer's epoch
}

// active is a span that has begun but not ended.
type active struct {
	id, parent uint64
	name       string
	start      int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// begin opens a span; the returned value is closed with end.
func (t *tracer) begin(name string, parent uint64) active {
	if t == nil {
		return active{}
	}
	return active{id: t.ids.Add(1), parent: parent, name: name, start: int64(time.Since(t.epoch))}
}

// end closes a span opened by begin.
func (t *tracer) end(a active) {
	if t == nil || a.id == 0 {
		return
	}
	s := span{ID: a.id, Parent: a.parent, Name: a.name, Start: a.start, End: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a counter at a layer boundary.
func (t *tracer) add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) count(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// layerStat summarizes the spans of one name.
type layerStat struct {
	Calls    int     `json:"calls"`
	MedianUs float64 `json:"median_us"`
	TotalMs  float64 `json:"total_ms"`
	// SelfMs is the total minus the time the span's direct children
	// cover.
	SelfMs float64 `json:"self_ms"`
}

// stats aggregates every span name: call count, median duration, total
// and self time.
func (t *tracer) stats() map[string]layerStat {
	out := map[string]layerStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make(map[uint64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	durs := map[string][]float64{}
	self := map[string]int64{}
	for _, s := range t.spans {
		d := s.End - s.Start
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
		self[s.Name] += d - childNs[s.ID]
	}
	for name, ds := range durs {
		var tot float64
		for _, d := range ds {
			tot += d
		}
		out[name] = layerStat{
			Calls:    len(ds),
			MedianUs: quantile(ds, 0.5),
			TotalMs:  tot / 1e3,
			SelfMs:   float64(self[name]) / 1e6,
		}
	}
	return out
}

// durationsUs returns the durations of every span with the given name, in
// microseconds.
func (t *tracer) durationsUs(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeSpans dumps every span, one per line, ordered by start:
// "id parent name start_ns end_ns".
func (t *tracer) writeSpans(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# id parent name start_ns end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d %d %s %d %d\n", s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
