package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is not modified). It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailSummary is a latency sample's median and one tail percentile, with
// the sample count and how many samples lie beyond the percentile.
type tailSummary struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailQ   float64 `json:"tail_q"`
	Beyond  int     `json:"beyond_tail"`
}

func summarize(xs []float64, tailQ float64) tailSummary {
	return tailSummary{
		Samples: len(xs),
		P50:     quantile(xs, 0.5),
		Tail:    quantile(xs, tailQ),
		TailQ:   tailQ,
		Beyond:  int(math.Floor(float64(len(xs)) * (1 - tailQ))),
	}
}

// heapSampler polls the live heap while a timed phase runs and keeps the
// peak. runtime/metrics reads do not stop the world, so polling does not
// perturb the measured work.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}

// hostInfo is the provenance every result carries.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// medianSeconds is the median of a list of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}
