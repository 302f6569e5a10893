package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// shape is one tenant's synthetic load curve: a sinusoid around level
// wide enough that the p95 crosses the 100 ms goal, so the auto-scaler
// changes containers over a stream. Drawn from the workload seed.
type shape struct {
	phase, level, amp, period float64
}

func newShape(rng *rand.Rand) shape {
	return shape{
		phase:  rng.Float64() * 2 * math.Pi,
		level:  60 + rng.Float64()*40,
		amp:    30 + rng.Float64()*40,
		period: 3 + rng.Float64()*6,
	}
}

// snapshot is interval i of the tenant's telemetry.
func (sh shape) snapshot(i int) telemetry.Snapshot {
	load := math.Max(5, sh.level+sh.amp*math.Sin(float64(i)/sh.period+sh.phase))
	util := math.Min(0.95, 0.3+0.4*(load/140))
	return telemetry.Snapshot{
		Interval:        i,
		Container:       "B2",
		Step:            2,
		Cost:            2,
		Utilization:     resource.Vector{util, util * 0.8, util * 0.5, util * 0.3},
		UtilizationPeak: resource.Vector{util * 1.2, util, util * 0.7, util * 0.4},
		WaitMs: [telemetry.NumWaitClasses]float64{
			load * 12, load * 5, load * 3, load, 40, 10, 5,
		},
		AvgLatencyMs:   20 + load/4,
		P95LatencyMs:   60 + load,
		Transactions:   load * 300,
		OfferedRPS:     load,
		MemoryUsedMB:   700 + load,
		PhysicalReads:  load * 8,
		PhysicalWrites: load * 2,
	}
}

// wireSnapshot and wireRequest mirror the daemon's ingest schema: one
// snapshot keyed by seq, a batch, or both.
type wireSnapshot struct {
	Seq      *int               `json:"seq,omitempty"`
	Snapshot telemetry.Snapshot `json:"snapshot"`
}

type wireRequest struct {
	wireSnapshot
	Batch []wireSnapshot `json:"batch,omitempty"`
}

// singleBody encodes one snapshot POST body.
func singleBody(sh shape, seq int) []byte {
	s := seq
	b, err := json.Marshal(wireSnapshot{Seq: &s, Snapshot: sh.snapshot(seq)})
	if err != nil {
		panic(fmt.Sprintf("encoding a synthetic snapshot: %v", err))
	}
	return b
}

// batchBody encodes a backfill POST body of n snapshots from seq.
func batchBody(sh shape, seq, n int) []byte {
	req := wireRequest{Batch: make([]wireSnapshot, n)}
	for i := range req.Batch {
		s := seq + i
		req.Batch[i] = wireSnapshot{Seq: &s, Snapshot: sh.snapshot(s)}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("encoding a synthetic batch: %v", err))
	}
	return b
}
