package engine

import (
	"math"

	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// This file holds the test-only oracle for the engine's tick kernel:
// tickReference is the original one-tick-per-call body, with every
// physical-model expression written out in its natural form. TickBatch
// (and Tick, its one-tick wrapper) must stay bit-identical to calling
// tickReference once per element — the batching property tests pin the
// two together across randomized workloads, containers, checkpoints,
// noise, ballooning and contention.

// hitRates returns the buffer-pool hit fractions for hot and cold accesses.
func (e *Engine) hitRates() (hot, cold float64) {
	ws := e.w.WorkingSetMB
	if ws <= 0 {
		hot = 1
	} else {
		hot = math.Min(1, e.usedMB/ws)
	}
	coldData := e.w.DataSizeMB - ws
	if coldData <= 0 {
		cold = 1
	} else {
		cold = math.Min(1, math.Max(0, e.usedMB-ws)/coldData)
	}
	return hot, cold
}

// tickReference advances the simulation by one second with the given
// offered load (transactions arriving during the second).
func (e *Engine) tickReference(offered float64) {
	if offered < 0 {
		offered = 0
	}
	o := &e.opts
	p := &e.prof

	// --- Buffer pool ---------------------------------------------------
	memCap := e.effectiveMemoryMB()
	if e.usedMB > memCap {
		e.usedMB = memCap // forced eviction
	}
	hHot, hCold := e.hitRates()
	missFrac := e.w.HotspotFraction*(1-hHot) + (1-e.w.HotspotFraction)*(1-hCold)
	logicalReads := offered * p.LogicalReads
	physReads := logicalReads * missFrac
	physWrites := offered * p.WritePages
	// Checkpoints defer a share of the page flushes, then burst them. The
	// long-run write volume is identical; the telemetry gets spikier.
	if o.CheckpointEverySec > 0 {
		deferred := physWrites * 0.5
		physWrites -= deferred
		e.dirtyPages += deferred
		if e.tick%o.CheckpointEverySec == o.CheckpointEverySec-1 {
			physWrites += e.dirtyPages
			e.dirtyPages = 0
		}
	}

	// --- Fluid queues ----------------------------------------------------
	perTxnPhysIO := 0.0
	if offered > 0 {
		perTxnPhysIO = (physReads + physWrites) / offered
	}
	cpuDemand := offered*p.CPUms + (physReads+physWrites)*0.03 // I/O handling CPU
	cpuCap := e.cont.Alloc[resource.CPU]
	servedCPU, dCPU := e.drain(&e.backlogCPUms, cpuDemand, cpuCap, &e.sheddedCPUms)

	ioDemand := physReads + physWrites
	ioCap := e.cont.Alloc[resource.DiskIO]
	servedIO, dIO := e.drain(&e.backlogIOOps, ioDemand, ioCap, &e.sheddedIOOps)

	// Only *served* reads bring pages into the cache: warming is bounded by
	// the container's I/O capacity, which is why recovering an evicted
	// working set takes so long (Figure 14's slow tail).
	if ioDemand > 0 {
		servedReads := servedIO * physReads / ioDemand
		warmCap := math.Min(memCap, e.w.DataSizeMB)
		e.usedMB = math.Min(warmCap, e.usedMB+servedReads*o.WarmMBPerPhysRead)
	}

	logDemand := offered * p.LogKB
	logCap := e.cont.Alloc[resource.LogIO]
	servedLog, dLog := e.drain(&e.backlogLogKB, logDemand, logCap, &e.sheddedLogKB)

	// Graded queueing penalty below saturation: even when the queue drains
	// every tick, service-time variance makes latency climb steeply as
	// utilization approaches the allocation (an M/M/1-style ρ/(1−ρ) term).
	// This is what lets a loose latency goal ride a container near
	// saturation while a tight goal needs headroom.
	congest := func(demand, capacity float64) float64 {
		if capacity <= 0 {
			return 0
		}
		rho := demand / capacity
		if rho > 0.98 {
			rho = 0.98
		}
		f := rho * rho / (1 - rho)
		if f > 25 {
			f = 25
		}
		return f
	}
	// Shared-channel contention (noisy neighbors on the hosting node)
	// multiplies the affected service and wait terms. The multipliers are
	// exactly 1 outside cluster runs, and x*1.0 is an IEEE-754 identity,
	// so the uncontended arithmetic is bit-for-bit the historical one.
	cpuCongest := p.CPUms * congest(cpuDemand, cpuCap) * e.contention.CPU
	ioCongest := perTxnPhysIO * o.IOServiceMs * congest(ioDemand, ioCap)
	logCongest := p.LogKB * o.LogServiceMsPerKB * congest(logDemand, logCap) * e.contention.LogIO

	// --- Wait statistics -------------------------------------------------
	// Requests whose work is still queued wait the whole tick; the number
	// of waiting requests is backlog divided by per-request demand.
	waitMs := func(backlog, perTxn float64) float64 {
		if backlog <= 0 {
			return 0
		}
		per := math.Max(perTxn, 0.1)
		return backlog / per * 1000
	}
	a := &e.acc
	a.waitMs[telemetry.WaitCPU] += waitMs(e.backlogCPUms, p.CPUms) * e.contention.CPU
	a.waitMs[telemetry.WaitDiskIO] += waitMs(e.backlogIOOps, perTxnPhysIO)
	a.waitMs[telemetry.WaitLogIO] += waitMs(e.backlogLogKB, p.LogKB) * e.contention.LogIO

	// Hot-set buffer misses stall requests on page-ins; buffer-pool
	// contention inflates each stall.
	hotMissPerTxn := e.w.HotspotFraction * (1 - hHot)
	memStall := hotMissPerTxn * o.MemStallMs * e.contention.Memory
	a.waitMs[telemetry.WaitMemory] += offered * memStall

	// Application locks: waiters queue behind concurrent holders. Queue
	// length follows Little's law on conflicting transactions; waits are
	// therefore superlinear in offered load and independent of container
	// size.
	holders := offered * p.LockConflictProb * p.LockHoldMs / 1000
	perTxnLockWait := p.LockConflictProb * holders * p.LockHoldMs
	a.waitMs[telemetry.WaitLock] += offered * perTxnLockWait

	perTxnLatch := p.LatchProb * 1.5
	a.waitMs[telemetry.WaitLatch] += offered * perTxnLatch

	sys := 30.0
	if o.NoiseProb > 0 && e.rng.Float64() < o.NoiseProb {
		// Transient system activity (checkpoint, backup) — an outlier spike.
		sys *= o.NoiseScale
		cls := telemetry.WaitClasses[e.rng.Intn(telemetry.NumWaitClasses)]
		a.waitMs[cls] += sys * 10
	}
	a.waitMs[telemetry.WaitSystem] += sys

	// --- Latency ---------------------------------------------------------
	if offered > 0 {
		perTxnLatency := o.BaseLatencyMs +
			p.CPUms*e.contention.CPU +
			perTxnPhysIO*o.IOServiceMs +
			p.LogKB*o.LogServiceMsPerKB*e.contention.LogIO +
			cpuCongest + ioCongest + logCongest +
			dCPU + dIO + dLog +
			memStall +
			perTxnLockWait +
			perTxnLatch
		n := int(math.Min(offered, MaxLatencySamplesPerTick))
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			f := math.Exp(o.LatencySigma * e.rng.NormFloat64())
			sample := perTxnLatency * f
			a.latSamples = append(a.latSamples, sample)
			a.latSum += sample
		}
		a.txns += offered
	}

	// --- Accumulate ------------------------------------------------------
	a.servedCPU += servedCPU
	a.capCPU += cpuCap
	a.servedIO += servedIO
	a.capIO += ioCap
	a.servedLog += servedLog
	a.capLog += logCap
	peak := func(k resource.Kind, served, capacity float64) {
		if capacity > 0 && served/capacity > a.peakUtil[k] {
			a.peakUtil[k] = served / capacity
		}
	}
	peak(resource.CPU, servedCPU, cpuCap)
	peak(resource.DiskIO, servedIO, ioCap)
	peak(resource.LogIO, servedLog, logCap)
	a.offeredSum += offered
	a.physReads += physReads
	a.physWrites += physWrites
	a.ticks++
	e.tick++
}

// drain advances one fluid queue by a tick: demand joins the backlog, up to
// capacity units are served, the backlog is capped at MaxQueueSeconds of
// capacity (excess shed), and the queueing delay (ms) a new arrival would
// experience is returned.
func (e *Engine) drain(backlog *float64, demand, capacity float64, shed *float64) (served, delayMs float64) {
	total := *backlog + demand
	served = math.Min(total, capacity)
	rest := total - served
	maxQ := e.opts.MaxQueueSeconds * capacity
	if rest > maxQ {
		*shed += rest - maxQ
		rest = maxQ
	}
	*backlog = rest
	if capacity > 0 {
		delayMs = rest / capacity * 1000
	} else if rest > 0 {
		delayMs = e.opts.MaxQueueSeconds * 1000
	}
	return served, delayMs
}
