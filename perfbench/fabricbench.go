package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"qvisor/internal/core"
	"qvisor/internal/netsim"
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
)

const (
	// drawsPerRun is how many independent traffic draws one fabric run
	// simulates. A single draw at these horizons holds a few hundred
	// heavy-tailed flows, so its packet mix, and with it the simulator's
	// speed and memory, varies a lot from seed to seed; spreading a run
	// over several draws measures the workload rather than one draw.
	drawsPerRun = 8
	// setupsPerRun is how many extra set-ups precede each timed
	// simulation, so set-up samples spread over the whole run.
	setupsPerRun = 5
	// slicesPerRun is how many equal slices of simulated time the
	// latency metrics split the traffic horizon into.
	slicesPerRun = 200
	// pendingSamples is how often per run the traced run samples the
	// pending set.
	pendingSamples = 2000
	// probeEvery is how many slices apart the first run of each draw
	// measures the live heap.
	probeEvery = 10
)

// draw is one seeded traffic draw of a fabric run, with the reference
// outputs every later simulation of it must reproduce.
type draw struct {
	seed     int64
	ref      uint64
	counters netsim.Counters
	emitted  uint64
	walls    []float64 // untraced timed runs, seconds
}

// drawSeeds derives the run's draw seeds from the benchmark seed
// (SplitMix64), so one seed always names the same inputs.
func drawSeeds(seed int64) []*draw {
	ds := make([]*draw, drawsPerRun)
	for i := range ds {
		z := uint64(seed)*drawsPerRun + uint64(i) + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		ds[i] = &draw{seed: int64(z >> 1)}
	}
	return ds
}

// fabricBench measures one fabric workload.
type fabricBench struct {
	w     *fabricWorkload
	rep   *report
	base  runOpts
	draws []*draw
	// Set-up samples, seconds: the whole set-up and its phases.
	setups, gens, synths, builds []float64
	// Untraced runs: every slice's host ms, and allocations per packet.
	slices, allocs []float64
}

func runFabric(w *fabricWorkload, seed int64, budget time.Duration, traced bool) (*report, error) {
	b := &fabricBench{w: w, rep: newReport(), base: runOpts{observers: w.observers}, draws: drawSeeds(seed)}
	deadline := time.Now().Add(budget)
	if err := b.firstRuns(); err != nil {
		return nil, err
	}
	var err error
	if traced {
		err = b.traced(deadline)
	} else {
		err = b.endToEnd(deadline)
	}
	if err != nil {
		return nil, err
	}
	b.rep.set("setup_s", median(b.setups))
	b.rep.set("workload.gen_s", median(b.gens))
	b.rep.set("core.synth_s", median(b.synths))
	b.rep.set("netsim.build_s", median(b.builds))
	return b.rep, nil
}

// sampleSetup sets d up setupsPerRun times, recording each set-up's
// phases, and discards the builds.
func (b *fabricBench) sampleSetup(d *draw) error {
	for i := 0; i < setupsPerRun; i++ {
		r, err := b.w.setup(d.seed, b.base)
		if err != nil {
			return err
		}
		r.sim.Close()
		b.setups = append(b.setups, r.setup().Seconds())
		b.gens = append(b.gens, r.gen.Seconds())
		b.synths = append(b.synths, r.synth.Seconds())
		b.builds = append(b.builds, r.build.Seconds())
	}
	return nil
}

// firstRuns simulates every draw once: it fixes the reference digests,
// probes the live heap, and afterwards drains the network to the last
// packet to prove the pool gets every packet back. These cold, probed
// runs are not timed.
func (b *fabricBench) firstRuns() error {
	var c netsim.Counters
	var emitted, events uint64
	var outstanding int
	hwm := 0
	var heap, small []float64
	h := fnv.New64a()
	for _, d := range b.draws {
		r, out, tk, err := b.timedRun(d, true)
		if err != nil {
			return err
		}
		d.ref, d.counters, d.emitted = out.digest, out.counters, out.emitted
		fmt.Fprintf(h, "%016x", out.digest)
		for _, ps := range r.sim.PortStats() {
			hwm = max(hwm, ps.MaxQueuedBytes)
		}
		// Run's drain lasts one horizon, too short for the largest flows
		// at paper scale; finish them so the pool must be empty.
		r.eng.Run(sim.MaxTime)
		outstanding += r.sim.Outstanding()
		if n := r.sim.Outstanding(); n != 0 {
			b.rep.breach("draw %d: %d packets outstanding after a full drain", d.seed, n)
		}
		fc := r.sim.Counters()
		if got, want := fc.Delivered+fc.Dropped, fc.DataSent+fc.Retransmits+fc.AcksSent+fc.CBRSent; got != want {
			b.rep.breach("draw %d: packet conservation after a full drain: emitted %d, delivered+dropped %d", d.seed, want, got)
		}
		k := out.counters
		c.DataSent += k.DataSent
		c.Retransmits += k.Retransmits
		c.Dropped += k.Dropped
		c.CBRDelivered += k.CBRDelivered
		c.CBROnTime += k.CBROnTime
		emitted += out.emitted
		events += out.events
		heap = append(heap, float64(tk.heapPeak)/1e6)
		small = append(small, out.smallFCTus)
		b.rep.note("draw %d: digest %016x pkts %d events %d small_fct_us %.3f deadline_met %.6f in_flight_at_drain_end %d",
			d.seed, out.digest, out.emitted, out.events, out.smallFCTus, out.deadlineMet, out.outstanding)
	}
	n := float64(len(b.draws))
	rep := b.rep
	rep.note("digest %016x", h.Sum64())
	rep.set("mem_peak_mb", mean(heap))
	rep.set("pkt.outstanding", float64(outstanding))
	rep.set("netsim.pkts", float64(emitted)/n)
	rep.set("netsim.retx_ratio", ratio(c.Retransmits, c.DataSent))
	rep.set("netsim.drop_ratio", ratio(c.Dropped, emitted))
	rep.set("netsim.queue_hwm_bytes", float64(hwm))
	rep.set("netsim.small_fct_us", mean(small))
	rep.set("netsim.deadline_met", ratio(c.CBROnTime, c.CBRDelivered))
	rep.set("sim.events", float64(events)/n)
	return nil
}

// account books one finished simulation of d: an attempt, and a failure
// when it breached a check or disagreed with d's reference outputs.
func (b *fabricBench) account(out fabricOutcome, d *draw) {
	b.rep.attempted++
	err := out.check()
	if err == nil && d.ref != 0 && out.digest != d.ref {
		err = fmt.Errorf("digest %016x differs from the reference %016x", out.digest, d.ref)
	}
	if err != nil {
		b.rep.failed++
		b.rep.breach("draw %d: %v", d.seed, err)
	}
}

// timedRun samples d's set-up, then sets it up as the workload deploys it
// and runs it once with slice timing. It books the run's attempt and any
// breach. With probe set it probes the live heap instead of keeping the
// run's timings, since the probes' collections replace the run's own.
func (b *fabricBench) timedRun(d *draw, probe bool) (*fabricRun, fabricOutcome, *ticker, error) {
	if err := b.sampleSetup(d); err != nil {
		return nil, fabricOutcome{}, nil, err
	}
	r, err := b.w.setup(d.seed, b.base)
	if err != nil {
		return nil, fabricOutcome{}, nil, err
	}
	tk := startTicker(r.eng, b.w.exp.Horizon/slicesPerRun, b.w.exp.Horizon)
	if probe {
		tk.probeEvery = probeEvery
	}
	out := b.w.execute(r, tk)
	b.account(out, d)
	if !probe {
		d.walls = append(d.walls, out.wall.Seconds())
		b.slices = append(b.slices, tk.slicesMs...)
		b.allocs = append(b.allocs, float64(out.allocs)/float64(out.emitted))
	}
	return r, out, tk, nil
}

// throughput is host-emitted packets per host second over the draws,
// taking each draw's median run time.
func (b *fabricBench) throughput() float64 {
	var pkts, secs float64
	for _, d := range b.draws {
		pkts += float64(d.emitted)
		secs += median(d.walls)
	}
	return pkts / secs
}

// endToEnd simulates the draws in turn until the deadline, each at
// least once after its untimed first run, and reports what users see.
func (b *fabricBench) endToEnd(deadline time.Time) error {
	for i := 0; i < len(b.draws) || time.Now().Before(deadline); i++ {
		if _, _, _, err := b.timedRun(b.draws[i%len(b.draws)], false); err != nil {
			return err
		}
	}
	pps := b.throughput()
	b.rep.set("ops_per_s", pps)
	b.rep.set("p50_ms", median(b.slices))
	b.rep.set("p90_ms", percentile(b.slices, 0.90))
	b.rep.note("timed runs %d of %d draws, slices %d, pkts_per_s %.0f, slice_p99_ms %.4f, allocs_per_pkt %.4f",
		len(b.allocs), len(b.draws), len(b.slices), pps, percentile(b.slices, 0.99), median(b.allocs))
	return nil
}

// traced alternates untraced runs with runs whose scheduler and rankers
// sit behind timing decorators, draw by draw until the deadline, then
// measures the layers the decorators cannot see by replaying the captured
// inputs through their own entry points.
func (b *fabricBench) traced(deadline time.Time) error {
	cc := calibrateClock()
	ss := &schedStats{}
	rs := &rankStats{}
	traced := b.base
	traced.hooks = hooks{
		sched: func(inner sched.Scheduler) sched.Scheduler { return wrapSched(inner, ss) },
		ranker: func(id pkt.TenantID, inner rank.Ranker) rank.Ranker {
			return &timedRanker{inner: inner, tenant: id, st: rs}
		},
	}
	var plain, timed []float64
	var events uint64
	var first *fabricRun
	pendingMax := 0
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		d := b.draws[i%len(b.draws)]
		_, out, _, err := b.timedRun(d, false)
		if err != nil {
			return err
		}
		plain = append(plain, out.wall.Seconds())

		r, err := b.w.setup(d.seed, traced)
		if err != nil {
			return err
		}
		tk := startTicker(r.eng, b.w.exp.Horizon/pendingSamples, b.w.exp.Horizon)
		out = b.w.execute(r, tk)
		b.account(out, d)
		timed = append(timed, out.wall.Seconds())
		events += out.events
		pendingMax = max(pendingMax, tk.pendingMax)
		if first == nil {
			first = r
		}
		rs.frozen = true // the stream is captured from the first traced run
	}
	rep := b.rep
	if rep.correct() {
		rep.note("every traced run reproduced its draw's untraced digest")
	}
	rep.set("bench.trace_overhead_pct", 100*(sum(timed)/sum(plain)-1))
	rep.set("pkt.allocs_per_pkt", median(b.allocs))
	rep.set("sim.pending_max", float64(pendingMax))

	// Self times: take the clock's own cost back out of every timed call.
	calls := float64(ss.calls() + rs.h.n)
	schedNs := float64(ss.timeNs()) - float64(ss.calls())*cc.inside
	rankNs := float64(rs.h.sum) - float64(rs.h.n)*cc.inside
	bareNs := sum(timed)*1e9 - calls*cc.pair
	rep.set("sim.residual_ns_per_event", (bareNs-schedNs-rankNs)/float64(events))
	rep.set("sched.share", schedNs/bareNs)
	rep.set("rank.share", rankNs/bareNs)
	rep.set("rank.ns", rs.h.mean()-cc.inside)
	rep.set("sched.enqueue_ns_p50", ss.enq.quantile(0.5)-cc.inside)
	rep.set("sched.enqueue_ns_p99", ss.enq.quantile(0.99)-cc.inside)
	rep.set("sched.dequeue_ns_p50", ss.deq.quantile(0.5)-cc.inside)
	rep.set("sched.dequeue_ns_p99", ss.deq.quantile(0.99)-cc.inside)
	rep.set("sched.backlog_mean", float64(ss.backlogSum)/float64(ss.enq.n))
	rep.note("clock pair %.1f ns (%.1f ns inside the interval); timed calls %.0f", cc.pair, cc.inside, calls)

	rep.set("sim.hold_ns", holdNs(pendingMax, b.draws[0].seed))
	if err := b.replayCore(first.jp, rs.stream); err != nil {
		return err
	}
	if b.w.name == wlPaper {
		if err := b.coord(b.draws[0]); err != nil {
			return err
		}
	}
	if b.w.observers {
		return b.observers(first)
	}
	return nil
}

// replayCore replays the captured (tenant, rank) stream through the
// pre-processor's two entry points: Process, one packet at a time as the
// first switch calls it, and ApplyBatch over the send batches as a host
// NIC calls it, with metrics on.
func (b *fabricBench) replayCore(jp *core.JointPolicy, stream []rankRec) error {
	if len(stream) == 0 {
		return fmt.Errorf("perfbench: the traced run captured no ranks")
	}
	pp := core.NewPreprocessor(jp, core.UnknownWorst)
	if b.w.observers {
		pp.EnableMetrics(obs.NewRegistry(), nameOf)
	}
	perPacket := func(f func()) float64 {
		var xs []float64
		start := time.Now()
		for len(xs) < 5 || time.Since(start) < 300*time.Millisecond {
			t0 := time.Now()
			f()
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(len(stream)))
		}
		return median(xs)
	}
	var p pkt.Packet
	b.rep.set("core.process_ns", perPacket(func() {
		for _, rec := range stream {
			p.Tenant, p.Rank, p.Tagged = rec.tenant, rec.rank, false
			pp.Process(&p)
		}
	}))

	bp := core.NewPreprocessor(jp, core.UnknownWorst)
	bp.EnableMetrics(obs.NewRegistry(), nameOf)
	pool := make([]pkt.Packet, 256)
	batch := make([]*pkt.Packet, 0, len(pool))
	kept := 0
	b.rep.set("core.batch_ns_per_pkt", perPacket(func() {
		for _, rec := range stream {
			if (rec.first || len(batch) == len(pool)) && len(batch) > 0 {
				kept += bp.ApplyBatch(batch)
				batch = batch[:0]
			}
			q := &pool[len(batch)]
			q.Tenant, q.Rank, q.Tagged = rec.tenant, rec.rank, false
			batch = append(batch, q)
		}
		kept += bp.ApplyBatch(batch)
		batch = batch[:0]
	}))
	if kept == 0 {
		return fmt.Errorf("perfbench: ApplyBatch kept no packet")
	}
	return nil
}

// holdNs is the classic hold model on the event list: with n events
// pending, each Step fires one event that schedules its successor at a
// random later time, so the pending set stays at n. It reports host ns
// per Step (one pop plus one At).
func holdNs(n int, seed int64) float64 {
	n = max(n, 1)
	rng := rand.New(rand.NewSource(seed))
	incs := make([]sim.Time, 4096)
	for i := range incs {
		incs[i] = sim.Time(rng.ExpFloat64()*float64(10*sim.Microsecond)) + 1
	}
	eng := sim.New()
	k := 0
	var ev sim.Event
	ev = func(now sim.Time) {
		eng.At(now+incs[k&4095], ev)
		k++
	}
	for i := 0; i < n; i++ {
		eng.At(incs[(i*7)&4095]*sim.Time(1+i%16), ev)
	}
	const steps = 1 << 19
	for i := 0; i < steps; i++ { // warm the free list and the heap
		eng.Step()
	}
	var xs []float64
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			eng.Step()
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/steps)
	}
	return median(xs)
}

// coord runs one draw of fabric-paper's traffic on the sharded engine at
// two partitions and reports the coordinator's figures against the
// single-threaded run time of the same draw.
func (b *fabricBench) coord(d *draw) error {
	o := b.base
	o.shards = 2
	r, err := b.w.setup(d.seed, o)
	if err != nil {
		return err
	}
	cl, ok := r.sim.(*netsim.Cluster)
	if !ok {
		return fmt.Errorf("perfbench: a 2-shard build returned %T", r.sim)
	}
	t0 := time.Now()
	r.sim.Run()
	wall := time.Since(t0)
	st := cl.CoordStats()
	r.sim.Close()
	// Same-instant arrivals on different links may merge in another order
	// at a window barrier (DESIGN.md, "Sharded execution model"), so the
	// sharded run is not held to the exact counters. Packets still in a
	// cross-shard handoff when the drain stops belong to no pool, so
	// delivered, dropped and pooled packets may fall short of the emitted
	// ones by those, but never exceed them.
	b.rep.attempted++
	c := r.sim.Counters()
	emitted := c.DataSent + c.Retransmits + c.AcksSent + c.CBRSent
	accounted := c.Delivered + c.Dropped + uint64(r.sim.Outstanding())
	if accounted > emitted {
		b.rep.failed++
		b.rep.breach("2-shard run accounts for %d packets, more than the %d emitted", accounted, emitted)
	}
	b.rep.note("2-shard run of draw %d: %d packets emitted, %d delivered, %d in cross-shard handoff at the end (single-threaded: %d, %d)",
		d.seed, emitted, c.Delivered, emitted-min(emitted, accounted), d.emitted, d.counters.Delivered)
	var busy, wait time.Duration
	for i := range st.Busy {
		busy += st.Busy[i]
		wait += st.BarrierWait[i]
	}
	b.rep.set("coord.speedup", median(d.walls)/wall.Seconds())
	b.rep.set("coord.windows", float64(st.Windows))
	b.rep.set("coord.msgs_per_window", ratio(st.Messages, st.Windows))
	b.rep.set("coord.barrier_wait_share", float64(wait)/float64(busy+wait))
	return nil
}

// observers measures what the observers of fabric-observed cost: the
// same traffic with and without them, set up and run the same way, in
// one pair per draw with the side that runs first alternating, plus their
// counts on the first traced run r.
func (b *fabricBench) observers(r *fabricRun) error {
	sides := [2]runOpts{b.base, {}} // observers on, off
	var ratios []float64
	for i, d := range b.draws {
		var wall [2]float64
		for k := 0; k < 2; k++ {
			s := (i + k) % 2
			w, err := b.bareRun(d, sides[s])
			if err != nil {
				return err
			}
			wall[s] = w
		}
		ratios = append(ratios, wall[0]/wall[1])
	}
	q1, q3 := quartiles(ratios)
	b.rep.set("obs.overhead_pct", 100*(median(ratios)-1))
	b.rep.note("observers on/off run time per draw: median %.4f [q1 %.4f, q3 %.4f] over %d pairs: %.4f",
		median(ratios), q1, q3, len(ratios), ratios)
	n, ok := r.sim.(*netsim.Network)
	if !ok {
		return fmt.Errorf("perfbench: single-threaded build returned %T", r.sim)
	}
	var xs []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		n.FlushMetrics()
		xs = append(xs, float64(time.Since(t0).Nanoseconds()))
	}
	b.rep.set("obs.flush_ns", median(xs))
	b.rep.set("trace.events", float64(r.rec.Count()))
	b.rep.set("slo.mirrored", float64(r.watch.Snapshot().Global.SampledEnqueues))
	return nil
}

// bareRun sets d up with o and runs it once without the ticker, booking
// the attempt; it returns the run time in seconds. With observers the run
// must reproduce d's digest, without them its counters (the digest then
// lacks the watchdog snapshot).
func (b *fabricBench) bareRun(d *draw, o runOpts) (float64, error) {
	r, err := b.w.setup(d.seed, o)
	if err != nil {
		return 0, err
	}
	out := b.w.execute(r, nil)
	if o.observers {
		b.account(out, d)
		return out.wall.Seconds(), nil
	}
	b.rep.attempted++
	err = out.check()
	if err == nil && out.counters != d.counters {
		err = fmt.Errorf("counters %+v differ from the reference %+v", out.counters, d.counters)
	}
	if err != nil {
		b.rep.failed++
		b.rep.breach("draw %d without observers: %v", d.seed, err)
	}
	return out.wall.Seconds(), nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
