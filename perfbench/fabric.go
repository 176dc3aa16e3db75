package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"time"

	"qvisor/internal/core"
	"qvisor/internal/experiments"
	"qvisor/internal/netsim"
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/stats"
	"qvisor/internal/trace"
	"qvisor/internal/workload"
)

// fabricWorkload is one Fig-4 fabric simulation: topology and traffic
// shape, the QVISOR deployment, and which observers ride along.
type fabricWorkload struct {
	name string
	// exp carries the topology, flow-size scale, CBR tenant and traffic
	// horizon; its Seed is ignored (the benchmark seed replaces it).
	exp  experiments.Config
	load float64
	// spec is the operator policy over the "pfabric" and "edf" tenants.
	spec    string
	backend core.Backend
	// hostPreproc batches the rank rewrite at the sending host's NIC
	// (ApplyBatch) instead of per packet at the first switch.
	hostPreproc bool
	// observers turns on the registry, the flight recorder and the
	// fidelity watchdog, all sampling 1 flow in sampleN.
	observers bool
	sampleN   uint64
}

func fabricPaper() *fabricWorkload {
	c := experiments.PaperConfig()
	c.Horizon = 100 * sim.Millisecond
	return &fabricWorkload{name: "fabric-paper", exp: c, load: 0.6,
		spec: "pfabric + edf", backend: core.BackendPIFO}
}

func fabricObserved() *fabricWorkload {
	c := experiments.ScaledConfig()
	c.Horizon = 400 * sim.Millisecond
	return &fabricWorkload{name: "fabric-observed", exp: c, load: 0.6,
		spec: "pfabric + edf", backend: core.BackendBucketQ,
		hostPreproc: true, observers: true, sampleN: 64}
}

// Tenant labels of the two Fig-4 tenants.
const (
	pfabricID pkt.TenantID = 1
	edfID     pkt.TenantID = 2
)

var tenantNames = map[pkt.TenantID]string{pfabricID: "pfabric", edfID: "edf"}

func nameOf(id pkt.TenantID) string {
	if n, ok := tenantNames[id]; ok {
		return n
	}
	return fmt.Sprintf("tenant-%d", id)
}

func (w *fabricWorkload) hosts() int { return w.exp.Leaves * w.exp.HostsPerLeaf }

// fabricInputs is everything the benchmark generates from its seed for
// one fabric run; the program sees only these flows.
type fabricInputs struct {
	pf, cbr []workload.FlowSpec
}

func (w *fabricWorkload) generate(seed int64) (fabricInputs, error) {
	var sizes workload.SizeDist = workload.DataMining()
	if w.exp.SizeScale != 1 {
		sizes = workload.DataMining().Scaled(w.exp.SizeScale)
	}
	pf, err := workload.Poisson(workload.PoissonConfig{
		Hosts:            w.hosts(),
		Load:             w.load,
		AccessBitsPerSec: w.exp.AccessBps,
		Sizes:            sizes,
		Horizon:          w.exp.Horizon,
		Seed:             seed,
	})
	if err != nil {
		return fabricInputs{}, err
	}
	cbr, err := workload.CBR(workload.CBRConfig{
		Hosts:          w.hosts(),
		Flows:          w.exp.CBRFlows,
		BitsPerSec:     w.exp.CBRBps,
		DeadlineBudget: w.exp.DeadlineBudget,
		Seed:           seed + 1,
	})
	if err != nil {
		return fabricInputs{}, err
	}
	return fabricInputs{pf: pf, cbr: cbr}, nil
}

// scaledRanker keeps pFabric ranks in the paper's byte units when flow
// sizes are scaled down, as the Fig-4 experiments do.
type scaledRanker struct {
	inner rank.Ranker
	mult  int64
}

func (r scaledRanker) Name() string { return r.inner.Name() }

func (r scaledRanker) Rank(now sim.Time, f *rank.Flow, payload int) int64 {
	return r.inner.Rank(now, f, payload) * r.mult
}

func (r scaledRanker) Bounds() rank.Bounds {
	b := r.inner.Bounds()
	return rank.Bounds{Lo: b.Lo * r.mult, Hi: b.Hi * r.mult}
}

func (w *fabricWorkload) rankers() (pf, edf rank.Ranker) {
	pf = &rank.PFabric{MaxFlowBytes: int64(300_000_000 * w.exp.SizeScale)}
	if w.exp.SizeScale != 1 {
		pf = scaledRanker{inner: pf, mult: int64(1/w.exp.SizeScale + 0.5)}
	}
	return pf, &rank.EDF{MaxSlack: 2 * w.exp.DeadlineBudget}
}

// hooks are the traced run's timing decorators. The zero value leaves
// every layer unwrapped, which is how end-to-end runs are built.
type hooks struct {
	sched  func(sched.Scheduler) sched.Scheduler
	ranker func(pkt.TenantID, rank.Ranker) rank.Ranker
}

// runOpts select one variant of a workload's deployment.
type runOpts struct {
	observers bool
	hooks     hooks
	shards    int
}

// fabricRun is a built, ready-to-run simulation.
type fabricRun struct {
	sim   netsim.Sim
	eng   *sim.Engine // nil for a sharded build
	jp    *core.JointPolicy
	reg   *obs.Registry
	rec   *trace.Recorder
	watch *slo.Watchdog
	// Set-up phases: workload generation, synthesis plus deployment,
	// and netsim.Build.
	gen, synth, build time.Duration
}

func (r *fabricRun) setup() time.Duration { return r.gen + r.synth + r.build }

// setup goes from the seed to a ready run: it generates the flows,
// synthesizes and deploys the joint policy, and builds the network.
func (w *fabricWorkload) setup(seed int64, o runOpts) (*fabricRun, error) {
	t0 := time.Now()
	in, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	pfR, edfR := w.rankers()
	spec, err := policy.Parse(w.spec)
	if err != nil {
		return nil, err
	}
	// On a PIFO backend rank space is cheap; 2^20 levels keep ~300-byte
	// resolution on the pFabric tenant's heavy-tailed rank domain.
	const levels = 1 << 20
	jp, err := core.Synthesize([]*core.Tenant{
		{ID: pfabricID, Name: "pfabric", Algorithm: pfR, Levels: levels},
		{ID: edfID, Name: "edf", Algorithm: edfR, Levels: levels},
	}, spec, core.SynthOptions{})
	if err != nil {
		return nil, err
	}
	r := &fabricRun{jp: jp}
	pp := core.NewPreprocessor(jp, core.UnknownWorst)
	if o.observers {
		r.reg = obs.NewRegistry()
		pp.EnableMetrics(r.reg, nameOf)
	}
	if _, err := jp.Deploy(w.backend, core.DeployOptions{}); err != nil {
		return nil, err
	}
	backend := w.backend
	factory := func(d sched.DropFn) sched.Scheduler {
		dd, err := jp.Deploy(backend, core.DeployOptions{Sched: sched.Config{OnDrop: d}})
		if err != nil {
			panic(err) // the same deployment validated above
		}
		return dd.Scheduler
	}
	if wrap := o.hooks.sched; wrap != nil {
		inner := factory
		factory = func(d sched.DropFn) sched.Scheduler { return wrap(inner(d)) }
	}
	if wrap := o.hooks.ranker; wrap != nil {
		pfR, edfR = wrap(pfabricID, pfR), wrap(edfID, edfR)
	}
	t2 := time.Now()

	cfg := netsim.Config{
		Leaves: w.exp.Leaves, Spines: w.exp.Spines, HostsPerLeaf: w.exp.HostsPerLeaf,
		AccessBps: w.exp.AccessBps, FabricBps: w.exp.FabricBps,
		Tenants: []netsim.TenantDef{
			{ID: pfabricID, Name: "pfabric", Ranker: pfR, Flows: in.pf},
			{ID: edfID, Name: "edf", Ranker: edfR, Flows: in.cbr},
		},
		Horizon:      w.exp.Horizon,
		Scheduler:    factory,
		Preprocessor: pp,
		HostPreproc:  w.hostPreproc,
		Registry:     r.reg,
		Shards:       o.shards,
	}
	if o.observers {
		r.rec = trace.NewFlightRecorder(trace.Options{FlowSample: w.sampleN})
		r.watch = slo.New(slo.Config{SampleN: w.sampleN, Tenants: tenantNames})
		cfg.Trace, cfg.Watch = r.rec, r.watch
	}
	if o.shards <= 1 {
		r.eng = sim.New()
		cfg.Engine = r.eng
	}
	s, err := netsim.Build(cfg)
	if err != nil {
		return nil, err
	}
	r.sim = s
	t3 := time.Now()
	r.gen, r.synth, r.build = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return r, nil
}

// fabricOutcome is what one Run produced, plus how long it took.
type fabricOutcome struct {
	wall        time.Duration
	counters    netsim.Counters
	emitted     uint64
	outstanding int
	digest      uint64
	smallFCTus  float64
	deadlineMet float64
	allocs      uint64
	events      uint64 // fired by the simulation itself (0 for a sharded run)
}

// execute runs the simulation to completion (horizon plus drain) and
// gathers its outputs. tk, when non-nil, must have been started on the
// run's engine.
func (w *fabricWorkload) execute(r *fabricRun, tk *ticker) fabricOutcome {
	allocs0 := readAllocs()
	t0 := time.Now()
	if tk != nil {
		tk.last = t0
	}
	r.sim.Run()
	wall := time.Since(t0)
	if tk != nil {
		wall -= tk.probeTime
	}
	allocs := readAllocs() - allocs0
	r.sim.Close()

	var events uint64
	if r.eng != nil {
		events = r.eng.Fired()
		if tk != nil {
			events -= tk.ticks
		}
	}
	c := r.sim.Counters()
	out := fabricOutcome{
		wall:        wall,
		counters:    c,
		emitted:     c.DataSent + c.Retransmits + c.AcksSent + c.CBRSent,
		outstanding: r.sim.Outstanding(),
		allocs:      allocs,
		events:      events,
	}
	if c.CBRDelivered > 0 {
		out.deadlineMet = float64(c.CBROnTime) / float64(c.CBRDelivered)
	}
	smallMax, _ := w.exp.SmallBinFor()
	small := stats.Summarize(r.sim.FCTs().Filter(func(fr stats.FlowRecord) bool {
		return fr.Tenant == "pfabric" && fr.Size > 0 && fr.Size < smallMax
	}))
	out.smallFCTus = float64(small.Mean) / float64(sim.Microsecond)
	out.digest = digest(c, r.sim.FCTs().Records(), r.watch)
	return out
}

// check reports the first correctness breach of a finished run: a packet
// neither delivered, dropped nor still inside the network. Run's drain is
// bounded, so a run may end with packets of unfinished flows in flight;
// each draw's first run drains those to the last and checks the pool is
// empty.
func (o *fabricOutcome) check() error {
	if got := o.counters.Delivered + o.counters.Dropped + uint64(o.outstanding); got != o.emitted {
		return fmt.Errorf("packet conservation: emitted %d, delivered+dropped+outstanding %d", o.emitted, got)
	}
	if o.counters.Delivered == 0 {
		return fmt.Errorf("no packet delivered")
	}
	return nil
}

// digest hashes the simulated statistics of a run — packet counters,
// every flow-completion record in order, and the watchdog snapshot when
// one observed the run. Equal digests mean the simulations agreed.
func digest(c netsim.Counters, fcts []stats.FlowRecord, watch *slo.Watchdog) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range []uint64{c.DataSent, c.Retransmits, c.AcksSent, c.Delivered,
		c.Dropped, c.CBRSent, c.CBRDelivered, c.CBROnTime} {
		put(v)
	}
	for _, r := range fcts {
		put(r.ID)
		h.Write([]byte(r.Tenant))
		put(uint64(r.Size))
		put(uint64(r.Start))
		put(uint64(r.End))
		put(uint64(r.Deadline))
		if r.MetDeadline {
			put(1)
		}
	}
	if watch != nil {
		snap, err := json.Marshal(watch.Snapshot())
		if err != nil {
			panic(err) // a plain data struct always marshals
		}
		h.Write(snap)
	}
	return h.Sum64()
}

// liveHeap forces collections and returns the bytes of live heap
// objects: the memory the program's state holds at that instant. The
// second collection frees what sync.Pool caches kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func readAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// ticker is the benchmark's own periodic no-op event. Every period of
// simulated time up to end it notes the host clock, giving the host time
// each slice of simulated time took, and the size of the engine's pending
// set. It schedules nothing past end, so the run ends as it would without
// it; its events never reorder the simulation's own (the engine breaks
// same-time ties in insertion order).
type ticker struct {
	eng         *sim.Engine
	period, end sim.Time
	last        time.Time
	slicesMs    []float64
	pendingMax  int
	ticks       uint64
	// probeEvery > 0 makes every probeEvery-th tick force a collection
	// and record the live heap. The probes' host time is kept out of the
	// slices and out of the run's time.
	probeEvery uint64
	heapPeak   uint64
	probeTime  time.Duration
	fn         sim.Event
}

func startTicker(eng *sim.Engine, period, end sim.Time) *ticker {
	t := &ticker{eng: eng, period: period, end: end}
	t.fn = func(now sim.Time) {
		t.ticks++
		t.pendingMax = max(t.pendingMax, eng.Pending())
		wall := time.Now()
		t.slicesMs = append(t.slicesMs, float64(wall.Sub(t.last).Nanoseconds())/1e6)
		if t.probeEvery > 0 && t.ticks%t.probeEvery == 0 {
			t.heapPeak = max(t.heapPeak, liveHeap())
			after := time.Now()
			t.probeTime += after.Sub(wall)
			wall = after
		}
		t.last = wall
		if now+period <= end {
			eng.At(now+period, t.fn)
		}
	}
	eng.At(period, t.fn)
	return t
}
