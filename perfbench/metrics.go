package main

// metricDef describes one metric. The end-to-end table is what an
// untraced run prints and BENCHMARK.json lists with its bounds; the
// per-layer table is what a traced run prints. TestBenchmarkJSON keeps
// BENCHMARK.json and these tables in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// On lists the workloads whose layers a per-layer metric measures;
	// on the other workloads it reads 0. Empty means every workload.
	// README.md maps each one to the end-to-end metric it should move.
	On []string
}

func (d metricDef) exercisedBy(workload string) bool {
	if len(d.On) == 0 {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// Workload names; results and comparisons refer to workloads by these.
const (
	wlPaper    = "fabric-paper"
	wlObserved = "fabric-observed"
	wlChurn    = "control-churn"
)

var workloadNames = []string{wlPaper, wlObserved, wlChurn}

// Default and held-out workload seeds. Tune on the default; confirm a
// claimed gain on the held-out seed too (choosing-metrics §6.3).
const (
	defaultSeed  = 1
	heldOutSeed  = 7919
	defaultSecs  = 25
	deadlineSecs = 170
)

var (
	fabricWorkloads = []string{wlPaper, wlObserved}
	onPaper         = []string{wlPaper}
	onObserved      = []string{wlObserved}
	onChurn         = []string{wlChurn}
)

// endToEnd are the metrics a user of the system sees. Each workload
// reports all of them; what "operation" means differs by workload kind
// (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// perLayer are the traced run's metrics, grouped by layer.
var perLayer = []metricDef{
	// sim: the event list.
	{Name: "sim.events", Unit: "count", Better: "lower", On: fabricWorkloads},
	{Name: "sim.pending_max", Unit: "count", Better: "lower", On: fabricWorkloads},
	{Name: "sim.hold_ns", Unit: "ns", Better: "lower", On: fabricWorkloads},
	{Name: "sim.residual_ns_per_event", Unit: "ns", Better: "lower", On: fabricWorkloads},
	// coord: the sharded engine on fabric-paper's traffic at 2 partitions.
	{Name: "coord.speedup", Unit: "ratio", Better: "higher", On: onPaper},
	{Name: "coord.windows", Unit: "count", Better: "lower", On: onPaper},
	{Name: "coord.msgs_per_window", Unit: "count", Better: "higher", On: onPaper},
	{Name: "coord.barrier_wait_share", Unit: "ratio", Better: "lower", On: onPaper},
	// netsim: model statistics; a pure speed-up leaves them unchanged.
	{Name: "netsim.pkts", Unit: "count", Better: "lower", On: fabricWorkloads},
	{Name: "netsim.retx_ratio", Unit: "ratio", Better: "lower", On: fabricWorkloads},
	{Name: "netsim.drop_ratio", Unit: "ratio", Better: "lower", On: fabricWorkloads},
	{Name: "netsim.queue_hwm_bytes", Unit: "bytes", Better: "lower", On: fabricWorkloads},
	{Name: "netsim.small_fct_us", Unit: "us", Better: "lower", On: fabricWorkloads},
	{Name: "netsim.deadline_met", Unit: "ratio", Better: "higher", On: fabricWorkloads},
	// sched: the scheduler decorator.
	{Name: "sched.enqueue_ns_p50", Unit: "ns", Better: "lower", On: fabricWorkloads},
	{Name: "sched.enqueue_ns_p99", Unit: "ns", Better: "lower", On: fabricWorkloads},
	{Name: "sched.dequeue_ns_p50", Unit: "ns", Better: "lower", On: fabricWorkloads},
	{Name: "sched.dequeue_ns_p99", Unit: "ns", Better: "lower", On: fabricWorkloads},
	{Name: "sched.backlog_mean", Unit: "count", Better: "lower", On: fabricWorkloads},
	{Name: "sched.share", Unit: "ratio", Better: "lower", On: fabricWorkloads},
	// rank: the tenants' rank functions.
	{Name: "rank.ns", Unit: "ns", Better: "lower", On: fabricWorkloads},
	{Name: "rank.share", Unit: "ratio", Better: "lower", On: fabricWorkloads},
	// core data plane: replay of the captured (tenant, rank) stream.
	{Name: "core.process_ns", Unit: "ns", Better: "lower", On: fabricWorkloads},
	{Name: "core.batch_ns_per_pkt", Unit: "ns", Better: "lower", On: fabricWorkloads},
	// obs, trace, slo: the observers of fabric-observed.
	{Name: "obs.overhead_pct", Unit: "%", Better: "lower", On: onObserved},
	{Name: "obs.flush_ns", Unit: "ns", Better: "lower", On: onObserved},
	{Name: "trace.events", Unit: "count", Better: "lower", On: onObserved},
	{Name: "slo.mirrored", Unit: "count", Better: "lower", On: onObserved},
	// pkt: the packet pool.
	{Name: "pkt.outstanding", Unit: "count", Better: "lower", On: fabricWorkloads},
	{Name: "pkt.allocs_per_pkt", Unit: "count", Better: "lower", On: fabricWorkloads},
	// Set-up phases.
	{Name: "workload.gen_s", Unit: "s", Better: "lower", On: fabricWorkloads},
	{Name: "core.synth_s", Unit: "s", Better: "lower"},
	{Name: "netsim.build_s", Unit: "s", Better: "lower", On: fabricWorkloads},
	{Name: "api.start_s", Unit: "s", Better: "lower", On: onChurn},
	// Control plane, write path: replay on an identically built twin.
	{Name: "api.handler_us", Unit: "us", Better: "lower", On: onChurn},
	{Name: "api.wire_us", Unit: "us", Better: "lower", On: onChurn},
	{Name: "core.update_us", Unit: "us", Better: "lower", On: onChurn},
	{Name: "core.resynth_us", Unit: "us", Better: "lower", On: onChurn},
	{Name: "core.preproc_update_us", Unit: "us", Better: "lower", On: onChurn},
	{Name: "core.epoch_publish_us", Unit: "us", Better: "lower", On: onChurn},
	{Name: "core.tier_hit_ratio", Unit: "ratio", Better: "higher", On: onChurn},
	// Control plane, read path.
	{Name: "api.read_p50_ms", Unit: "ms", Better: "lower", On: onChurn},
	{Name: "api.read_p99_ms", Unit: "ms", Better: "lower", On: onChurn},
	{Name: "obs.scrape_us", Unit: "us", Better: "lower", On: onChurn},
	{Name: "obs.series", Unit: "count", Better: "lower", On: onChurn},
	// The traced run itself.
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", On: fabricWorkloads},
}
