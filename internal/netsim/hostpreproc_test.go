package netsim

import (
	"reflect"
	"strings"
	"testing"

	"qvisor/internal/core"
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

// hostPreprocScenario builds a two-tenant cross-leaf workload whose send
// windows hold several packets, with rank-oblivious (FIFO) host uplinks so
// moving the rank rewrite from the first switch to the host NIC cannot
// change uplink service order. Rankers are constructed fresh per call so
// back-to-back runs never share state.
func hostPreprocScenario(t *testing.T) (Config, *core.JointPolicy) {
	t.Helper()
	pf1 := &rank.PFabric{MaxFlowBytes: 1 << 20}
	pf2 := &rank.PFabric{MaxFlowBytes: 1 << 20}
	jp, err := core.Synthesize([]*core.Tenant{
		{ID: 1, Name: "a", Algorithm: pf1},
		{ID: 2, Name: "b", Algorithm: pf2},
	}, policy.MustParse("a >> b"), core.SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(src, dst int) []workload.FlowSpec {
		var fs []workload.FlowSpec
		for i := 0; i < 6; i++ {
			fs = append(fs, workload.FlowSpec{
				Start: sim.Time(i) * sim.Millisecond / 2,
				Src:   src, Dst: dst,
				Size: int64(20000 + 7300*i),
			})
		}
		return fs
	}
	cfg := tiny([]TenantDef{
		{ID: 1, Name: "a", Ranker: pf1, Flows: mk(0, 2)},
		{ID: 2, Name: "b", Ranker: pf2, Flows: mk(1, 3)},
	}, 30*sim.Millisecond)
	cfg.SchedulerFor = func(role string, id int, d sched.DropFn) sched.Scheduler {
		if role == "host" {
			return sched.NewFIFO(sched.Config{OnDrop: d})
		}
		return sched.NewPIFO(sched.Config{OnDrop: d})
	}
	return cfg, jp
}

func runHostPreproc(t *testing.T, hostPre bool) (Counters, []stats.FlowRecord) {
	t.Helper()
	cfg, jp := hostPreprocScenario(t)
	cfg.Preprocessor = core.NewPreprocessor(jp, core.UnknownWorst)
	cfg.HostPreproc = hostPre
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if out := n.Outstanding(); out != 0 {
		t.Fatalf("outstanding = %d after drained run, want 0", out)
	}
	return n.Counters(), n.FCTs().Records()
}

// TestHostPreprocEquivalence: with full policy coverage and FIFO host
// uplinks, rewriting ranks at the host NIC is observationally identical
// to rewriting them at the first switch — same counters, same
// flow-completion records.
func TestHostPreprocEquivalence(t *testing.T) {
	switchC, switchF := runHostPreproc(t, false)
	hostC, hostF := runHostPreproc(t, true)
	if switchC != hostC {
		t.Fatalf("counters diverge:\nswitch %+v\nhost   %+v", switchC, hostC)
	}
	if !reflect.DeepEqual(switchF, hostF) {
		t.Fatalf("FCT records diverge: switch %d records, host %d records\nswitch %+v\nhost   %+v",
			len(switchF), len(hostF), switchF, hostF)
	}
	if switchC.DataSent == 0 || len(switchF) != 12 {
		t.Fatalf("scenario degenerate: %+v, %d flows", switchC, len(switchF))
	}
}

// TestHostPreprocDeterminism: two identical HostPreproc runs agree
// byte-for-byte.
func TestHostPreprocDeterminism(t *testing.T) {
	c1, f1 := runHostPreproc(t, true)
	c2, f2 := runHostPreproc(t, true)
	if c1 != c2 {
		t.Fatalf("counters diverge across identical runs:\n%+v\n%+v", c1, c2)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("FCT records diverge across identical runs")
	}
}

// TestHostPreprocTransformAttribution: the flight recorder sees the same
// (pre-rank → rank) rewrite per packet ID in both deployments; only the
// location moves from the first switch to the sending host. Both go
// through Network.rewrite, which records the pre-transform rank.
func TestHostPreprocTransformAttribution(t *testing.T) {
	collect := func(hostPre bool) (map[uint64][2]int64, map[uint64]string) {
		cfg, jp := hostPreprocScenario(t)
		cfg.Preprocessor = core.NewPreprocessor(jp, core.UnknownWorst)
		cfg.HostPreproc = hostPre
		rec := trace.NewFlightRecorder(trace.Options{RingSize: 1 << 16})
		cfg.Trace = rec
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Run()
		ranks := make(map[uint64][2]int64)
		where := make(map[uint64]string)
		ev, _ := rec.Snapshot(trace.AllEvents)
		for _, e := range ev {
			if e.Kind != trace.KindTransform || e.PktKind != "data" {
				continue
			}
			ranks[e.ID] = [2]int64{e.PreRank, e.Rank}
			where[e.ID] = e.Where
		}
		return ranks, where
	}
	swRanks, swWhere := collect(false)
	hoRanks, hoWhere := collect(true)
	if len(swRanks) == 0 {
		t.Fatal("no data transform events recorded")
	}
	if !reflect.DeepEqual(swRanks, hoRanks) {
		t.Fatalf("transform rewrites diverge: switch %d, host %d", len(swRanks), len(hoRanks))
	}
	for id, w := range swWhere {
		if !strings.HasPrefix(w, "leaf") {
			t.Fatalf("switch-mode transform of %d at %q, want a leaf", id, w)
		}
	}
	for id, w := range hoWhere {
		if !strings.HasPrefix(w, "host") {
			t.Fatalf("host-mode transform of %d at %q, want a host", id, w)
		}
	}
}

// unknownTenantScenario runs tenant a, which the joint policy covers,
// beside tenant b, which it does not, under a pre-processor that drops
// unknown tenants.
func unknownTenantScenario(t *testing.T) (Config, *core.Preprocessor) {
	t.Helper()
	pfA := &rank.PFabric{MaxFlowBytes: 1 << 20}
	jp, err := core.Synthesize([]*core.Tenant{
		{ID: 1, Name: "a", Algorithm: pfA},
	}, policy.MustParse("a"), core.SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tiny([]TenantDef{
		{ID: 1, Name: "a", Ranker: pfA, Flows: []workload.FlowSpec{
			{Start: 0, Src: 0, Dst: 2, Size: 30000},
		}},
		{ID: 2, Name: "b", Ranker: &rank.PFabric{MaxFlowBytes: 1 << 20}, Flows: []workload.FlowSpec{
			{Start: 0, Src: 1, Dst: 3, Size: 30000},
		}},
	}, 10*sim.Millisecond)
	pp := core.NewPreprocessor(jp, core.UnknownDrop)
	cfg.Preprocessor = pp
	return cfg, pp
}

// TestHostPreprocUnknownDrop: a tenant outside the joint policy is
// rejected by the rewrite at the host NIC — an admission drop before the
// packet spends any uplink capacity. The flow never completes, the
// transport keeps retrying via RTO, and packet conservation still holds.
func TestHostPreprocUnknownDrop(t *testing.T) {
	cfg, pp := unknownTenantScenario(t)
	cfg.HostPreproc = true
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got := n.FCTs().Tenant("a"); len(got) != 1 {
		t.Fatalf("known tenant completed %d flows, want 1", len(got))
	}
	if got := n.FCTs().Tenant("b"); len(got) != 0 {
		t.Fatalf("unknown tenant completed %d flows, want 0", len(got))
	}
	c := n.Counters()
	if c.Dropped == 0 {
		t.Fatal("unknown tenant produced no admission drops")
	}
	if c.Retransmits == 0 {
		t.Fatal("RTO never fired for the dropped tenant's flow")
	}
	if st := pp.Stats(); st.Unknown == 0 {
		t.Fatalf("preprocessor saw no unknown packets: %+v", st)
	}
	if out := n.Outstanding(); out != 0 {
		t.Fatalf("outstanding = %d after run, want 0 (host drop leaked)", out)
	}
}

// TestWatchdogSeesSwitchAdmissionDrops: a drop outside any port scheduler
// — here the first switch rejecting an unknown tenant — reaches the
// watchdog like every other drop. At 1-in-1 sampling its sampled drops,
// and the tenant's admission drops, equal the network's drop counter.
func TestWatchdogSeesSwitchAdmissionDrops(t *testing.T) {
	cfg, _ := unknownTenantScenario(t)
	w := slo.New(slo.Config{SampleN: 1, Tenants: map[pkt.TenantID]string{1: "a", 2: "b"}})
	cfg.Watch = w
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	dropped := n.Counters().Dropped
	if dropped == 0 {
		t.Fatal("unknown tenant produced no admission drops")
	}
	snap := w.Snapshot()
	if got := snap.Global.SampledDrops; got != dropped {
		t.Errorf("watchdog sampled %d drops, network dropped %d", got, dropped)
	}
	var admission uint64
	for _, ts := range snap.Tenants {
		if ts.Tenant == "b" {
			admission = ts.Drops[sched.CauseAdmission.String()]
		}
	}
	if admission != dropped {
		t.Errorf("tenant b admission drops = %d, network dropped %d", admission, dropped)
	}
}
