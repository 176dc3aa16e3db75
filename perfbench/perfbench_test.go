package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
)

// dropRec is one drop callback: which packet, why, and how many Enqueue
// calls had been made when it fired.
type dropRec struct {
	id    uint64
	cause sched.DropCause
	at    int
}

// schedTrace drives a seeded tape of enqueues and dequeues through s and
// records everything observable: each Enqueue's verdict, each Dequeue's
// packet, and every drop callback.
type schedTrace struct {
	accepted []bool
	dequeued []uint64
	drops    []dropRec
	left     int
}

func driveSched(t *testing.T, build func(sched.Config) sched.Scheduler, wrap bool) schedTrace {
	t.Helper()
	var tr schedTrace
	enqueues := 0
	cfg := sched.Config{CapacityBytes: 6000, OnDrop: func(p *pkt.Packet, c sched.DropCause) {
		tr.drops = append(tr.drops, dropRec{p.ID, c, enqueues})
	}}
	s := build(cfg)
	if wrap {
		s = wrapSched(s, &schedStats{})
	}
	rng := rand.New(rand.NewSource(42))
	for i := uint64(1); i <= 4000; i++ {
		if rng.Intn(3) == 0 {
			if p := s.Dequeue(); p != nil {
				tr.dequeued = append(tr.dequeued, p.ID)
			}
			continue
		}
		p := &pkt.Packet{ID: i, Size: 200 + rng.Intn(1300), Rank: int64(rng.Intn(1 << 16)),
			Tenant: pkt.TenantID(1 + rng.Intn(2))}
		enqueues++
		ok := s.Enqueue(p)
		tr.accepted = append(tr.accepted, ok)
		if !ok {
			// A refused packet's one drop callback fires before Enqueue
			// returns; that callback is its release point.
			n := 0
			for _, d := range tr.drops {
				if d.id == p.ID {
					n++
				}
			}
			if n != 1 || tr.drops[len(tr.drops)-1].id != p.ID {
				t.Fatalf("refused packet %d saw %d drop callbacks", p.ID, n)
			}
		}
	}
	tr.left = s.Len()
	return tr
}

// backends are the schedulers the fabric workloads deploy, plus the other
// registry disciplines.
func backends() map[string]func(sched.Config) sched.Scheduler {
	return map[string]func(sched.Config) sched.Scheduler{
		"pifo":    func(c sched.Config) sched.Scheduler { return sched.NewPIFO(c) },
		"bucketq": func(c sched.Config) sched.Scheduler { return sched.NewBucketQ(c, 1024, 64) },
		"fifo":    func(c sched.Config) sched.Scheduler { return sched.NewFIFO(c) },
		"sppifo":  func(c sched.Config) sched.Scheduler { return sched.NewSPPIFO(c, 8) },
		"aifo":    func(c sched.Config) sched.Scheduler { return sched.NewAIFO(sched.AIFOConfig{Config: c}) },
	}
}

// TestSchedDecoratorKeepsContract checks that the timing decorator is
// invisible to the port: the same tape yields the same verdicts, the same
// dequeue order and the same drop callbacks (one per dropped packet, with
// its cause) with and without it.
func TestSchedDecoratorKeepsContract(t *testing.T) {
	for name, build := range backends() {
		t.Run(name, func(t *testing.T) {
			bare := driveSched(t, build, false)
			wrapped := driveSched(t, build, true)
			if !reflect.DeepEqual(bare, wrapped) {
				t.Fatalf("decorated scheduler diverged from the bare one")
			}
			if len(bare.drops) == 0 {
				t.Fatalf("tape produced no drops; the contract went untested")
			}
			seen := map[uint64]bool{}
			for _, d := range bare.drops {
				if seen[d.id] {
					t.Fatalf("packet %d dropped twice", d.id)
				}
				seen[d.id] = true
			}
			for _, id := range bare.dequeued {
				if seen[id] {
					t.Fatalf("packet %d both dequeued and dropped", id)
				}
			}
			if got := len(bare.dequeued) + len(bare.drops) + bare.left; got != len(bare.accepted) {
				t.Fatalf("%d packets offered, %d accounted for", len(bare.accepted), got)
			}
		})
	}
}

type plainSched struct{ sched.Scheduler }

// TestSchedDecoratorForwardsMetrics checks the decorator implements
// sched.MetricsSetter exactly when the wrapped scheduler does, and that
// instruments attached through it record what the bare scheduler's do.
func TestSchedDecoratorForwardsMetrics(t *testing.T) {
	if _, ok := wrapSched(plainSched{sched.NewFIFO(sched.Config{})}, &schedStats{}).(sched.MetricsSetter); ok {
		t.Fatal("decorator claims MetricsSetter for a scheduler without it")
	}
	snapshot := func(wrap bool) obs.Snapshot {
		reg := obs.NewRegistry()
		var s sched.Scheduler = sched.NewPIFO(sched.Config{})
		if wrap {
			s = wrapSched(s, &schedStats{})
		}
		ms, ok := s.(sched.MetricsSetter)
		if !ok {
			t.Fatal("scheduler does not implement MetricsSetter")
		}
		m := sched.NewMetrics(reg, obs.L("role", "leaf"))
		ms.SetMetrics(m)
		for i := 0; i < 100; i++ {
			s.Enqueue(&pkt.Packet{ID: uint64(i), Size: 1000, Rank: int64(i % 7)})
			if i%3 == 0 {
				s.Dequeue()
			}
		}
		m.Flush()
		return reg.Snapshot()
	}
	bare, wrapped := snapshot(false), snapshot(true)
	if len(bare.Families) == 0 {
		t.Fatal("bare scheduler recorded no metrics")
	}
	if !reflect.DeepEqual(bare, wrapped) {
		t.Fatal("metrics attached through the decorator differ from the bare scheduler's")
	}
}

// TestRankerDecoratorIsTransparent checks the rankers the benchmark wraps
// have no optional hooks the decorator would hide.
func TestRankerDecoratorIsTransparent(t *testing.T) {
	for _, w := range []*fabricWorkload{fabricPaper(), fabricObserved()} {
		pf, edf := w.rankers()
		for _, r := range []rank.Ranker{pf, edf} {
			if _, ok := r.(rank.FlowReleaser); ok {
				t.Errorf("%s ranker %s implements FlowReleaser", w.name, r.Name())
			}
			if _, ok := r.(rank.TransmitObserver); ok {
				t.Errorf("%s ranker %s implements TransmitObserver", w.name, r.Name())
			}
		}
	}
}

// shortened returns a workload with a short traffic horizon, for tests.
func shortened(w *fabricWorkload, horizon sim.Time) *fabricWorkload {
	w.exp.Horizon = horizon
	return w
}

// TestTracedDigestMatchesUntraced runs each fabric workload with and
// without the traced run's decorators and tickers: the simulated outputs
// and, on fabric-observed, every exported metric must be identical.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, w := range []*fabricWorkload{
		shortened(fabricPaper(), 4*sim.Millisecond),
		shortened(fabricObserved(), 20*sim.Millisecond),
	} {
		t.Run(w.name, func(t *testing.T) {
			plain, err := w.setup(3, runOpts{observers: w.observers})
			if err != nil {
				t.Fatal(err)
			}
			want := w.execute(plain, nil)
			if err := want.check(); err != nil {
				t.Fatal(err)
			}

			ss, rs := &schedStats{}, &rankStats{}
			traced, err := w.setup(3, runOpts{observers: w.observers, hooks: hooks{
				sched: func(s sched.Scheduler) sched.Scheduler { return wrapSched(s, ss) },
				ranker: func(id pkt.TenantID, r rank.Ranker) rank.Ranker {
					return &timedRanker{inner: r, tenant: id, st: rs}
				},
			}})
			if err != nil {
				t.Fatal(err)
			}
			tk := startTicker(traced.eng, w.exp.Horizon/pendingSamples, w.exp.Horizon)
			got := w.execute(traced, tk)
			if got.digest != want.digest {
				t.Fatalf("traced digest %016x, untraced %016x", got.digest, want.digest)
			}
			if got.events != want.events {
				t.Fatalf("traced run fired %d simulation events, untraced %d", got.events, want.events)
			}
			if ss.calls() == 0 || rs.h.n == 0 || len(rs.stream) == 0 {
				t.Fatal("decorators saw no calls")
			}
			if tk.pendingMax == 0 {
				t.Fatal("ticker never saw a pending event")
			}
			if w.observers {
				if !reflect.DeepEqual(plain.reg.Snapshot(), traced.reg.Snapshot()) {
					t.Fatal("traced run exported different metrics: the decorator lost scheduler instrumentation")
				}
			}
		})
	}
}

// TestChurnLoopsAgreeWithModel runs the control-churn closed loops
// briefly and checks the server ends where the client's model says.
func TestChurnLoopsAgreeWithModel(t *testing.T) {
	cs, err := startChurnServer()
	if err != nil {
		t.Fatal(err)
	}
	res := runLoops(cs, 5, scrapeEvery+200*time.Millisecond, true)
	if res.firstErr != nil {
		t.Fatal(res.firstErr)
	}
	if err := verifyFinal(cs, res.model); err != nil {
		t.Fatal(err)
	}
	if err := cs.stop(); err != nil {
		t.Fatal(err)
	}
	if len(res.writeMs) < minWrites || len(res.readMs) == 0 || res.scrapes == 0 {
		t.Fatalf("%d writes and %d reads (%d scrapes) completed", len(res.writeMs), len(res.readMs), res.scrapes)
	}
}

// TestWindowed checks the control-churn write figures are medians over
// windows, so one disturbed window does not move them.
func TestWindowed(t *testing.T) {
	res := &loopResult{}
	for k := 0; k < churnWindows; k++ {
		lat, step := 10.0, 100*time.Millisecond
		if k == 3 { // a disturbed window: slow and sparse
			lat, step = 50, 500*time.Millisecond
		}
		for at := step / 2; at < time.Second; at += step {
			res.writeAt = append(res.writeAt, time.Duration(k)*time.Second+at)
			res.writeMs = append(res.writeMs, lat)
		}
	}
	res.writeAt = append(res.writeAt, churnWindows*time.Second) // past the last window
	res.writeMs = append(res.writeMs, 1000)
	rate, p50, p90 := res.windowed(churnWindows * time.Second)
	if math.Abs(rate-10) > 1e-9 || p50 != 10 || p90 != 10 {
		t.Fatalf("windowed = %v writes/s, p50 %v, p90 %v; want 10, 10, 10", rate, p50, p90)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestDurHistQuantile(t *testing.T) {
	var h durHist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want) > 0.02*want {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", q, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	var faster, slower, noisy []float64
	var pairs [][2]float64
	for i, v := range steady {
		faster = append(faster, v*1.2)
		slower = append(slower, v*0.8)
		noisy = append(noisy, v*(0.5+float64(i%2)))
		pairs = append(pairs, [2]float64{v, v * 1.2})
	}
	if v := judge(d, steady, faster, pairs); v.call != "better" || v.wins != 10 {
		t.Errorf("faster: %+v", v)
	}
	if v := judge(d, steady, slower, nil); v.call != "worse" {
		t.Errorf("slower: %+v", v)
	}
	if v := judge(d, steady, noisy, nil); v.call != "unresolved" {
		t.Errorf("noisy: %+v", v)
	}
	if v := judge(d, steady, steady, nil); v.call != "same" {
		t.Errorf("same: %+v", v)
	}
}

func TestParseResults(t *testing.T) {
	out := strings.Join([]string{
		"fingerprint: cpu=\"x\"",
		"workload fabric-paper seed 3 seconds 10 trace 0",
		"metric ops_per_s 1 1/s",
		`{"correct":true,"attempted":2,"failed":0,"metrics":{"ops_per_s":{"value":5,"unit":"1/s"}}}`,
		"workload fabric-paper seed 3 seconds 10 trace 1",
		`{"correct":true,"attempted":2,"failed":0,"metrics":{"sim.events":{"value":7,"unit":"count"}}}`,
	}, "\n")
	rs, err := parseResults(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].workload != wlPaper || rs[0].seed != 3 || rs[0].traced != 0 ||
		rs[0].res.Metrics["ops_per_s"].Value != 5 || rs[1].traced != 1 || rs[1].res.Metrics["sim.events"].Value != 7 {
		t.Fatalf("parsed %+v", rs)
	}
}

// runs makes ten seeded results of one workload whose metric reads
// scale times a steady series.
func runs(traced int, metric string, scale float64, failed int) []runResult {
	var rs []runResult
	for i, v := range []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} {
		rs = append(rs, runResult{workload: wlPaper, seed: int64(i), traced: traced, res: resultJSON{
			Correct: true, Attempted: 10, Failed: failed,
			Metrics: map[string]metricJSON{metric: {Value: v * scale}},
		}})
	}
	return rs
}

// verdicts returns the verdict column of writeComparison's rows, by trace
// flag and metric.
func verdicts(t *testing.T, old, chg []runResult) map[string]string {
	t.Helper()
	var b strings.Builder
	writeComparison(&b, old, chg)
	got := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 3 && f[0] == wlPaper && f[2] != "operations" {
			got[f[1]+" "+f[2]] = f[len(f)-1]
		}
	}
	return got
}

func TestCompareFailures(t *testing.T) {
	old := runs(0, "ops_per_s", 1, 0)
	if got := verdicts(t, old, runs(0, "ops_per_s", 1.2, 0)); got["0 ops_per_s"] != "better" {
		t.Fatalf("a clean faster change: %v", got)
	}
	if got := verdicts(t, old, runs(0, "ops_per_s", 1.2, 1)); got["0 ops_per_s"] != "failed" {
		t.Errorf("a faster change with more failed operations: %v", got)
	}
	chg := runs(0, "ops_per_s", 1.2, 0)
	chg[3].res.Correct = false
	if got := verdicts(t, old, chg); got["0 ops_per_s"] != "failed" {
		t.Errorf("a faster change with an incorrect run: %v", got)
	}
}

func TestCompareKeepsTraceFlagsApart(t *testing.T) {
	old := append(runs(0, "ops_per_s", 1, 0), runs(1, "sim.events", 1, 0)...)
	chg := append(runs(0, "ops_per_s", 1, 0), runs(1, "sim.events", 1, 0)...)
	var b strings.Builder
	writeComparison(&b, old, chg)
	got := verdicts(t, old, chg)
	if len(got) != 2 || got["0 ops_per_s"] != "same" {
		t.Fatalf("rows %v in\n%s", got, b.String())
	}
	if strings.Contains(b.String(), "0 [0, 0]") {
		t.Errorf("a metric missing from one trace flag's runs entered the medians:\n%s", b.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables
// and workload names here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	strip := func(ds []metricDef, bound bool) []metricDef {
		var out []metricDef
		for _, d := range ds {
			s := metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
			if bound {
				s.Bound = d.Bound
			}
			out = append(out, s)
		}
		return out
	}
	if got, want := strip(bj.EndToEnd, true), strip(endToEnd, true); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %+v, benchmark reports %+v", got, want)
	}
	if got, want := strip(bj.PerLayer, false), strip(perLayer, false); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %+v, benchmark reports %+v", got, want)
	}
}
