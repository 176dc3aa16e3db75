package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

// Tests for the batched pre-processor path: ApplyBatch must be
// byte-identical to calling Process on each packet in order, and both to
// Transform.Apply straight from the joint policy — same output ranks, same
// stats counters, same metric series, same drop decisions — across every
// UnknownTenantAction, on both the dense flat table and the ID-to-slot map
// of a sparse tenant range, and regardless of where batch boundaries fall.

// batchPolicy synthesizes a policy exercising every flat-table regime:
// weighted sharing (Weight > 1), a strict tier, a single-level tenant
// (degenerate quantizer → constant output), and a wide span.
func batchPolicy(t testing.TB) *JointPolicy {
	t.Helper()
	tenants := []*Tenant{
		{ID: 1, Name: "T1", Bounds: rank.Bounds{Lo: 7, Hi: 9}, Levels: 3},
		{ID: 2, Name: "T2", Bounds: rank.Bounds{Lo: 1, Hi: 3}, Levels: 2},
		{ID: 3, Name: "T3", Bounds: rank.Bounds{Lo: 0, Hi: 1 << 16}, Levels: 64},
		{ID: 4, Name: "T4", Bounds: rank.Bounds{Lo: 5, Hi: 5}, Levels: 1},
	}
	jp, err := Synthesize(tenants, policy.MustParse("T1 >> T2*2 + T3 >> T4"), SynthOptions{Base: 1})
	if err != nil {
		t.Fatal(err)
	}
	return jp
}

// sparsePolicy has tenant IDs far enough apart that buildFlatTable refuses
// a dense table and indexes the slots through its ID-to-slot map.
func sparsePolicy(t *testing.T) *JointPolicy {
	t.Helper()
	tenants := []*Tenant{
		{ID: 1, Name: "A", Bounds: rank.Bounds{Lo: 0, Hi: 100}, Levels: 8},
		{ID: 1 + maxFlatTenantSpan, Name: "B", Bounds: rank.Bounds{Lo: 0, Hi: 100}, Levels: 8},
	}
	return mustSynth(t, tenants, "A >> B", SynthOptions{Base: 1})
}

// mixPackets builds a seeded random packet mix over the policy's tenants
// plus unknown tenants, with ranks spanning in-bounds, clamped-low,
// clamped-high, and int64-extreme values.
func mixPackets(jp *JointPolicy, rng *rand.Rand, n int) []*pkt.Packet {
	ids := make([]pkt.TenantID, 0, len(jp.Transforms)+2)
	for id := range jp.Transforms {
		ids = append(ids, id)
	}
	ids = append(ids, 999, pkt.NoTenant) // unknown tenants
	ps := make([]*pkt.Packet, n)
	for i := range ps {
		var r int64
		switch rng.Intn(8) {
		case 0:
			r = rng.Int63n(1 << 40)
		case 1:
			r = -rng.Int63n(1 << 40)
		case 2:
			r = math.MaxInt64 - rng.Int63n(4)
		case 3:
			r = -(int64(1) << 62)
		default:
			r = rng.Int63n(1 << 17)
		}
		ps[i] = &pkt.Packet{
			ID:     uint64(i),
			Tenant: ids[rng.Intn(len(ids))],
			Rank:   r,
			Size:   64,
		}
	}
	return ps
}

// copyPackets deep-copies a batch so both processing paths see identical
// inputs.
func copyPackets(ps []*pkt.Packet) []*pkt.Packet {
	out := make([]*pkt.Packet, len(ps))
	for i, p := range ps {
		c := *p
		out[i] = &c
	}
	return out
}

// specBatch is the contract every rewrite path must meet, written
// without the flat table: Transform.Apply per packet straight from
// jp.Transforms, the unknown-tenant action, and ApplyBatch's kept/dropped
// compaction. With reg non-nil it also counts into reg the series an
// instrumented pre-processor exports, registering every tenant's series
// up front as EnableMetrics does.
func specBatch(jp *JointPolicy, action UnknownTenantAction, reg *obs.Registry, ps []*pkt.Packet) (int, PreprocStats) {
	var st PreprocStats
	series := func(id pkt.TenantID) (*obs.Counter, *obs.Counter, *obs.Histogram) {
		l := obs.L("tenant", fmt.Sprintf("tenant-%d", id))
		return reg.Counter(MetricPreprocProcessed, "", l), reg.Counter(MetricPreprocClamped, "", l),
			reg.Histogram(MetricPreprocRankShift, "", l)
	}
	unknown := reg.Counter(MetricPreprocUnknown, "")
	for id := range jp.Transforms {
		series(id)
	}
	kept := 0
	var dropped []*pkt.Packet
	for _, p := range ps {
		tr, ok := jp.Transforms[p.Tenant]
		if !ok {
			st.Unknown++
			unknown.Inc()
			if action == UnknownDrop {
				dropped = append(dropped, p)
				continue
			}
			if action == UnknownWorst {
				p.Rank = jp.Output.Hi + 1
			}
			ps[kept] = p
			kept++
			continue
		}
		processed, clamped, shift := series(p.Tenant)
		in := p.Rank
		p.Rank = tr.Apply(in)
		st.Processed++
		processed.Inc()
		if in < tr.Lo || in > tr.Hi {
			st.Clamped++
			clamped.Inc()
		}
		if d := p.Rank - in; d < 0 {
			shift.Observe(-d)
		} else {
			shift.Observe(d)
		}
		ps[kept] = p
		kept++
	}
	copy(ps[kept:], dropped)
	return kept, st
}

// processEach is ApplyBatch's contract spelled out over Process: one call
// per packet in order, with the kept/dropped compaction.
func processEach(pp *Preprocessor, ps []*pkt.Packet) int {
	kept := 0
	var dropped []*pkt.Packet
	for _, p := range ps {
		if pp.Process(p) {
			ps[kept] = p
			kept++
		} else {
			dropped = append(dropped, p)
		}
	}
	copy(ps[kept:], dropped)
	return kept
}

// seriesValues is reg's snapshot without help strings, so registries
// that registered the same series under different help text compare equal.
func seriesValues(reg *obs.Registry) []obs.FamilySnapshot {
	fams := reg.Snapshot().Families
	for i := range fams {
		fams[i].Help = ""
	}
	return fams
}

// checkBatch runs one seeded packet mix three ways — ApplyBatch, Process
// per packet, and specBatch — and fails on any difference in kept count,
// packet order, ranks, stats, or (when instrumented) metric series.
func checkBatch(t *testing.T, jp *JointPolicy, action UnknownTenantAction, seed int64, n int, instrumented bool) {
	t.Helper()
	batch := NewPreprocessor(jp, action)
	each := NewPreprocessor(jp, action)
	var batchReg, eachReg, specReg *obs.Registry
	if instrumented {
		batchReg, eachReg, specReg = obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
		batch.EnableMetrics(batchReg, nil)
		each.EnableMetrics(eachReg, nil)
	}
	ps := mixPackets(jp, rand.New(rand.NewSource(seed)), n)
	eachPs, specPs := copyPackets(ps), copyPackets(ps)

	kept := batch.ApplyBatch(ps)
	keptEach := processEach(each, eachPs)
	keptSpec, stSpec := specBatch(jp, action, specReg, specPs)

	if kept != keptEach || kept != keptSpec {
		t.Fatalf("%v seed %d: kept %d, Process kept %d, spec kept %d", action, seed, kept, keptEach, keptSpec)
	}
	for i := range ps {
		if ps[i].ID != eachPs[i].ID || ps[i].Rank != eachPs[i].Rank ||
			ps[i].ID != specPs[i].ID || ps[i].Rank != specPs[i].Rank {
			t.Fatalf("%v seed %d: packet[%d] = id %d rank %d, Process id %d rank %d, spec id %d rank %d",
				action, seed, i, ps[i].ID, ps[i].Rank, eachPs[i].ID, eachPs[i].Rank, specPs[i].ID, specPs[i].Rank)
		}
	}
	if batch.Stats() != each.Stats() || batch.Stats() != stSpec {
		t.Fatalf("%v seed %d: stats %+v, Process %+v, spec %+v", action, seed, batch.Stats(), each.Stats(), stSpec)
	}
	if instrumented {
		got := seriesValues(batchReg)
		if want := seriesValues(eachReg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v seed %d: series %+v, Process %+v", action, seed, got, want)
		}
		if want := seriesValues(specReg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v seed %d: series %+v, spec %+v", action, seed, got, want)
		}
	}
}

var allActions = []UnknownTenantAction{UnknownWorst, UnknownPass, UnknownDrop}

// TestApplyBatchMatchesProcess: differential check across every unknown-
// tenant action and several seeds — the batched path must reproduce the
// per-packet path and Transform.Apply exactly (ranks, order, drop set,
// stats).
func TestApplyBatchMatchesProcess(t *testing.T) {
	jp := batchPolicy(t)
	if buildFlatTable(jp, nil, nil).index != nil {
		t.Fatal("batchPolicy unexpectedly got a sparse table")
	}
	for _, action := range allActions {
		for seed := int64(1); seed <= 4; seed++ {
			checkBatch(t, jp, action, seed, 500, false)
		}
	}
}

// TestApplyBatchSparseFallback: a sparse tenant-ID range replaces the
// dense index with the ID-to-slot map; ApplyBatch must still match
// Process and Transform.Apply exactly, with and without metrics.
func TestApplyBatchSparseFallback(t *testing.T) {
	jp := sparsePolicy(t)
	if ft := buildFlatTable(jp, nil, nil); ft.index == nil || len(ft.slots) != len(jp.Transforms) {
		t.Fatalf("table over tenant span %d: index %v, %d slots; want an ID-to-slot map over %d slots",
			maxFlatTenantSpan, ft.index, len(ft.slots), len(jp.Transforms))
	}
	for _, action := range allActions {
		checkBatch(t, jp, action, 7, 300, false)
		checkBatch(t, jp, action, 7, 300, true)
	}
}

// TestApplyBatchInstrumented: with metrics on, ApplyBatch stays on the
// flat table and its per-tenant counters, rank-shift histograms and
// unknown counter equal both a per-packet Process run and Transform.Apply.
func TestApplyBatchInstrumented(t *testing.T) {
	jp := batchPolicy(t)
	for _, action := range allActions {
		for seed := int64(11); seed <= 13; seed++ {
			checkBatch(t, jp, action, seed, 400, true)
		}
	}
}

// TestApplyBatchBoundaryMetamorphic: splitting one stream into batches at
// any boundary must not change any packet's output rank or the aggregate
// stats — batching is an amortization, never a semantic boundary.
func TestApplyBatchBoundaryMetamorphic(t *testing.T) {
	jp := batchPolicy(t)
	base := mixPackets(jp, rand.New(rand.NewSource(21)), 96)
	whole := NewPreprocessor(jp, UnknownDrop)
	wholePs := copyPackets(base)
	whole.ApplyBatch(wholePs)
	rankOf := make(map[uint64]int64, len(wholePs))
	for _, p := range wholePs {
		rankOf[p.ID] = p.Rank
	}
	for cut := 0; cut <= len(base); cut += 7 {
		split := NewPreprocessor(jp, UnknownDrop)
		ps := copyPackets(base)
		split.ApplyBatch(ps[:cut])
		split.ApplyBatch(ps[cut:])
		for _, p := range ps {
			if p.Rank != rankOf[p.ID] {
				t.Fatalf("cut %d: packet %d rank %d, want %d", cut, p.ID, p.Rank, rankOf[p.ID])
			}
		}
		if split.Stats() != whole.Stats() {
			t.Fatalf("cut %d: stats %+v, want %+v", cut, split.Stats(), whole.Stats())
		}
	}
}

// TestAllocBudgetPreprocBatch pins the batched pre-processor at 0 allocs
// per batch once the drop scratch has warmed.
func TestAllocBudgetPreprocBatch(t *testing.T) {
	jp := batchPolicy(t)
	pp := NewPreprocessor(jp, UnknownDrop)
	ps := mixPackets(jp, rand.New(rand.NewSource(31)), 256)
	batch := make([]*pkt.Packet, len(ps))
	run := func() {
		copy(batch, ps)
		pp.ApplyBatch(batch)
	}
	run() // warm the drop scratch
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("ApplyBatch allocates %.1f times per batch, want 0", avg)
	}
}

// TestAllocBudgetPreprocBatchInstrumented pins the batched pre-processor
// with metrics on at 0 allocs per batch: the per-tenant handles sit in the
// flat table's slots, so counting takes no lookup and no allocation.
func TestAllocBudgetPreprocBatchInstrumented(t *testing.T) {
	jp := batchPolicy(t)
	pp := NewPreprocessor(jp, UnknownDrop)
	pp.EnableMetrics(obs.NewRegistry(), nil)
	ps := mixPackets(jp, rand.New(rand.NewSource(31)), 256)
	batch := make([]*pkt.Packet, len(ps))
	run := func() {
		copy(batch, ps)
		pp.ApplyBatch(batch)
	}
	run() // warm the drop scratch
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("instrumented ApplyBatch allocates %.1f times per batch, want 0", avg)
	}
}

// BenchmarkPreprocBatch measures the batched path, without and with
// metrics, against the equivalent per-packet Process loop over the same
// 256-packet batch.
func BenchmarkPreprocBatch(b *testing.B) {
	jp := batchPolicy(b)
	ps := mixPackets(jp, rand.New(rand.NewSource(41)), 256)
	batch := make([]*pkt.Packet, len(ps))
	b.Run("batch", func(b *testing.B) {
		pp := NewPreprocessor(jp, UnknownWorst)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(batch, ps)
			pp.ApplyBatch(batch)
		}
	})
	b.Run("batch-metrics", func(b *testing.B) {
		pp := NewPreprocessor(jp, UnknownWorst)
		pp.EnableMetrics(obs.NewRegistry(), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(batch, ps)
			pp.ApplyBatch(batch)
		}
	})
	b.Run("process", func(b *testing.B) {
		pp := NewPreprocessor(jp, UnknownWorst)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(batch, ps)
			for _, p := range batch {
				pp.Process(p)
			}
		}
	})
}
