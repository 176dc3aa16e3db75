package core

import (
	"fmt"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
)

// UnknownTenantAction selects what the pre-processor does with packets
// whose tenant label has no transformation.
type UnknownTenantAction int

const (
	// UnknownWorst re-ranks unknown traffic to one past the joint
	// policy's worst rank, so it only uses leftover capacity (default).
	UnknownWorst UnknownTenantAction = iota
	// UnknownPass forwards the packet with its rank unchanged.
	UnknownPass
	// UnknownDrop rejects the packet.
	UnknownDrop
)

// String implements fmt.Stringer.
func (a UnknownTenantAction) String() string {
	switch a {
	case UnknownWorst:
		return "worst"
	case UnknownPass:
		return "pass"
	case UnknownDrop:
		return "drop"
	default:
		return fmt.Sprintf("unknown-action(%d)", int(a))
	}
}

// ErrUnknownTenant is reported by Process when a packet's tenant has no
// transformation and the action is UnknownDrop.
type ErrUnknownTenant struct {
	Tenant pkt.TenantID
}

// Error implements error.
func (e *ErrUnknownTenant) Error() string {
	return fmt.Sprintf("core: no transformation for tenant %d", e.Tenant)
}

// PreprocStats counts pre-processor activity.
type PreprocStats struct {
	// Processed counts packets whose rank was rewritten.
	Processed uint64
	// Unknown counts packets with an unrecognized tenant label.
	Unknown uint64
	// Clamped counts packets whose incoming rank fell outside the
	// tenant's declared bounds (a signal the monitor uses for
	// adversarial-workload detection, §2).
	Clamped uint64
}

// Preprocessor is QVISOR's data-plane component (§3.3): for each incoming
// packet it extracts the tenant identifier and packet rank, looks up the
// tenant's transformation functions, rewrites the rank, and forwards the
// packet to the hardware scheduler.
//
// The transform table is swapped atomically (from the simulator's
// perspective) by Update when the runtime controller re-synthesizes the
// joint policy.
type Preprocessor struct {
	jp     *JointPolicy
	action UnknownTenantAction
	stats  PreprocStats
	obs    *preprocObs

	// flat is the joint policy compiled to a per-tenant slot table, the
	// only thing Process and ApplyBatch read to rewrite a rank.
	flat *flatTable
	// dropScratch is ApplyBatch's reusable staging area for dropped
	// packets, so the batched path stays allocation-free in steady state.
	dropScratch []*pkt.Packet
}

// flatTransform is one slot of the transform table: Transform's fields
// pre-resolved (weight defaulted, quantization regime chosen, the
// degenerate span/levels cases folded into m=0/div=1) so the per-packet
// rewrite is branch-free arithmetic with no map access, plus the tenant's
// metric handles when the pre-processor is instrumented.
type flatTransform struct {
	lo, hi   int64 // original clamp bounds (for the Clamped counter)
	span     int64 // hi-lo: upper clamp of d
	m        int64 // Levels-1: quantization numerator
	w        int64 // weight, defaulted to 1
	stride   int64
	phase    int64
	offset   int64
	constOut int64 // precomputed output when the quantizer is degenerate
	floatQ   bool  // quantize via the monotone float fallback
	isConst  bool  // degenerate quantizer (span ≤ 0 or Levels ≤ 1)
	valid    bool  // false = no transform for this tenant slot

	// name is the tenant label value the handles below were resolved
	// under; all four are zero on an uninstrumented pre-processor.
	name      string
	processed *obs.Counter
	clamped   *obs.Counter
	shift     *obs.Histogram
}

// flatTable is the compiled joint policy. A dense table (index nil) holds
// the transform of tenant min+i in slot i; a table over an ID range wider
// than maxFlatTenantSpan holds one slot per tenant and maps IDs to slots
// through index.
type flatTable struct {
	min   pkt.TenantID
	slots []flatTransform
	index map[pkt.TenantID]int
}

// maxFlatTenantSpan bounds the dense table: a tenant ID range wider than
// this (possible only with adversarially sparse IDs — synthesis assigns
// them densely) is looked up through an ID-to-slot map instead.
const maxFlatTenantSpan = 1 << 14

// slot returns tenant id's slot, or nil when the policy has no transform
// for it.
func (t *flatTable) slot(id pkt.TenantID) *flatTransform {
	if t.index != nil {
		return t.sparseSlot(id)
	}
	if i := int(id) - int(t.min); uint(i) < uint(len(t.slots)) && t.slots[i].valid {
		return &t.slots[i]
	}
	return nil
}

// sparseSlot is slot's map lookup, kept out of slot so the dense lookup
// inlines into Process.
func (t *flatTable) sparseSlot(id pkt.TenantID) *flatTransform {
	if i, ok := t.index[id]; ok {
		return &t.slots[i]
	}
	return nil
}

// buildFlatTable compiles the joint policy's transform map into slots.
// With o non-nil each slot also gets its tenant's metric handles, carried
// over from prev's slot when the tenant kept its ID and name.
func buildFlatTable(jp *JointPolicy, o *preprocObs, prev *flatTable) *flatTable {
	t := &flatTable{}
	if jp == nil || len(jp.Transforms) == 0 {
		return t
	}
	lo, hi := ^pkt.TenantID(0), pkt.TenantID(0)
	for id := range jp.Transforms {
		lo, hi = min(lo, id), max(hi, id)
	}
	if int(hi-lo) < maxFlatTenantSpan {
		t.min, t.slots = lo, make([]flatTransform, int(hi-lo)+1)
	} else {
		t.slots = make([]flatTransform, 0, len(jp.Transforms))
		t.index = make(map[pkt.TenantID]int, len(jp.Transforms))
	}
	for id, tr := range jp.Transforms {
		var s *flatTransform
		if t.index == nil {
			s = &t.slots[id-lo]
		} else {
			t.index[id] = len(t.slots)
			t.slots = append(t.slots, flatTransform{})
			s = &t.slots[len(t.slots)-1]
		}
		s.lo, s.hi = tr.Lo, tr.Hi
		s.w = 1
		if tr.Weight > 0 {
			s.w = tr.Weight
		}
		s.stride, s.phase, s.offset = tr.Stride, tr.Phase, tr.Offset
		span, m := tr.Hi-tr.Lo, tr.Levels-1
		if span <= 0 || m <= 0 {
			// Degenerate quantizer: Quantize pins the level to 0, which
			// Apply then clamps to Levels-1 when that is lower, so the
			// output is one constant rank — precompute it with the same
			// truncating div/mod Apply uses.
			s.isConst = true
			lvl := int64(0)
			if m < 0 {
				lvl = m
			}
			s.constOut = tr.Offset + (lvl/s.w)*tr.Stride + tr.Phase + lvl%s.w
		} else {
			s.span, s.m = span, m
			s.floatQ = m > (1<<62)/(span+1)
		}
		s.valid = true
		if o != nil {
			o.resolve(s, id, prev)
		}
	}
	return t
}

// Metric families exported by an instrumented pre-processor.
const (
	MetricPreprocProcessed = "qvisor_preproc_processed_total"
	MetricPreprocClamped   = "qvisor_preproc_clamped_total"
	MetricPreprocUnknown   = "qvisor_preproc_unknown_total"
	MetricPreprocRankShift = "qvisor_preproc_rank_shift"
)

// preprocObs is the registry an instrumented pre-processor resolves its
// per-tenant handles from (they live in the flat table's slots), plus the
// unknown-tenant counter.
type preprocObs struct {
	reg     *obs.Registry
	nameOf  func(pkt.TenantID) string
	unknown *obs.Counter
}

// resolve gives slot s tenant id's handles: the previous table's when the
// tenant kept its name there, otherwise the registry's.
func (o *preprocObs) resolve(s *flatTransform, id pkt.TenantID, prev *flatTable) {
	s.name = o.nameOf(id)
	if prev != nil {
		if ps := prev.slot(id); ps != nil && ps.name == s.name {
			s.processed, s.clamped, s.shift = ps.processed, ps.clamped, ps.shift
			return
		}
	}
	l := obs.L("tenant", s.name)
	s.processed = o.reg.Counter(MetricPreprocProcessed,
		"Packets whose rank the pre-processor rewrote.", l)
	s.clamped = o.reg.Counter(MetricPreprocClamped,
		"Packets whose incoming rank fell outside the tenant's declared bounds.", l)
	s.shift = o.reg.Histogram(MetricPreprocRankShift,
		"Absolute rank-rewrite magnitude |joint - tenant| (log2 buckets).", l)
}

// EnableMetrics mirrors the pre-processor's counters into reg, labeled per
// tenant. nameOf maps tenant IDs to the names used as label values; nil
// falls back to "tenant-<id>". A nil registry disables instrumentation
// (the default, zero-overhead state). Each Update keeps the handles of
// tenants whose ID and name are unchanged and resolves the rest, so
// re-synthesized policies keep their series.
func (pp *Preprocessor) EnableMetrics(reg *obs.Registry, nameOf func(pkt.TenantID) string) {
	pp.obs = nil
	if reg != nil {
		if nameOf == nil {
			nameOf = func(id pkt.TenantID) string { return fmt.Sprintf("tenant-%d", id) }
		}
		pp.obs = &preprocObs{
			reg:    reg,
			nameOf: nameOf,
			unknown: reg.Counter(MetricPreprocUnknown,
				"Packets whose tenant label has no transformation."),
		}
	}
	pp.flat = buildFlatTable(pp.jp, pp.obs, nil)
}

// NewPreprocessor returns a pre-processor executing the given joint policy.
func NewPreprocessor(jp *JointPolicy, action UnknownTenantAction) *Preprocessor {
	return &Preprocessor{jp: jp, action: action, flat: buildFlatTable(jp, nil, nil)}
}

// Policy returns the joint policy currently deployed.
func (pp *Preprocessor) Policy() *JointPolicy { return pp.jp }

// Update deploys a new joint policy. Packets processed afterwards use the
// new transformations — the event-driven reconfiguration of §2 (Idea 2).
func (pp *Preprocessor) Update(jp *JointPolicy) {
	pp.jp = jp
	pp.flat = buildFlatTable(jp, pp.obs, pp.flat)
}

// Stats returns a snapshot of the counters.
func (pp *Preprocessor) Stats() PreprocStats { return pp.stats }

// Clone returns a pre-processor with private stats counters that shares
// this one's joint policy and registry instruments. The sharded simulator
// gives each shard a clone so Process never writes shared plain memory:
// the policy is read-only during a run and the registry instruments are
// atomic. Update must not run concurrently with clones processing
// packets. Clone of nil is nil.
func (pp *Preprocessor) Clone() *Preprocessor {
	if pp == nil {
		return nil
	}
	// The flat table is read-only during a run, so clones share it; the
	// drop scratch is per-clone written state and stays private.
	return &Preprocessor{jp: pp.jp, action: pp.action, obs: pp.obs, flat: pp.flat}
}

// Absorb folds another pre-processor's counters into this one — how
// per-shard clone stats roll back up into the parent after a sharded run.
func (pp *Preprocessor) Absorb(st PreprocStats) {
	pp.stats.Processed += st.Processed
	pp.stats.Unknown += st.Unknown
	pp.stats.Clamped += st.Clamped
}

// Process rewrites p.Rank according to the joint policy. It returns false
// if the packet must be dropped (unknown tenant under UnknownDrop).
func (pp *Preprocessor) Process(p *pkt.Packet) bool {
	s := pp.flat.slot(p.Tenant)
	if s == nil {
		return pp.unknown(p)
	}
	// The rewrite is byte-identical to Transform.Apply. The clamp is
	// folded into the clamp-statistics check: in-range ranks (the hot
	// path) take one predicted-not-taken compare and a subtraction, and
	// out-of-range ranks pin d to the boundary without ever subtracting
	// (overflow-safe for extreme ranks, matching Quantize's
	// clamp-before-subtract order).
	in := p.Rank
	d := in - s.lo
	clamped := in < s.lo || in > s.hi
	if clamped {
		pp.stats.Clamped++
		d = 0
		if in > s.hi {
			d = s.span
		}
	}
	if s.isConst {
		p.Rank = s.constOut
	} else {
		var lvl int64
		if s.floatQ {
			lvl = int64(float64(d) / float64(s.span) * float64(s.m))
			if lvl > s.m {
				lvl = s.m
			}
		} else {
			lvl = d * s.m / s.span
		}
		p.Rank = s.offset + (lvl/s.w)*s.stride + s.phase + lvl%s.w
	}
	pp.stats.Processed++
	if pp.obs != nil {
		s.count(p.Rank-in, clamped)
	}
	return true
}

// count records one rewrite, by shift = output - input rank, in the
// tenant's metrics.
func (s *flatTransform) count(shift int64, clamped bool) {
	s.processed.Inc()
	if clamped {
		s.clamped.Inc()
	}
	if shift < 0 {
		shift = -shift
	}
	s.shift.Observe(shift)
}

// unknown applies the unknown-tenant action to p and reports whether p is
// kept.
func (pp *Preprocessor) unknown(p *pkt.Packet) bool {
	pp.stats.Unknown++
	if pp.obs != nil {
		pp.obs.unknown.Inc()
	}
	switch pp.action {
	case UnknownPass:
		return true
	case UnknownDrop:
		return false
	default: // UnknownWorst
		p.Rank = pp.jp.Output.Hi + 1
		return true
	}
}

// ApplyBatch rewrites the ranks of a whole batch of packets in one pass,
// byte-identical to calling Process on each packet in order (same ranks,
// same stats, same metrics, same drop decisions). It returns the number
// of packets kept: ps[:kept] holds them in their original relative order,
// ps[kept:] the dropped packets (unknown tenant under UnknownDrop), also
// in order, for the caller to release. Steady state allocates nothing.
func (pp *Preprocessor) ApplyBatch(ps []*pkt.Packet) int {
	kept := 0
	for _, p := range ps {
		if pp.Process(p) {
			ps[kept] = p
			kept++
		} else {
			pp.dropScratch = append(pp.dropScratch, p)
		}
	}
	if len(pp.dropScratch) > 0 {
		copy(ps[kept:], pp.dropScratch)
		pp.dropScratch = pp.dropScratch[:0]
	}
	return kept
}

// ProcessFrame parses a wire-format QVISOR label at the start of frame,
// applies the transformation, and writes the updated label back in place.
// This is the path a hardware deployment would take; the simulator uses
// Process directly on packet structs.
func (pp *Preprocessor) ProcessFrame(frame []byte) error {
	var l pkt.Label
	if err := l.UnmarshalBinary(frame); err != nil {
		return err
	}
	p := pkt.Packet{Tenant: l.Tenant, Rank: l.Rank}
	if !pp.Process(&p) {
		return &ErrUnknownTenant{Tenant: l.Tenant}
	}
	l.Rank = p.Rank
	return l.Encode(frame)
}
