// Package obs is QVISOR's observability layer: a small, dependency-free
// metrics subsystem with monotonic counters, gauges, and fixed-bucket
// log2 histograms behind a Registry.
//
// The design follows the paper's runtime loop (§2, Idea 2): QVISOR
// "monitors the ranks of incoming packets", so the data plane needs cheap
// per-packet bookkeeping that the control plane can export. Instruments are
// updated with single atomic operations on the hot path and read
// consistently enough for telemetry via Snapshot (per-instrument atomic
// loads; a snapshot is not a point-in-time cut across instruments, which is
// the standard Prometheus client contract).
//
// Every instrument handle is nil-safe: methods on a nil *Counter, *Gauge,
// or *Histogram are no-ops, and a nil *Registry returns nil handles. Code
// can therefore instrument unconditionally —
//
//	c := reg.Counter("qvisor_sched_enqueued_total", "…")
//	c.Inc() // no-op (one predictable branch) when reg was nil
//
// — which keeps the uninstrumented hot path within noise of the
// pre-observability build (see BenchmarkObsHotPath in the repo root).
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to an instrument. A set of labels
// distinguishes series within a metric family, Prometheus-style:
// qvisor_sched_dropped_total{scheduler="sppifo8"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil *Counter ignores updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up and down. The zero value
// is ready to use; a nil *Gauge ignores updates.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (compare-and-swap loop; gauges are not hot-path).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// HistogramBuckets is the number of finite log2 buckets. Bucket i counts
// observations v with 2^(i-1) < v ≤ 2^i (bucket 0 counts v ≤ 1); values
// above 2^(HistogramBuckets-1) land in the overflow (+Inf) bucket. 48
// buckets cover rank deltas up to 2^47 and sojourn times beyond a day of
// simulated nanoseconds.
const HistogramBuckets = 48

// Histogram is a fixed-bucket log2 histogram for non-negative integer
// observations (rank deltas, queue depths, sojourn nanoseconds). Negative
// observations clamp into the first bucket. A nil *Histogram ignores
// updates.
type Histogram struct {
	buckets [HistogramBuckets + 1]atomic.Uint64 // +1: overflow (+Inf)
	count   atomic.Uint64
	sum     atomic.Int64
}

// BucketIndex returns the bucket for observation v: the smallest i with
// v ≤ 2^i, capped at the overflow bucket. It is exported so single-writer
// callers can stage bucket counts locally and merge them with AddBuckets.
func BucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	// bits.Len64(v-1) is ceil(log2(v)) for v ≥ 2.
	i := bits.Len64(uint64(v - 1))
	if i > HistogramBuckets {
		return HistogramBuckets
	}
	return i
}

// BucketUpperBound returns bucket i's inclusive upper bound (math.Inf(1)
// for the overflow bucket).
func BucketUpperBound(i int) float64 {
	if i >= HistogramBuckets {
		return math.Inf(1)
	}
	return float64(uint64(1) << uint(i))
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[BucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// AddBuckets merges pre-aggregated observations: counts[i] observations in
// bucket i (as assigned by BucketIndex) plus their total sum. This is the
// batch path for single-writer stages that count locally on the hot path
// and publish at sync points; counts longer than the bucket array are
// truncated.
func (h *Histogram) AddBuckets(counts []uint64, sum int64) {
	if h == nil {
		return
	}
	var total uint64
	for i, n := range counts {
		if i > HistogramBuckets {
			break
		}
		if n != 0 {
			h.buckets[i].Add(n)
			total += n
		}
	}
	if total != 0 {
		h.count.Add(total)
		h.sum.Add(sum)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the (non-cumulative) count of bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil {
		return 0
	}
	return h.buckets[i].Load()
}

// metricType enumerates instrument kinds.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// series is one labeled instrument within a family.
type series struct {
	labels []Label
	sig    string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	series map[string]*series
}

// Registry holds metric families and hands out instrument handles. All
// methods are safe for concurrent use. A nil *Registry returns nil handles
// from every constructor, so callers need no nil checks of their own.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	// Runtime telemetry (see EnableRuntime). The handles are written once
	// under mu before rtEnabled is observable, then only read.
	rtEnabled    bool
	rtLastGC     uint32
	rtHeap       *Gauge
	rtGoroutines *Gauge
	rtGC         *Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// signature serializes labels into a map key. Labels are sorted by key so
// the same set in any order names the same series.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup finds or creates the series for (name, labels). It panics on a
// type conflict — registering the same name as two different instrument
// kinds is a programming error, as in the Prometheus client.
func (r *Registry) lookup(name, help string, typ metricType, labels []Label) *series {
	// Most series carry zero or one label, which need no sorted copy; a
	// new series copies the caller's slice below instead.
	if len(labels) > 1 {
		labels = sortLabels(labels)
	}
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.typ, typ))
	}
	if f.help == "" {
		f.help = help
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...), sig: sig}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = &Histogram{}
		}
		f.series[sig] = s
	}
	return s
}

// Counter returns the counter named name with the given labels, creating it
// on first use. Repeated calls with the same name and label set return the
// same counter. Returns nil when the registry is nil.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, labels).c
}

// Gauge returns the gauge named name with the given labels. Returns nil
// when the registry is nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, labels).g
}

// Histogram returns the log2 histogram named name with the given labels.
// Returns nil when the registry is nil.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeHistogram, labels).h
}

// BucketValue is one histogram bucket in a snapshot: the inclusive upper
// bound (serialized as Prometheus' le) and the cumulative count of
// observations ≤ it. The bound marshals as a string because the overflow
// bucket's +Inf has no JSON number representation.
type BucketValue struct {
	UpperBound float64 `json:"-"`
	Cumulative uint64  `json:"cumulative"`
}

// MarshalJSON implements json.Marshaler, writing the upper bound as
// Prometheus' le string ("1024", "+Inf").
func (b BucketValue) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(struct {
		Le         string `json:"le"`
		Cumulative uint64 `json:"cumulative"`
	}{le, b.Cumulative})
}

// UnmarshalJSON implements json.Unmarshaler (round-trips MarshalJSON).
func (b *BucketValue) UnmarshalJSON(data []byte) error {
	var wire struct {
		Le         string `json:"le"`
		Cumulative uint64 `json:"cumulative"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	if wire.Le == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(wire.Le, 64)
		if err != nil {
			return fmt.Errorf("obs: bad bucket bound %q: %w", wire.Le, err)
		}
		b.UpperBound = v
	}
	b.Cumulative = wire.Cumulative
	return nil
}

// MetricValue is one series in a snapshot. Value is set for counters and
// gauges; Count/Sum/Buckets for histograms.
type MetricValue struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   uint64            `json:"count,omitempty"`
	Sum     int64             `json:"sum,omitempty"`
	Buckets []BucketValue     `json:"buckets,omitempty"`
}

// FamilySnapshot is all series of one metric name.
type FamilySnapshot struct {
	Name    string        `json:"name"`
	Type    string        `json:"type"`
	Help    string        `json:"help,omitempty"`
	Metrics []MetricValue `json:"metrics"`
}

// Snapshot is a JSON-serializable dump of the whole registry, ordered by
// family name and label signature for deterministic output.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Snapshot captures every instrument's current value. A nil registry
// yields an empty snapshot. When runtime telemetry is enabled, the
// runtime instruments are refreshed first, so snapshots (and the
// Prometheus exposition built on them) always carry current values.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.refreshRuntime()
	// One locked pass copies everything the map and family structs can
	// mutate under concurrent registration (the series maps and the
	// lazily backfilled help strings); instrument values are atomics and
	// are read after unlocking.
	type famView struct {
		name   string
		typ    metricType
		help   string
		series []*series
	}
	r.mu.Lock()
	fams := make([]famView, 0, len(r.families))
	for _, f := range r.families {
		fv := famView{name: f.name, typ: f.typ, help: f.help,
			series: make([]*series, 0, len(f.series))}
		for _, s := range f.series {
			fv.series = append(fv.series, s)
		}
		fams = append(fams, fv)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Type: f.typ.String(), Help: f.help}
		sers := f.series
		sort.Slice(sers, func(i, j int) bool { return sers[i].sig < sers[j].sig })
		for _, s := range sers {
			mv := MetricValue{}
			if len(s.labels) > 0 {
				mv.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					mv.Labels[l.Key] = l.Value
				}
			}
			switch f.typ {
			case typeCounter:
				mv.Value = float64(s.c.Value())
			case typeGauge:
				mv.Value = s.g.Value()
			case typeHistogram:
				mv.Count = s.h.Count()
				mv.Sum = s.h.Sum()
				var cum uint64
				for i := 0; i <= HistogramBuckets; i++ {
					n := s.h.Bucket(i)
					cum += n
					// Skip runs of empty buckets to keep snapshots small;
					// the first and overflow buckets always appear so the
					// bucket list is never empty and ends at +Inf.
					if n == 0 && i != 0 && i != HistogramBuckets {
						continue
					}
					mv.Buckets = append(mv.Buckets, BucketValue{
						UpperBound: BucketUpperBound(i),
						Cumulative: cum,
					})
				}
			}
			fs.Metrics = append(fs.Metrics, mv)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
