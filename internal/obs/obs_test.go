package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help")
	g := r.Gauge("x", "help")
	h := r.Histogram("x_hist", "help")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All methods must no-op on nil receivers.
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	snap := r.Snapshot()
	if len(snap.Families) != 0 {
		t.Fatalf("nil registry snapshot: %+v", snap)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: %q, %v", sb.String(), err)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("g", "")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "", L("x", "1"), L("y", "2"))
	// Same labels in any order name the same series.
	b := r.Counter("dup_total", "", L("y", "2"), L("x", "1"))
	if a != b {
		t.Fatal("label order must not split series")
	}
	other := r.Counter("dup_total", "", L("x", "other"))
	if a == other {
		t.Fatal("distinct labels must get distinct series")
	}
}

// TestRegistryLabelOrder: every permutation of a label set names one
// series, zero- and one-label series included, and a series keeps its
// own copy of the labels it was registered with.
func TestRegistryLabelOrder(t *testing.T) {
	r := NewRegistry()
	set := []Label{L("a", "1"), L("b", "2"), L("c", "3")}
	for n := 0; n <= len(set); n++ {
		want := r.Histogram("order", "", set[:n]...)
		perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		for _, perm := range perms {
			var ls []Label
			for _, i := range perm {
				if i < n {
					ls = append(ls, set[i])
				}
			}
			if got := r.Histogram("order", "", ls...); got != want {
				t.Fatalf("%d labels in order %v named a second series", n, perm)
			}
		}
	}
	ls := []Label{L("tenant", "x")}
	r.Counter("kept_total", "", ls...).Inc()
	ls[0].Value = "y"
	fams := r.Snapshot().Families
	for _, f := range fams {
		if f.Name == "kept_total" {
			if got := f.Metrics[0].Labels["tenant"]; len(f.Metrics) != 1 || got != "x" {
				t.Fatalf("series labels follow the caller's slice: %+v", f.Metrics)
			}
			return
		}
	}
	t.Fatal("kept_total missing from the snapshot")
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("clash", "")
}

// TestHistogramBucketProperty checks the bucket invariant for arbitrary
// observations: v lands in the unique bucket i with
// BucketUpperBound(i-1) < v <= BucketUpperBound(i).
func TestHistogramBucketProperty(t *testing.T) {
	prop := func(v int64) bool {
		i := BucketIndex(v)
		if i < 0 || i > HistogramBuckets {
			return false
		}
		upper := BucketUpperBound(i)
		if float64(v) > upper {
			return false
		}
		if i > 0 {
			// v must be strictly above the previous bound, except for
			// values clamped into bucket 0 (v <= 1, incl. negatives).
			if float64(v) <= BucketUpperBound(i-1) && i != HistogramBuckets {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramBucketBoundaries pins the exact boundary behavior: powers of
// two are inclusive upper bounds.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4}, {16, 4},
		{1024, 10}, {1025, 11},
		{1 << 46, 46}, {1<<46 + 1, 47}, {1 << 47, 47},
		{1<<47 + 1, HistogramBuckets}, {math.MaxInt64, HistogramBuckets},
	}
	for _, tc := range cases {
		if got := BucketIndex(tc.v); got != tc.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if !math.IsInf(BucketUpperBound(HistogramBuckets), 1) {
		t.Fatal("overflow bucket bound must be +Inf")
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "")
	for _, v := range []int64{1, 2, 3, 1000, 1 << 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1+2+3+1000+1<<50 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Bucket(HistogramBuckets) != 1 {
		t.Fatalf("overflow bucket = %d", h.Bucket(HistogramBuckets))
	}
	var total uint64
	for i := 0; i <= HistogramBuckets; i++ {
		total += h.Bucket(i)
	}
	if total != h.Count() {
		t.Fatalf("bucket total %d != count %d", total, h.Count())
	}
}

// TestConcurrentIncrements hammers one counter, one gauge, and one
// histogram from many goroutines; run under -race this validates the
// atomic hot path, and the counter/histogram totals must be exact.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 2000
	c := r.Counter("conc_total", "", L("k", "v"))
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_hist", "")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(id*perG + j))
				// Concurrent re-registration must return the same series.
				if r.Counter("conc_total", "", L("k", "v")) != c {
					panic("series identity lost under concurrency")
				}
				if j%64 == 0 {
					r.Snapshot() // readers race writers benignly
				}
			}
		}(i)
	}
	wg.Wait()
	const want = goroutines * perG
	if c.Value() != want {
		t.Fatalf("counter = %d, want %d", c.Value(), want)
	}
	if g.Value() != want {
		t.Fatalf("gauge = %v, want %d", g.Value(), want)
	}
	if h.Count() != want {
		t.Fatalf("histogram count = %d, want %d", h.Count(), want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help a", L("t", "x")).Add(7)
	r.Gauge("b", "help b").Set(1.25)
	h := r.Histogram("c", "help c")
	h.Observe(1)
	h.Observe(100)
	h.Observe(1 << 60) // overflow bucket forces the +Inf bound through JSON
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Families) != 3 {
		t.Fatalf("families = %d", len(back.Families))
	}
	// Families are sorted by name: a_total, b, c.
	if back.Families[0].Metrics[0].Value != 7 || back.Families[1].Metrics[0].Value != 1.25 {
		t.Fatalf("values: %+v", back.Families)
	}
	hist := back.Families[2].Metrics[0]
	if hist.Count != 3 || hist.Sum != 1+100+1<<60 {
		t.Fatalf("histogram: %+v", hist)
	}
	last := hist.Buckets[len(hist.Buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.Cumulative != 3 {
		t.Fatalf("+Inf bucket: %+v", last)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_total", "total things", L("tenant", "web")).Add(3)
	r.Counter("t_total", "total things", L("tenant", "a\"b\\c\nd")).Inc()
	r.Gauge("t_gauge", "a gauge").Set(0.5)
	h := r.Histogram("t_hist", "a histogram")
	h.Observe(1)
	h.Observe(3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP t_total total things\n",
		"# TYPE t_total counter\n",
		`t_total{tenant="web"} 3` + "\n",
		`t_total{tenant="a\"b\\c\nd"} 1` + "\n",
		"# TYPE t_gauge gauge\n",
		"t_gauge 0.5\n",
		"# TYPE t_hist histogram\n",
		`t_hist_bucket{le="1"} 1` + "\n",
		`t_hist_bucket{le="4"} 2` + "\n",
		`t_hist_bucket{le="+Inf"} 2` + "\n",
		"t_hist_sum 4\n",
		"t_hist_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Deterministic output.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if out != sb2.String() {
		t.Fatal("exposition must be deterministic")
	}
}
