package sched

import (
	"math/rand"
	"strings"
	"testing"

	"qvisor/internal/pkt"
)

// The bucket queue's contract, pinned by the tests below:
//
//   - the two-level FFS bitmap always agrees with a naive linear scan of
//     bucket occupancy, from every start index, across wrap-around and
//     overflow rebasing;
//   - dequeue order is exact up to rank quantization: in batch mode the
//     quantized bucket index is non-decreasing, and packets quantizing to
//     the same bucket leave in arrival order (FIFO within a bucket);
//   - conservation: every offered packet is either dequeued or reported
//     through exactly one drop callback — never both, never neither;
//   - the whole structure behaves identically to a reference model that
//     uses linear scans instead of bitmaps;
//   - the steady-state hot path allocates nothing (TestAllocBudgetSchedulers
//     and TestResetRoundTrip cover this via resetCases).

// naiveScan is the obviously-correct reference for the occupancy bitmap: a
// linear walk of the per-bucket chain heads.
func naiveScan(q *BucketQ, start int) int {
	for i := start; i < q.nb; i++ {
		if q.head[i] != nil {
			return i
		}
	}
	return -1
}

// TestBucketQFindFirstProperty cross-checks the hierarchical bitmap against
// the naive scan from every possible start index, after every mutation of a
// randomized enqueue/dequeue sequence. Bucket counts straddle the 64-bit
// word boundaries so the summary level and the masked first word are both
// exercised, and enough dequeues run that the ring wraps and the overflow
// FIFO rebases.
func TestBucketQFindFirstProperty(t *testing.T) {
	for _, nb := range []int{1, 63, 64, 65, 130} {
		rng := rand.New(rand.NewSource(int64(nb)))
		q := NewBucketQ(Config{CapacityBytes: 1 << 30}, nb, 3)
		check := func(step int) {
			for start := 0; start < nb; start++ {
				if got, want := q.occ.FindFirst(start), naiveScan(q, start); got != want {
					t.Fatalf("nb=%d step %d: findFirst(%d)=%d, naive scan says %d",
						nb, step, start, got, want)
				}
			}
		}
		queued := 0
		for step := 0; step < 4000; step++ {
			if queued == 0 || rng.Intn(3) != 0 {
				// Ranks span several horizons so enqueues hit past-rank
				// clamping, in-ring placement, and the overflow FIFO.
				if q.Enqueue(mkpkt(rng.Int63n(int64(nb)*9), 100)) {
					queued++
				}
			} else {
				if q.Dequeue() == nil {
					t.Fatalf("nb=%d step %d: dequeue returned nil with %d queued", nb, step, queued)
				}
				queued--
			}
			check(step)
		}
	}
}

// naiveBucketQ reimplements BucketQ's exact placement and rotation rules
// with slices and linear scans — no bitmaps, no chains — as a differential
// reference model.
type naiveBucketQ struct {
	nb       int
	width    int64
	base     int64
	cur      int
	buckets  [][]*pkt.Packet
	overflow []*pkt.Packet
}

func (m *naiveBucketQ) enqueue(p *pkt.Packet) {
	off := int64(0)
	if p.Rank > m.base {
		off = (p.Rank - m.base) / m.width
	}
	if off >= int64(m.nb) {
		m.overflow = append(m.overflow, p)
		return
	}
	m.buckets[(m.cur+int(off))%m.nb] = append(m.buckets[(m.cur+int(off))%m.nb], p)
}

func (m *naiveBucketQ) dequeue() *pkt.Packet {
	for tries := 0; tries < 2; tries++ {
		for d := 0; d < m.nb; d++ {
			i := (m.cur + d) % m.nb
			if len(m.buckets[i]) > 0 {
				m.base += int64(d) * m.width
				m.cur = i
				p := m.buckets[i][0]
				m.buckets[i] = m.buckets[i][1:]
				return p
			}
		}
		if len(m.overflow) == 0 {
			return nil
		}
		// Rebase exactly like the real scheduler: width-aligned jump to the
		// earliest overflow rank, re-file in arrival order.
		min := m.overflow[0].Rank
		for _, p := range m.overflow {
			if p.Rank < min {
				min = p.Rank
			}
		}
		m.base += (min - m.base) / m.width * m.width
		m.cur = 0
		pending := m.overflow
		m.overflow = nil
		for _, p := range pending {
			m.enqueue(p)
		}
	}
	return nil
}

// TestBucketQMatchesNaiveModel drives the real scheduler and the linear-
// scan reference model through identical randomized workloads and requires
// identical dequeue sequences — packet for packet, including overflow
// rebases and ring wrap-around.
func TestBucketQMatchesNaiveModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nb := 1 + rng.Intn(100)
		width := int64(1 + rng.Intn(16))
		q := NewBucketQ(Config{CapacityBytes: 1 << 30}, nb, width)
		m := &naiveBucketQ{nb: nb, width: width, buckets: make([][]*pkt.Packet, nb)}
		var id uint64
		queued := 0
		for step := 0; step < 5000; step++ {
			if queued == 0 || rng.Intn(3) != 0 {
				id++
				rank := rng.Int63n(int64(nb) * width * 7)
				q.Enqueue(&pkt.Packet{ID: id, Rank: rank, Size: 100})
				m.enqueue(&pkt.Packet{ID: id, Rank: rank, Size: 100})
				queued++
			} else {
				got, want := q.Dequeue(), m.dequeue()
				if got == nil || want == nil {
					t.Fatalf("seed %d step %d: nil dequeue (real=%v model=%v)", seed, step, got, want)
				}
				if got.ID != want.ID {
					t.Fatalf("seed %d step %d: dequeued packet %d (rank %d), model expects %d (rank %d)",
						seed, step, got.ID, got.Rank, want.ID, want.Rank)
				}
				queued--
			}
		}
		for got, want := q.Dequeue(), m.dequeue(); got != nil || want != nil; got, want = q.Dequeue(), m.dequeue() {
			if got == nil || want == nil || got.ID != want.ID {
				t.Fatalf("seed %d drain: real=%v model=%v", seed, got, want)
			}
		}
	}
}

// TestBucketQFIFOWithinBucket: packets quantizing to the same bucket leave
// in arrival order.
func TestBucketQFIFOWithinBucket(t *testing.T) {
	q := NewBucketQ(Config{}, 16, 10)
	for i := uint64(0); i < 20; i++ {
		// Ranks 30..39 all land in bucket 3.
		q.Enqueue(&pkt.Packet{ID: i, Rank: 30 + int64(i)%10, Size: 100})
	}
	for i := uint64(0); i < 20; i++ {
		p := q.Dequeue()
		if p == nil || p.ID != i {
			t.Fatalf("dequeue %d: got %+v, want ID %d (FIFO within bucket)", i, p, i)
		}
	}
}

// TestBucketQBatchDrainOrder: enqueue everything, then drain — the
// quantized bucket index floor(rank/width) must be non-decreasing (the
// structural theorem the conformance suite holds the backend to).
func TestBucketQBatchDrainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewBucketQ(Config{CapacityBytes: 1 << 30}, 64, 5)
	for i := 0; i < 2000; i++ {
		q.Enqueue(mkpkt(rng.Int63n(64*5), 100))
	}
	prev := int64(-1)
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		b := p.Rank / 5
		if b < prev {
			t.Fatalf("batch drain visited bucket %d after %d (rank %d)", b, prev, p.Rank)
		}
		prev = b
	}
}

// TestBucketQOverflowRebase: ranks beyond the horizon wait in the overflow
// FIFO and come back, bucket-ordered, after the ring drains.
func TestBucketQOverflowRebase(t *testing.T) {
	q := NewBucketQ(Config{}, 8, 1) // horizon covers ranks [0,8)
	q.Enqueue(mkpkt(3, 100))
	q.Enqueue(mkpkt(100, 100))
	q.Enqueue(mkpkt(50, 100))
	q.Enqueue(mkpkt(51, 100))
	if q.OverflowLen() != 3 {
		t.Fatalf("OverflowLen=%d, want 3", q.OverflowLen())
	}
	var got []int64
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		got = append(got, p.Rank)
	}
	want := []int64{3, 50, 51, 100}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	if q.Len() != 0 || q.Bytes() != 0 || q.OverflowLen() != 0 {
		t.Fatalf("after drain: Len=%d Bytes=%d OverflowLen=%d, want zeros", q.Len(), q.Bytes(), q.OverflowLen())
	}
}

// TestBucketQConservation: with a tight buffer, every offered packet is
// either dequeued or reported through exactly one drop callback, and the
// pool balances.
func TestBucketQConservation(t *testing.T) {
	pool := pkt.NewPool()
	dropped := 0
	q := NewBucketQ(Config{
		CapacityBytes: 16 * 1500,
		OnDrop: func(p *pkt.Packet, cause DropCause) {
			if cause != CauseOverflow {
				t.Fatalf("drop cause %v, want %v", cause, CauseOverflow)
			}
			dropped++
			pool.Put(p)
		},
	}, 32, 4)
	rng := rand.New(rand.NewSource(11))
	offered, dequeued := 0, 0
	for i := 0; i < 3000; i++ {
		p := pool.Get()
		p.Rank = rng.Int63n(500)
		p.Size = 1500
		offered++
		q.Enqueue(p)
		if rng.Intn(4) == 0 {
			if got := q.Dequeue(); got != nil {
				dequeued++
				pool.Put(got)
			}
		}
	}
	for got := q.Dequeue(); got != nil; got = q.Dequeue() {
		dequeued++
		pool.Put(got)
	}
	if dequeued+dropped != offered {
		t.Fatalf("%d dequeued + %d dropped != %d offered", dequeued, dropped, offered)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("pool leaked %d packets", n)
	}
	if dropped == 0 {
		t.Fatal("tight buffer produced no drops; the test exercised nothing")
	}
}

// TestSchedulerRegistrySpellings is the table-driven parse-coverage wall:
// every registered spelling — simple names and parameterized specs, valid
// and malformed — so a new backend cannot ship without registry coverage.
func TestSchedulerRegistrySpellings(t *testing.T) {
	cases := []struct {
		spec    string
		ok      bool
		errPart string // substring the error must contain when !ok
	}{
		{"pifo", true, ""},
		{"fifo", true, ""},
		{"aifo", true, ""},
		{"drr", true, ""},
		{"admission", true, ""},
		{"admission:4", true, ""},
		{"admission:0", false, "bad admission spec"},
		{"admission:x", false, "bad admission spec"},
		{"admission:", false, "bad admission spec"},
		{"admission:4:4", false, "bad admission spec"},
		{"sppifo:8", true, ""},
		{"sppifo", false, "bad sppifo spec"},
		{"sppifo:0", false, "bad sppifo spec"},
		{"sppifo:x", false, "bad sppifo spec"},
		{"calendar:16:100", true, ""},
		{"calendar", false, "bad calendar spec"},
		{"calendar:16", false, "bad calendar spec"},
		{"calendar:16:0", false, "bad calendar spec"},
		{"calendar:x:1", false, "bad calendar spec"},
		{"bucketq", true, ""},
		{"bucketq:64", true, ""},
		{"bucketq:1", true, ""},
		{"bucketq:4096", true, ""},
		{"bucketq:64,1024", true, ""},
		{"bucketq:64,1", true, ""},
		{"bucketq:0", false, "bad bucketq spec"},
		{"bucketq:4097", false, "bad bucketq spec"},
		{"bucketq:x", false, "bad bucketq spec"},
		{"bucketq:", false, "bad bucketq spec"},
		{"bucketq:64,0", false, "bad bucketq spec"},
		{"bucketq:64,x", false, "bad bucketq spec"},
		{"bucketq:64,8,2", false, "bad bucketq spec"},
		{"bucketq:64:8", false, "bad bucketq spec"},
		{"nope", false, "unknown scheduler"},
		{"", false, "unknown scheduler"},
	}
	for _, tc := range cases {
		s, err := New(tc.spec, Config{})
		if tc.ok {
			if err != nil {
				t.Errorf("New(%q): unexpected error %v", tc.spec, err)
				continue
			}
			if s == nil || s.Name() == "" {
				t.Errorf("New(%q): nil or nameless scheduler", tc.spec)
			}
			continue
		}
		if err == nil {
			t.Errorf("New(%q): want error containing %q, got scheduler %s", tc.spec, tc.errPart, s.Name())
			continue
		}
		if tc.errPart != "" && !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("New(%q): error %q does not contain %q", tc.spec, err, tc.errPart)
		}
	}
}

// TestBucketQSpecSizing: the B,H spelling derives the bucket width from
// the horizon.
func TestBucketQSpecSizing(t *testing.T) {
	s, err := New("bucketq:64,1024", Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := s.(*BucketQ)
	if q.Buckets() != 64 || q.Width() != 16 {
		t.Fatalf("bucketq:64,1024 built %d buckets of width %d, want 64 of 16", q.Buckets(), q.Width())
	}
	s, err = New("bucketq:64,10", Config{}) // horizon narrower than the ring
	if err != nil {
		t.Fatal(err)
	}
	q = s.(*BucketQ)
	if q.Buckets() != 64 || q.Width() != 1 {
		t.Fatalf("bucketq:64,10 built %d buckets of width %d, want 64 of 1", q.Buckets(), q.Width())
	}
}

// BenchmarkBucketQHotPath compares the O(1) bucket queue against the
// heap-based PIFO on the identical steady-state workload with 64k packets
// queued — the regime where the heap's O(log n) per operation shows. Run
// with -benchmem: the budget is 0 allocs/op for both.
func BenchmarkBucketQHotPath(b *testing.B) {
	const backlog = 64 * 1024
	run := func(b *testing.B, s Scheduler) {
		rng := rand.New(rand.NewSource(1))
		pkts := make([]*pkt.Packet, backlog)
		for i := range pkts {
			pkts[i] = &pkt.Packet{ID: uint64(i), Rank: rng.Int63n(1 << 20), Size: 100}
			if !s.Enqueue(pkts[i]) {
				b.Fatal("backlog enqueue refused; raise CapacityBytes")
			}
		}
		// Ranks drift forward by random increments (the timer-wheel
		// workload): the backlog's rank spread stays far below the bucket
		// horizon while the ring rotates through it continuously.
		incs := make([]int64, 4096)
		for i := range incs {
			incs[i] = rng.Int63n(1 << 14)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := s.Dequeue()
			p.Rank += incs[i&4095]
			s.Enqueue(p)
		}
	}
	b.Run("bucketq", func(b *testing.B) {
		run(b, NewBucketQ(Config{CapacityBytes: 1 << 30}, 4096, 256))
	})
	b.Run("pifo", func(b *testing.B) {
		run(b, NewPIFO(Config{CapacityBytes: 1 << 30}))
	})
}
