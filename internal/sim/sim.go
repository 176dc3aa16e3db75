// Package sim provides a deterministic discrete-event simulation engine.
//
// It is the execution substrate for the packet-level network simulator in
// internal/netsim, playing the role that Netbench's event loop plays in the
// QVISOR paper's evaluation. Events are ordered by (time, sequence number),
// so two runs with identical inputs produce identical schedules.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"qvisor/internal/ffs"
)

// Time is simulated time in nanoseconds since the start of the run.
//
// Nanosecond granularity is sufficient for the link speeds the paper uses:
// on a 1 Gbps link one bit lasts exactly 1 ns, and a 1500 B frame 12 µs.
type Time int64

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable simulated time.
const MaxTime = Time(math.MaxInt64)

// Duration converts a simulated time span to a wall-clock time.Duration
// (both are nanosecond counts).
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Event is a callback scheduled to run at a point in simulated time.
type Event func(now Time)

// item is a scheduled event. Items are recycled through the engine's free
// list: the gen counter is bumped on every recycle so stale Handles (held
// across a fire or a Reset) can never cancel an unrelated reincarnation of
// their item.
type item struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically
	fn   Event
	next *item  // next item in the same wheel slot; the tail's is the head
	gen  uint64 // recycle generation; Handles must match to act
	dead bool
}

// before orders items by (at, seq).
func (a *item) before(b *item) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Handle identifies a scheduled event so it can be cancelled. A Handle is
// pinned to one generation of its item, so holding a Handle past the
// event's firing (or past Engine.Reset) is safe: it simply goes inert.
type Handle struct {
	it  *item
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Returns true if the event was
// pending. The callback is released immediately so a cancelled event does
// not pin its captures until the queue drains past it.
func (h Handle) Cancel() bool {
	if h.it == nil || h.it.gen != h.gen || h.it.dead {
		return false
	}
	h.it.dead = true
	h.it.fn = nil
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	return h.it != nil && h.it.gen == h.gen && !h.it.dead
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq), holding
// only the events beyond the timing wheel's span. container/heap is avoided
// deliberately: its interface indirection costs two dynamic calls per sift
// step.
type eventHeap []*item

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			best = r
		}
		if !h[best].before(h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func (h *eventHeap) push(it *item) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() *item {
	old := *h
	n := len(old)
	it := old[0]
	old[0] = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	return it
}

// Timing-wheel geometry. These are constants, not settings: the span
// covers every high-rate event of the simulator — a 1500 B transmit
// completion at 1 Gbps (12.3 µs), propagation (1 µs), a CBR tick (24 µs) —
// and only retransmit timers and pre-scheduled flow starts reach past it.
const (
	slotShift  = 6 // a slot is 1<<slotShift = 64 ns wide
	wheelSlots = ffs.Size
	wheelMask  = wheelSlots - 1

	// wheelSpan is how far ahead of now the wheel reaches: an event with
	// at-now < wheelSpan is filed in the wheel, any later one in the far
	// heap. It is one slot short of the ring (262.08 µs), so the slots of
	// [now, now+wheelSpan) never share a physical index.
	wheelSpan = Time(wheelSlots-1) << slotShift
)

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is ready to use. Engine is not safe for concurrent use;
// all scheduling must happen from event callbacks or before Run.
//
// # Pending set
//
// Pending events live in one of two places, chosen once by At and never
// changed:
//
//   - A timing wheel of 4096 slots, 64 ns each, for events less than
//     wheelSpan (262 µs) ahead of now. Each slot is a circular chain of
//     items kept through its tail pointer (the tail's next is the head),
//     so the usual insertion — no earlier than the slot's last event — is
//     an O(1) append; an earlier one walks the chain from its head to its
//     place, so a slot's chain is always in (at, seq) order. An
//     internal/ffs bitmap of non-empty slots finds the first occupied
//     slot at or after now's slot, wrapping around the ring.
//   - A binary heap for events at or beyond the span: retransmit timers
//     and pre-scheduled flow starts.
//
// The next event is the earlier, by (at, seq), of the first wheel slot's
// head and the heap's top. The wheel's tail pointers cost 32 KB per
// engine.
//
// # Same-timestamp ordering
//
// Events scheduled for the same simulated time fire in FIFO order by
// insertion: every At/After call takes the next value of a monotonic
// sequence counter, and events fire in (time, sequence) order. This is a
// contract, not an accident — the sharded coordinator's barrier merge
// relies on it to make cross-shard arrival order deterministic (arrivals
// are injected in a globally sorted order, and the engine preserves that
// order among equal timestamps). Three interactions are worth spelling
// out:
//
//   - The split between wheel and heap keeps the order exact without ever
//     moving an event from the heap into the wheel. A heap event at time t
//     was inserted while now ≤ t − wheelSpan; a wheel event at t was
//     inserted while now > t − wheelSpan. Since now never decreases, the
//     heap event was inserted first and has the smaller sequence number,
//     so comparing the two heads by (at, seq) fires it first, as FIFO
//     requires.
//   - Cancel does not disturb the order of the surviving events: a
//     cancelled item keeps its place in its slot chain or the heap until
//     it reaches the front, is then discarded, and its sequence number is
//     never reused.
//   - Reset restarts the sequence counter at zero, so a fresh run of the
//     same schedule reproduces the same tie-break order — which is what
//     keeps engine reuse across sweep trials byte-identical.
//
// Fired and cancelled items are recycled through an internal free list,
// so a steady-state schedule/fire cycle performs no allocations; Reset
// rewinds the clock for a fresh run while keeping that free list (and the
// heap's capacity) warm, which is what lets sweep harnesses reuse one
// engine across trials instead of rebuilding it.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	n       int // queued items, wheel and heap, cancelled ones included

	occ  ffs.Bitmap        // bit s set = wheel slot s non-empty
	tail [wheelSlots]*item // per-slot circular chains: tail.next is the head
	far  eventHeap         // events at or beyond now+wheelSpan
	free []*item
}

// New returns an engine with simulated time starting at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (including cancelled
// events not yet discarded).
func (e *Engine) Pending() int { return e.n }

// NextAt returns the timestamp of the earliest pending live event and
// whether one exists. Cancelled events at the front of the queue are
// discarded (and recycled) on the way, so the answer is exact — this is
// what the shard coordinator uses to pick the next conservative window.
func (e *Engine) NextAt() (Time, bool) {
	if it, _ := e.peek(); it != nil {
		return it.at, true
	}
	return 0, false
}

// ErrPastEvent is returned by At when scheduling before the current time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// At schedules fn to run at absolute time at. It panics if at precedes the
// current simulated time, since that would violate causality.
func (e *Engine) At(at Time, fn Event) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: At(%v) before now=%v: %v", at, e.now, ErrPastEvent))
	}
	var it *item
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		it = &item{}
	}
	it.at, it.seq, it.fn, it.dead = at, e.seq, fn, false
	e.seq++
	e.n++
	if at-e.now < wheelSpan {
		e.file(it)
	} else {
		e.far.push(it)
	}
	return Handle{it: it, gen: it.gen}
}

// file links it into its wheel slot's chain. It carries the largest
// sequence number yet, so in (at, seq) order it goes after every item with
// the same or an earlier time.
func (e *Engine) file(it *item) {
	s := int(it.at>>slotShift) & wheelMask
	t := e.tail[s]
	switch {
	case t == nil:
		it.next = it
		e.occ.Set(s)
	case it.at >= t.at:
		it.next = t.next
		t.next = it
	default:
		// Earlier than the slot's last event: walk from the head to the
		// first later item. The tail is later than it, so the walk stops
		// at the tail at the latest.
		p := &t.next
		for (*p).at <= it.at {
			p = &(*p).next
		}
		it.next = *p
		*p = it
		return
	}
	e.tail[s] = it
}

// peek returns the earliest queued live event without removing it, and
// where it lives: its wheel slot, or -1 for the far heap's top. Cancelled
// events found at the front are discarded and recycled on the way. It
// returns nil when nothing live is queued.
func (e *Engine) peek() (*item, int) {
	for e.n > 0 {
		var it *item
		s := e.occ.FindFirst(int(e.now>>slotShift) & wheelMask)
		if s < 0 {
			s = e.occ.FindFirst(0)
		}
		if s >= 0 {
			it = e.tail[s].next
		}
		if len(e.far) > 0 && (it == nil || e.far[0].before(it)) {
			it, s = e.far[0], -1
		}
		if !it.dead {
			return it, s
		}
		e.take(s)
		e.recycle(it)
	}
	return nil, -1
}

// take removes the front event peek reported at s.
func (e *Engine) take(s int) {
	e.n--
	if s < 0 {
		e.far.pop()
		return
	}
	t := e.tail[s]
	if it := t.next; it == t {
		e.tail[s] = nil
		e.occ.Clear(s)
	} else {
		t.next = it.next
	}
}

// recycle returns a removed item to the free list. Bumping the generation
// first makes every outstanding Handle to it inert; the callback is
// dropped so recycled items never pin event captures.
func (e *Engine) recycle(it *item) {
	it.gen++
	it.fn = nil
	it.next = nil
	it.dead = true
	e.free = append(e.free, it)
}

// fire runs a removed event: the clock moves to it, and the item is
// recycled before the callback, which may schedule (and reuse) freely.
func (e *Engine) fire(it *item) {
	e.now = it.at
	fn := it.fn
	e.recycle(it)
	e.fired++
	fn(e.now)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn Event) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: After(%v) negative delay", d))
	}
	return e.At(e.now+d, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue empties, the horizon is
// passed, or Stop is called. Events scheduled exactly at the horizon run.
// When it stops at the horizon the clock moves to the horizon, never
// backwards. It returns the simulated time of the last event executed.
func (e *Engine) Run(horizon Time) Time {
	e.stopped = false
	for !e.stopped {
		it, s := e.peek()
		if it == nil {
			break
		}
		if it.at > horizon {
			// Beyond the horizon: the event stays queued, Handle intact,
			// and a later Run with a larger horizon resumes it.
			if horizon > e.now {
				e.now = horizon
			}
			return e.now
		}
		e.take(s)
		e.fire(it)
	}
	return e.now
}

// Step executes exactly one pending live event, returning false when none
// remain. Useful for tests that need fine-grained control.
func (e *Engine) Step() bool {
	it, s := e.peek()
	if it == nil {
		return false
	}
	e.take(s)
	e.fire(it)
	return true
}

// Reset rewinds the engine to its initial state — time zero, empty queue,
// zero counters — while keeping the item free list and heap capacity, so a
// harness can reuse one engine across many runs without reallocating its
// internals. Every outstanding Handle is invalidated.
func (e *Engine) Reset() {
	for s := e.occ.FindFirst(0); s >= 0; s = e.occ.FindFirst(0) {
		t := e.tail[s]
		for it := t.next; ; {
			next := it.next
			e.recycle(it)
			if it == t {
				break
			}
			it = next
		}
		e.tail[s] = nil
		e.occ.Clear(s)
	}
	for _, it := range e.far {
		e.recycle(it)
	}
	clear(e.far)
	e.far = e.far[:0]
	e.now, e.seq, e.fired, e.stopped, e.n = 0, 0, 0, false, 0
}
