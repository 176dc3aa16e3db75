package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The tests in this file check the engine's timing wheel and far heap
// against refEngine, an obviously-correct sorted-slice model of the same
// API: events fire in (at, seq) order, Run stops at the horizon without
// moving the clock backwards, Reset restarts time and sequence at zero.
// Both sides replay one list of operations, each logging what it observes,
// and the logs must match entry for entry.

// refItem is one event queued in the reference model.
type refItem struct {
	at  Time
	seq uint64
	fn  Event
}

// refEngine keeps its pending events in a slice sorted by (at, seq).
// Cancelled events are removed at once, so a handle is pending exactly
// while its item is in the slice.
type refEngine struct {
	now Time
	seq uint64
	q   []*refItem
}

func (r *refEngine) at(at Time, fn Event) *refItem {
	it := &refItem{at: at, seq: r.seq, fn: fn}
	r.seq++
	i := sort.Search(len(r.q), func(i int) bool {
		q := r.q[i]
		return q.at > at || q.at == at && q.seq > it.seq
	})
	r.q = append(r.q, nil)
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = it
	return it
}

func (r *refEngine) index(it *refItem) int {
	for i, q := range r.q {
		if q == it {
			return i
		}
	}
	return -1
}

func (r *refEngine) step() bool {
	if len(r.q) == 0 {
		return false
	}
	it := r.q[0]
	r.q = r.q[1:]
	r.now = it.at
	it.fn(r.now)
	return true
}

func (r *refEngine) run(horizon Time) Time {
	for len(r.q) > 0 {
		if r.q[0].at > horizon {
			if horizon > r.now {
				r.now = horizon
			}
			return r.now
		}
		r.step()
	}
	return r.now
}

// side is one implementation under replay: the engine or the reference.
type side interface {
	Now() Time
	schedule(at Time, after bool, fn Event) (cancel, pending func() bool)
	Step() bool
	Run(horizon Time) Time
	NextAt() (Time, bool)
	Reset()
}

type engineSide struct{ *Engine }

// schedule goes through After when after is set, At otherwise.
func (s engineSide) schedule(at Time, after bool, fn Event) (cancel, pending func() bool) {
	var h Handle
	if after {
		h = s.After(at-s.Now(), fn)
	} else {
		h = s.At(at, fn)
	}
	return h.Cancel, h.Pending
}

type refSide struct{ *refEngine }

func (s refSide) Now() Time             { return s.now }
func (s refSide) Step() bool            { return s.step() }
func (s refSide) Run(horizon Time) Time { return s.run(horizon) }
func (s refSide) Reset()                { *s.refEngine = refEngine{} }

func (s refSide) NextAt() (Time, bool) {
	if len(s.q) == 0 {
		return 0, false
	}
	return s.q[0].at, true
}

func (s refSide) schedule(at Time, _ bool, fn Event) (cancel, pending func() bool) {
	it := s.at(at, fn)
	cancel = func() bool {
		i := s.index(it)
		if i < 0 {
			return false
		}
		s.q = append(s.q[:i], s.q[i+1:]...)
		return true
	}
	pending = func() bool { return s.index(it) >= 0 }
	return cancel, pending
}

// Operation kinds of a replayed sequence.
const (
	opAt      = iota // schedule at now + delta(a)
	opAfter          // schedule after delta(a)
	opBurst          // schedule b+2 events at now + delta(a)
	opSame           // schedule at the time of scheduled event #b, if not past
	opCancel         // cancel scheduled event #b
	opPending        // query scheduled event #b
	opStep           // Step
	opRun            // Run(now ± delta(a)) or Run(MaxTime), by b%3
	opNextAt         // NextAt
	opReset          // Reset
	numOps
)

type op struct {
	kind uint8
	a, b uint8
}

// deltaTable lists the delays that matter to the wheel: zero, one slot
// and its neighbours, the window edge and ±1 ns around it, one full ring,
// and the simulator's own transmit, propagation, CBR and RTO times.
var deltaTable = []Time{
	0, 1, 2, 63, 64, 65, 127, 128, 1000, 12_304, 24_000,
	wheelSpan - 64, wheelSpan - 1, wheelSpan, wheelSpan + 1, wheelSpan + 64,
	wheelSlots << slotShift, 3 * Millisecond,
}

// delta maps an operand byte to a delay: the lowest values index
// deltaTable, the next 128 are 0–127 ns so that slots fill densely and out
// of order, and the rest spread over two wheel spans.
func delta(a uint8) Time {
	n := 2 * len(deltaTable)
	switch {
	case int(a) < n:
		return deltaTable[int(a)%len(deltaTable)]
	case int(a) < n+128:
		return Time(int(a) - n)
	}
	return Time(a) * (2 * wheelSpan / 256)
}

// childDelay decides whether the event with the given id schedules a
// follow-up when it fires, and how far ahead: a deterministic hash of the
// id, so both sides spawn the same children as long as they fire in the
// same order.
func childDelay(id int) (Time, bool) {
	h := uint64(id)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	h ^= h >> 29
	if h%3 != 0 {
		return 0, false
	}
	return delta(uint8(h >> 8)), true
}

// replay applies ops to s and returns the log of everything observed:
// fired event ids with their times, and the result of every query.
func replay(s side, ops []op) []string {
	var log []string
	type handle struct {
		at              Time
		cancel, pending func() bool
	}
	var hs []handle
	var sched func(at Time, after bool)
	sched = func(at Time, after bool) {
		id := len(hs)
		c, p := s.schedule(at, after, func(now Time) {
			log = append(log, fmt.Sprintf("fire %d@%d", id, now))
			if d, ok := childDelay(id); ok {
				sched(now+d, true)
			}
		})
		hs = append(hs, handle{at, c, p})
	}
	for _, o := range ops {
		now := s.Now()
		switch o.kind % numOps {
		case opAt:
			sched(now+delta(o.a), false)
		case opAfter:
			sched(now+delta(o.a), true)
		case opBurst:
			at := now + delta(o.a)
			for i := 0; i < int(o.b%32)+2; i++ {
				sched(at, false)
			}
		case opSame:
			if len(hs) > 0 {
				if at := hs[int(o.b)%len(hs)].at; at >= now {
					sched(at, false)
				}
			}
		case opCancel:
			if len(hs) > 0 {
				log = append(log, fmt.Sprintf("cancel %v", hs[int(o.b)%len(hs)].cancel()))
			}
		case opPending:
			if len(hs) > 0 {
				log = append(log, fmt.Sprintf("pending %v", hs[int(o.b)%len(hs)].pending()))
			}
		case opStep:
			log = append(log, fmt.Sprintf("step %v now %d", s.Step(), s.Now()))
		case opRun:
			h := MaxTime
			switch o.b % 3 {
			case 0:
				h = now + delta(o.a)
			case 2: // a horizon in the past must not rewind the clock
				h = max(0, now-delta(o.a))
			}
			log = append(log, fmt.Sprintf("run %d", s.Run(h)))
		case opNextAt:
			at, ok := s.NextAt()
			log = append(log, fmt.Sprintf("next %d %v", at, ok))
		case opReset:
			s.Reset()
			log = append(log, "reset")
		}
	}
	log = append(log, fmt.Sprintf("drain %d", s.Run(MaxTime)))
	return log
}

// checkOrder replays ops on a fresh engine and on the reference and
// reports the first divergence.
func checkOrder(t testing.TB, ops []op) {
	got := replay(engineSide{New()}, ops)
	want := replay(refSide{&refEngine{}}, ops)
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			lo := max(0, i-3)
			t.Fatalf("engine diverges from the order oracle at log entry %d:\n  engine: %q\n  oracle: %q",
				i, got[lo:min(i+4, len(got))], want[min(lo, len(want)):min(i+4, len(want))])
		}
	}
	t.Fatalf("engine log is a prefix of the oracle's: %d vs %d entries", len(got), len(want))
}

// deltaIndex returns the operand byte that selects d from deltaTable.
func deltaIndex(d Time) uint8 {
	for i, x := range deltaTable {
		if x == d {
			return uint8(i)
		}
	}
	panic(fmt.Sprintf("delay %v not in deltaTable", d))
}

// randomOps draws a sequence weighted towards scheduling, with steps and
// horizon runs interleaved so the clock wraps the ring many times.
func randomOps(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		k := uint8(rng.Intn(100))
		switch {
		case k < 30:
			k = opAt
		case k < 38:
			k = opAfter
		case k < 42:
			k = opBurst
		case k < 50:
			k = opSame
		case k < 58:
			k = opCancel
		case k < 62:
			k = opPending
		case k < 82:
			k = opStep
		case k < 92:
			k = opRun
		case k < 99:
			k = opNextAt
		default:
			k = opReset
		}
		ops[i] = op{kind: k, a: uint8(rng.Intn(256)), b: uint8(rng.Intn(256))}
	}
	return ops
}

// TestEngineMatchesOrderOracle replays hand-written sequences for each
// case the wheel has to get right, then seeded random sequences, against
// the sorted-slice reference.
func TestEngineMatchesOrderOracle(t *testing.T) {
	span := deltaIndex(wheelSpan)
	cases := map[string][]op{
		"many events at one timestamp": {
			{opBurst, 0, 31}, {opBurst, deltaIndex(64), 31}, {opCancel, 0, 5}, {opBurst, 0, 7},
		},
		"several timestamps in one slot": {
			{opAt, deltaIndex(63), 0}, {opAt, deltaIndex(1), 0}, {opAt, deltaIndex(2), 0},
			{opAt, 0, 0}, {opAt, deltaIndex(1), 0}, {opAt, deltaIndex(63), 0}, {opStep, 0, 0},
			{opAt, deltaIndex(1), 0}, {opAt, 0, 0},
		},
		"dense slots filled out of order": func() []op {
			// In the slot after now's: one late event, then a run of
			// earlier equal-time events, each walking the chain past the
			// ones before it; then an earlier time lands twice around a
			// later one, and must keep its FIFO order.
			ops := []op{{opAt, deltaIndex(127), 0}}
			for i := 0; i < 16; i++ {
				ops = append(ops, op{opAt, deltaIndex(65), 0})
			}
			ops = append(ops, op{opAt, deltaIndex(64), 0}, op{opAt, deltaIndex(127), 0},
				op{opAt, deltaIndex(64), 0})
			// Descending and repeated times in now's slot and the next.
			for i := 0; i < 24; i++ {
				for _, d := range []Time{127, 65, 64, 65, 63, 2, 1, 0} {
					ops = append(ops, op{opAt, deltaIndex(d), 0})
				}
				if i%5 == 4 {
					ops = append(ops, op{opStep, 0, 0}, op{opCancel, 0, uint8(i)})
				}
			}
			return ops
		}(),
		"window edge and ±1 ns": {
			{opAt, span - 1, 0}, {opAt, span, 0}, {opAt, span + 1, 0},
			{opAfter, span + 1, 0}, {opAfter, span, 0}, {opAfter, span - 1, 0},
			{opStep, 0, 0}, {opAt, span, 0}, {opAt, span - 1, 0},
		},
		"far heap and wheel at one instant": {
			// #0 and #1 go to the far heap; once the clock has moved on,
			// #2–#4 land on the same instants in the wheel and must fire
			// after them.
			{opAt, span + 1, 0}, {opAt, span + 2, 0}, {opRun, deltaIndex(1000), 0},
			{opSame, 0, 0}, {opSame, 0, 0}, {opSame, 0, 1}, {opNextAt, 0, 0},
		},
		"ring wrap-around": {
			{opAt, deltaIndex(wheelSlots << slotShift), 0}, {opAt, span - 1, 0},
			{opStep, 0, 0}, {opAt, span - 1, 0}, {opAt, deltaIndex(64), 0},
			{opStep, 0, 0}, {opAt, span - 1, 0}, {opStep, 0, 0}, {opStep, 0, 0},
			{opAt, span - 1, 0}, {opAt, 0, 0},
		},
		"horizon stop then resume": {
			{opAt, deltaIndex(1000), 0}, {opAt, span + 64, 0}, {opRun, deltaIndex(128), 0},
			{opAt, deltaIndex(65), 0}, {opPending, 0, 1}, {opRun, span, 0}, {opRun, deltaIndex(64), 2},
			{opNextAt, 0, 0}, {opAt, 0, 0}, {opRun, 0, 1},
		},
		"reset mid-run": {
			{opBurst, deltaIndex(64), 4}, {opAt, span + 1, 0}, {opStep, 0, 0},
			{opReset, 0, 0}, {opCancel, 0, 1}, {opPending, 0, 6}, {opBurst, deltaIndex(64), 4},
		},
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) { checkOrder(t, ops) })
	}
	for seed := int64(1); seed <= 64; seed++ {
		checkOrder(t, randomOps(rand.New(rand.NewSource(seed)), 400))
	}
}

// FuzzEngineOrder decodes the input as a sequence of three-byte
// operations and checks the engine against the reference on it.
func FuzzEngineOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		var b []byte
		for _, o := range randomOps(rand.New(rand.NewSource(seed)), 64) {
			b = append(b, o.kind, o.a, o.b)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		ops := make([]op, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			ops = append(ops, op{data[i], data[i+1], data[i+2]})
		}
		checkOrder(t, ops)
	})
}
