package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"qvisor/internal/pkt"
	"qvisor/internal/sim"
)

// TestRTORequeueMatchesFullScan drives one large flow's send state by hand
// — new sends, retransmissions, selective acks — and checks after every
// retransmit timeout that the packets onRTO queued, starting its scan at
// the first unacked index, are exactly those a scan from index 0 finds in
// flight, in the same order. A zero window keeps trySend from sending, so
// the test alone moves packets into flight.
func TestRTORequeueMatchesFullScan(t *testing.T) {
	n := &Network{cfg: Config{Window: 0, RTO: sim.Millisecond}, eng: sim.New()}
	const npkts = 4096
	sf := &sendFlow{host: &Host{net: n}, npkts: npkts, state: make([]uint8, npkts)}
	sf.rtoFn = sf.onRTO
	rng := rand.New(rand.NewSource(1))
	for round := 0; sf.una < npkts-1; round++ {
		// Send some packets, retransmissions first, as trySend would.
		for k := rng.Intn(96); k > 0; k-- {
			idx, _ := sf.nextToSend()
			if idx < 0 {
				break
			}
			sf.state[idx] = stInflight
			sf.inflight++
		}
		// Selective acks, biased towards the oldest outstanding packets so
		// una advances; the last packet is never acked, so the flow stays
		// open.
		for k := rng.Intn(48); k > 0 && sf.nextUnsent > sf.una; k-- {
			span := sf.nextUnsent - sf.una
			idx := sf.una + rng.Intn(min(span, 1+rng.Intn(2)*span/4+4))
			if idx < npkts-1 {
				sf.onAck(0, idx)
			}
		}
		for i := 0; i < sf.una; i++ {
			if sf.state[i] != stAcked {
				t.Fatalf("round %d: packet %d below una=%d is not acked", round, i, sf.una)
			}
		}
		var want []int
		for idx := 0; idx < sf.nextUnsent; idx++ {
			if sf.state[idx] == stInflight {
				want = append(want, idx)
			}
		}
		before := len(sf.retxQueue)
		sf.onRTO(0)
		if got := sf.retxQueue[before:]; !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("round %d: onRTO queued %v, a full scan gives %v", round, got, want)
		}
		if sf.inflight != 0 {
			t.Fatalf("round %d: %d packets still in flight after the timeout", round, sf.inflight)
		}
	}
}

// TestPktRingWrapsAcrossGrowth pushes and pops with the head wrapped
// around the buffer while it grows from 4 to 64 slots, checking FIFO order
// and that the length stays a power of two, which the index masks need.
func TestPktRingWrapsAcrossGrowth(t *testing.T) {
	var r pktRing
	pkts := make([]pkt.Packet, 256)
	next, want := 0, 0
	push := func(k int) {
		for ; k > 0; k-- {
			r.push(&pkts[next])
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			if got := r.pop(); got != &pkts[want] {
				t.Fatalf("pop %d returned the wrong packet", want)
			}
			want++
		}
	}
	push(3)
	pop(2) // head at 2: the next growth copies a wrapped ring
	for _, size := range []int{4, 8, 16, 32, 64} {
		push(size - r.n) // fill to the brim, wrapping past the end
		if len(r.buf) != size || r.head == 0 {
			t.Fatalf("ring at %d/%d with head %d, want a full, wrapped ring of %d", r.n, len(r.buf), r.head, size)
		}
		push(1) // grow
		if l := len(r.buf); l&(l-1) != 0 {
			t.Fatalf("buffer length %d is not a power of two", l)
		}
		pop(size/2 + 1) // move the head into the middle again
	}
	pop(r.n)
	if r.pop() != nil || r.n != 0 {
		t.Fatal("drained ring still yields packets")
	}
}
