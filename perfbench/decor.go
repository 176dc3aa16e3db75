package main

import (
	"time"

	"qvisor/internal/pkt"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
)

// The traced run times layers from outside the program: it wraps the
// scheduler each port is built with and each tenant's ranker in the
// decorators below, and keeps every measurement in memory until the run
// ends. Timing every call costs a pair of clock reads; clockCost
// calibrates that so it can be taken back out of the self times.

// schedStats accumulates the scheduler layer across every port of a run
// (the simulation is single-threaded, so the ports share it unlocked).
type schedStats struct {
	enq, deq   durHist
	backlogSum uint64 // queue length seen by each Enqueue, summed
}

func (s *schedStats) calls() uint64 { return s.enq.n + s.deq.n }

func (s *schedStats) timeNs() uint64 { return s.enq.sum + s.deq.sum }

// timedSched times Enqueue and Dequeue of the wrapped scheduler and
// forwards everything else. It keeps the Scheduler ownership contract by
// construction: packets and the drop callback never pass through it.
type timedSched struct {
	inner sched.Scheduler
	st    *schedStats
}

// wrapSched returns a timing decorator for inner. The decorator
// implements sched.MetricsSetter exactly when inner does, so the port
// instruments the wrapped scheduler as it would the bare one.
func wrapSched(inner sched.Scheduler, st *schedStats) sched.Scheduler {
	t := &timedSched{inner: inner, st: st}
	if _, ok := inner.(sched.MetricsSetter); ok {
		return &timedSchedMetrics{t}
	}
	return t
}

func (s *timedSched) Enqueue(p *pkt.Packet) bool {
	s.st.backlogSum += uint64(s.inner.Len())
	t0 := time.Now()
	ok := s.inner.Enqueue(p)
	s.st.enq.add(int64(time.Since(t0)))
	return ok
}

func (s *timedSched) Dequeue() *pkt.Packet {
	t0 := time.Now()
	p := s.inner.Dequeue()
	s.st.deq.add(int64(time.Since(t0)))
	return p
}

func (s *timedSched) Len() int     { return s.inner.Len() }
func (s *timedSched) Bytes() int   { return s.inner.Bytes() }
func (s *timedSched) Name() string { return s.inner.Name() }
func (s *timedSched) Reset()       { s.inner.Reset() }

type timedSchedMetrics struct{ *timedSched }

func (s *timedSchedMetrics) SetMetrics(m *sched.Metrics) {
	s.inner.(sched.MetricsSetter).SetMetrics(m)
}

// rankRec is one captured rank computation: the (tenant, rank) pair a
// host handed to the pre-processor, and whether it starts a new send
// batch (a different flow or instant from the previous computation).
type rankRec struct {
	rank   int64
	tenant pkt.TenantID
	first  bool
}

// maxCapture bounds the captured rank stream (about 16 MB).
const maxCapture = 1 << 20

// rankStats accumulates the ranker layer across tenants and captures the
// stream the core replays use.
type rankStats struct {
	h        durHist
	stream   []rankRec
	frozen   bool // stop capturing
	lastNow  sim.Time
	lastFlow uint64
}

// timedRanker times Rank and records its output. The benchmark only wraps
// rankers it builds itself (pFabric, EDF), which keep no per-flow state,
// so the optional rank.FlowReleaser and rank.TransmitObserver hooks have
// nothing to forward.
type timedRanker struct {
	inner  rank.Ranker
	tenant pkt.TenantID
	st     *rankStats
}

func (r *timedRanker) Name() string        { return r.inner.Name() }
func (r *timedRanker) Bounds() rank.Bounds { return r.inner.Bounds() }

func (r *timedRanker) Rank(now sim.Time, f *rank.Flow, payload int) int64 {
	t0 := time.Now()
	v := r.inner.Rank(now, f, payload)
	r.st.h.add(int64(time.Since(t0)))
	if st := r.st; !st.frozen && len(st.stream) < maxCapture {
		first := len(st.stream) == 0 || now != st.lastNow || f.ID != st.lastFlow
		st.stream = append(st.stream, rankRec{rank: v, tenant: r.tenant, first: first})
		st.lastNow, st.lastFlow = now, f.ID
	}
	return v
}

// clockCost is the calibrated cost of timing one call: pair is the host
// time a Now/Since pair adds to the caller, inside the part of it that
// lands in the measured interval.
type clockCost struct {
	pair, inside float64 // ns
}

func calibrateClock() clockCost {
	const n = 1 << 20
	var measured int64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		measured += int64(time.Since(s))
	}
	total := time.Since(t0)
	return clockCost{
		pair:   float64(total.Nanoseconds()) / n,
		inside: float64(measured) / n,
	}
}
