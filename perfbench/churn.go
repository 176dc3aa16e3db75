package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qvisor/internal/api"
	"qvisor/internal/core"
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
)

// control-churn: 1024 tenants in 32 strict tiers of 32 shared tenants,
// served by a qvisord-shaped API server on loopback TCP and driven by two
// closed-loop connections — a writer of single-tenant bound updates and
// join/leave batches, and a reader of tenants and epochs that scrapes the
// metrics at a fixed interval.
//
// The writer's 80/20 split follows the churn experiment's update mix
// (internal/experiments/churn.go: about 80% single-tenant redefinitions,
// 20% spec changes); here the spec changes are join/leave batches. The
// scrape interval is the default poll of `qvisorctl slo watch`
// (cmd/qvisorctl), the repository's one stated polling rate. The
// reader's 3:1 split of tenant GETs to epoch listings has no source: it
// is an assumption.
const (
	churnTiers   = 32
	churnWidth   = 32
	churnLevels  = 256
	churnBaseHi  = 65535
	churnRounds  = 7           // set-ups before and after the loops; the median is reported
	batchPercent = 20          // writer: share of join/leave batches
	getPercent   = 75          // reader: share of tenant GETs among the reads between scrapes
	scrapeEvery  = time.Second // reader: interval between metrics scrapes
	minWrites    = 20          // fewest writes a run must complete
	heapEvery    = 50          // writes between live-heap probes
	heapWrites   = 250         // the last write followed by a probe
	replayCap    = 300         // most logged writes a traced twin replays
	churnWindows = 10          // equal windows of the loops' time the write figures are medians over
)

// churnTenant is the client's model of one registered tenant.
type churnTenant struct {
	name string
	id   pkt.TenantID
	hi   int64 // declared rank bounds are [0, hi]
}

func (t churnTenant) core() *core.Tenant {
	return &core.Tenant{ID: t.id, Name: t.name, Bounds: rank.Bounds{Lo: 0, Hi: t.hi}, Levels: churnLevels}
}

func (t churnTenant) info() *api.TenantInfo {
	return &api.TenantInfo{Name: t.name, ID: t.id, Bounds: &api.BoundsInfo{Lo: 0, Hi: t.hi}, Levels: churnLevels}
}

// churnModel is the writer's view of the tenant set: slot k of tier
// k/churnWidth. Only the last slot of each tier joins and leaves, swapping
// between two tenants, t<k> and j<k>, so the reader can GET any other
// slot's tenant without racing a departure and the set of names the
// server ever sees stays fixed however fast it serves.
type churnModel struct {
	slots []churnTenant
}

func newChurnModel() *churnModel {
	m := &churnModel{slots: make([]churnTenant, churnTiers*churnWidth)}
	for i := range m.slots {
		m.slots[i] = churnTenant{name: fmt.Sprintf("t%d", i), id: pkt.TenantID(i + 1), hi: churnBaseHi}
	}
	return m
}

// swap returns the tenant that replaces slot k's tenant at a join/leave.
func (m *churnModel) swap(k int) churnTenant {
	if strings.HasPrefix(m.slots[k].name, "t") {
		return churnTenant{name: fmt.Sprintf("j%d", k), id: pkt.TenantID(len(m.slots) + 1 + k/churnWidth), hi: churnBaseHi}
	}
	return churnTenant{name: fmt.Sprintf("t%d", k), id: pkt.TenantID(k + 1), hi: churnBaseHi}
}

func (m *churnModel) spec() string {
	var b strings.Builder
	for i, t := range m.slots {
		if i > 0 {
			if i%churnWidth == 0 {
				b.WriteString(" >> ")
			} else {
				b.WriteString(" + ")
			}
		}
		b.WriteString(t.name)
	}
	return b.String()
}

func (m *churnModel) tenants() []*core.Tenant {
	out := make([]*core.Tenant, len(m.slots))
	for i, t := range m.slots {
		out[i] = t.core()
	}
	return out
}

// writeOp is one logged write: the request sent, and the model change it
// makes, so traced runs can replay it on a twin.
type writeOp struct {
	batch   bool
	slot    int
	tenant  churnTenant // the updated or joining tenant
	left    string      // the departing tenant of a batch
	spec    string      // the spec after a batch
	method  string
	path    string
	body    []byte
	wantGen uint64 // a batch's response must carry a newer epoch than this
}

// next draws the writer's next operation and applies it to the model.
func (m *churnModel) next(rng *rand.Rand) (writeOp, error) {
	if rng.Intn(100) < batchPercent {
		k := rng.Intn(churnTiers)*churnWidth + churnWidth - 1
		old, nt := m.slots[k], m.swap(k)
		m.slots[k] = nt
		op := writeOp{batch: true, slot: k, tenant: nt, left: old.name, spec: m.spec(),
			method: http.MethodPost, path: "/v1/tenants:batch"}
		body, err := json.Marshal(api.BatchRequest{
			Ops: []api.BatchOpInfo{
				{Op: "leave", Name: old.name},
				{Op: "join", Tenant: nt.info()},
			},
			Spec: op.spec,
		})
		op.body = body
		return op, err
	}
	k := rng.Intn(len(m.slots))
	t := m.slots[k]
	nhi := int64(churnBaseHi + 1 + rng.Intn(63))
	if nhi == t.hi {
		nhi++
	}
	t.hi = nhi
	m.slots[k] = t
	body, err := json.Marshal(t.info())
	return writeOp{slot: k, tenant: t, method: http.MethodPut,
		path: "/v1/tenants/" + t.name, body: body}, err
}

// churnServer is one ready qvisord-shaped server.
type churnServer struct {
	http *http.Server
	base string
	done chan error
	// Set-up phases: the controller with its initial synthesis, and the
	// server start up to its first answered request.
	controller, start time.Duration
}

// buildTwin builds the controller and API server exactly as the served
// instance is built, without a socket.
func buildTwin() (*core.Controller, *api.Server, *obs.Registry, error) {
	m := newChurnModel()
	spec, err := policy.Parse(m.spec())
	if err != nil {
		return nil, nil, nil, err
	}
	// Like qvisord: the registry always exists, with runtime gauges, and
	// the flight recorder and the watchdog are attached.
	reg := obs.NewRegistry()
	reg.EnableRuntime()
	ctl, _, err := core.NewController(m.tenants(), spec, core.ControllerOptions{Metrics: reg})
	if err != nil {
		return nil, nil, nil, err
	}
	srv := api.NewServer(ctl, nil)
	srv.AttachTrace(trace.NewFlightRecorder(trace.Options{}))
	names := make(map[pkt.TenantID]string, len(m.slots))
	for _, t := range m.slots {
		names[t.id] = t.name
	}
	srv.AttachSLO(slo.New(slo.Config{Tenants: names}))
	return ctl, srv, reg, nil
}

func startChurnServer() (*churnServer, error) {
	t0 := time.Now()
	_, srv, _, err := buildTwin()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cs := &churnServer{
		http: &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { cs.done <- cs.http.Serve(ln) }()
	client := newClient()
	defer client.CloseIdleConnections()
	if _, _, err := do(client, http.MethodGet, cs.base+"/v1/healthz", nil); err != nil {
		cs.stop()
		return nil, err
	}
	cs.controller, cs.start = t1.Sub(t0), time.Since(t1)
	return cs, nil
}

// stop shuts the server down and waits for its serving goroutine.
func (cs *churnServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := cs.http.Shutdown(ctx)
	if serr := <-cs.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient returns a client holding one keep-alive connection: each
// closed loop is one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// do sends one request, reads the whole response and fails on non-2xx.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, data, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, data, nil
}

// loopResult is what the two closed loops measured.
type loopResult struct {
	writeMs, readMs []float64
	writeAt         []time.Duration // when each write completed, since the loops started
	writes          []writeOp
	batches         int
	scrapes         int
	writeFails      int
	readFails       int
	firstErr        error
	elapsed         time.Duration
	heapPeak        uint64 // live heap, largest of the probes
	model           *churnModel
}

// runLoops drives the server with the writer and the reader for d. With
// logWrites it keeps every write for a later replay.
func runLoops(cs *churnServer, seed int64, d time.Duration, logWrites bool) *loopResult {
	res := &loopResult{model: newChurnModel()}
	var stop atomic.Bool
	var mu sync.Mutex
	// probe keeps reads out of the heap probes, so an in-flight scrape's
	// buffers never count as the server's state.
	var probe sync.RWMutex
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() { // writer
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		rng := rand.New(rand.NewSource(seed))
		var gen uint64
		res.heapPeak = liveHeap()
		for !stop.Load() || len(res.writeMs) < minWrites {
			op, err := res.model.next(rng)
			if err != nil {
				res.writeFails++
				fail(err)
				return
			}
			op.wantGen = gen
			t0 := time.Now()
			_, body, err := do(c, op.method, cs.base+op.path, op.body)
			res.writeMs = append(res.writeMs, float64(time.Since(t0).Nanoseconds())/1e6)
			res.writeAt = append(res.writeAt, time.Since(start))
			if logWrites {
				res.writes = append(res.writes, op)
			}
			if op.batch {
				res.batches++
			}
			if err == nil {
				gen, err = checkWrite(op, body)
			}
			if err != nil {
				res.writeFails++
				fail(err)
			}
			// The server's state grows with the writes it applies (the
			// resynthesizer's memo of tier transforms), so its heap is
			// probed at fixed write counts: a faster server must not
			// read as a bigger one.
			if n := len(res.writeMs); n%heapEvery == 0 && n <= heapWrites {
				probe.Lock()
				res.heapPeak = max(res.heapPeak, liveHeap())
				probe.Unlock()
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		rng := rand.New(rand.NewSource(seed + 1))
		lastScrape := time.Now()
		for !stop.Load() {
			var path string
			switch {
			case time.Since(lastScrape) >= scrapeEvery:
				lastScrape = time.Now()
				path = "/v1/metrics"
				res.scrapes++
			case rng.Intn(100) < getPercent:
				k := rng.Intn(churnTiers*churnWidth - churnTiers)
				k += k / (churnWidth - 1) // skip the churning last slot of each tier
				path = fmt.Sprintf("/v1/tenants/t%d", k)
			default:
				path = "/v1/epochs"
			}
			probe.RLock()
			t0 := time.Now()
			_, _, err := do(c, http.MethodGet, cs.base+path, nil)
			res.readMs = append(res.readMs, float64(time.Since(t0).Nanoseconds())/1e6)
			probe.RUnlock()
			if err != nil {
				res.readFails++
				fail(err)
			}
		}
	}()
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// windowed cuts the writes completed within d into churnWindows equal
// windows and returns, as medians over the windows, the write rate per
// second (writes between a window's first and last completion over the
// time between them) and each window's median and 90th-percentile write
// latency. A passing disturbance of the host then moves one window, not
// the run.
func (res *loopResult) windowed(d time.Duration) (rate, p50, p90 float64) {
	win := d / churnWindows
	lat := make([][]float64, churnWindows)
	at := make([][]time.Duration, churnWindows)
	for i, t := range res.writeAt {
		if k := int(t / win); k < churnWindows {
			lat[k] = append(lat[k], res.writeMs[i])
			at[k] = append(at[k], t)
		}
	}
	var rates, p50s, p90s []float64
	for k, xs := range lat {
		if n := len(xs); n > 1 {
			rates = append(rates, float64(n-1)/(at[k][n-1]-at[k][0]).Seconds())
		}
		if len(xs) > 0 {
			p50s = append(p50s, median(xs))
			p90s = append(p90s, percentile(xs, 0.90))
		}
	}
	return median(rates), median(p50s), median(p90s)
}

// checkWrite verifies one write's response and returns the newest epoch
// generation it proves.
func checkWrite(op writeOp, body []byte) (uint64, error) {
	if op.batch {
		var br api.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return 0, fmt.Errorf("batch response: %w", err)
		}
		if br.Epoch <= op.wantGen {
			return 0, fmt.Errorf("batch answered epoch %d, not newer than %d", br.Epoch, op.wantGen)
		}
		return br.Epoch, nil
	}
	var ti api.TenantInfo
	if err := json.Unmarshal(body, &ti); err != nil {
		return 0, fmt.Errorf("tenant response: %w", err)
	}
	if ti.Bounds == nil || ti.Bounds.Hi != op.tenant.hi {
		return 0, fmt.Errorf("PUT %s answered bounds %+v, want hi %d", op.tenant.name, ti.Bounds, op.tenant.hi)
	}
	return op.wantGen, nil
}

// verifyFinal checks the server ended where the client's model says: the
// same tenants with the same bounds, the same spec, and no epoch left
// draining.
func verifyFinal(cs *churnServer, m *churnModel) error {
	c := newClient()
	defer c.CloseIdleConnections()
	_, body, err := do(c, http.MethodGet, cs.base+"/v1/tenants", nil)
	if err != nil {
		return err
	}
	var got []api.TenantInfo
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got) != len(m.slots) {
		return fmt.Errorf("server lists %d tenants, the client registered %d", len(got), len(m.slots))
	}
	for i, t := range m.slots {
		g := got[i]
		if g.Name != t.name || g.ID != t.id || g.Bounds == nil || g.Bounds.Hi != t.hi {
			return fmt.Errorf("tenant %d is %s id %d bounds %+v, the client expects %s id %d hi %d",
				i, g.Name, g.ID, g.Bounds, t.name, t.id, t.hi)
		}
	}
	_, body, err = do(c, http.MethodGet, cs.base+"/v1/spec", nil)
	if err != nil {
		return err
	}
	var sr api.SpecResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return err
	}
	want, err := policy.Parse(m.spec())
	if err != nil {
		return err
	}
	if sr.Spec != want.String() {
		return fmt.Errorf("server spec differs from the client's")
	}
	_, body, err = do(c, http.MethodGet, cs.base+"/v1/epochs", nil)
	if err != nil {
		return err
	}
	var eg core.EpochGenerations
	if err := json.Unmarshal(body, &eg); err != nil {
		return err
	}
	if len(eg.Draining) != 0 {
		return fmt.Errorf("%d epochs left draining", len(eg.Draining))
	}
	return nil
}

// setupSamples collects control-churn set-up times.
type setupSamples struct {
	total, controller, start []float64
}

// add starts the server churnRounds times, recording each set-up, and
// returns the last one still running when keep is set.
func (ss *setupSamples) add(keep bool) (*churnServer, error) {
	for i := 0; i < churnRounds; i++ {
		cs, err := startChurnServer()
		if err != nil {
			return nil, err
		}
		ss.total = append(ss.total, (cs.controller + cs.start).Seconds())
		ss.controller = append(ss.controller, cs.controller.Seconds())
		ss.start = append(ss.start, cs.start.Seconds())
		if keep && i == churnRounds-1 {
			return cs, nil
		}
		if err := cs.stop(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func runChurn(seed int64, budget time.Duration, traced bool) (*report, error) {
	rep := newReport()
	var ss setupSamples
	cs, err := ss.add(true)
	if err != nil {
		return nil, err
	}
	d := budget
	if traced {
		d = budget / 2
	}
	res := runLoops(cs, seed, d, traced)

	if err := verifyFinal(cs, res.model); err != nil {
		rep.breach("final state: %v", err)
	}
	if err := cs.stop(); err != nil {
		return nil, err
	}
	if _, err := ss.add(false); err != nil {
		return nil, err
	}
	rep.set("setup_s", median(ss.total))
	rep.set("api.start_s", median(ss.start))
	rep.note("set-up: controller %.4f s, server start %.4f s (medians of %d)",
		median(ss.controller), median(ss.start), len(ss.total))
	rep.attempted = len(res.writeMs) + len(res.readMs)
	rep.failed = res.writeFails + res.readFails
	if res.firstErr != nil {
		rep.breach("first failed operation: %v", res.firstErr)
	}
	rep.note("writes %d (%d join/leave batches), reads %d (%d metrics scrapes), in %.2f s",
		len(res.writeMs), res.batches, len(res.readMs), res.scrapes, res.elapsed.Seconds())
	rep.note("update_p50_ms %.4f update_p99_ms %.4f read_p50_ms %.4f read_p99_ms %.4f",
		median(res.writeMs), percentile(res.writeMs, 0.99), median(res.readMs), percentile(res.readMs, 0.99))
	if !traced {
		rate, p50, p90 := res.windowed(d)
		rep.set("ops_per_s", rate)
		rep.set("p50_ms", p50)
		rep.set("p90_ms", p90)
		rep.set("mem_peak_mb", float64(res.heapPeak)/1e6)
		return rep, nil
	}
	rep.set("api.read_p50_ms", median(res.readMs))
	rep.set("api.read_p99_ms", percentile(res.readMs, 0.99))
	if err := replayWrites(rep, res); err != nil {
		return nil, err
	}
	return rep, nil
}
