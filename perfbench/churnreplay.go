package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"time"

	"qvisor/internal/core"
	"qvisor/internal/obs"
	"qvisor/internal/policy"
)

// replayWrites replays the writes a traced run logged on identically
// built twins, timing each layer of the write path through its own entry
// point: the API handler without a socket, the controller's update, and
// inside it resynthesis, the pre-processor update and the epoch publish.
// It also times a metrics scrape, the read path's heaviest request.
func replayWrites(rep *report, res *loopResult) error {
	ops := res.writes
	if len(ops) > replayCap {
		ops = ops[:replayCap]
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	_, srv, reg, err := buildTwin()
	if err != nil {
		return err
	}
	var handler []float64
	for _, op := range ops {
		req := httptest.NewRequest(op.method, op.path, bytes.NewReader(op.body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(w, req)
		handler = append(handler, us(time.Since(t0)))
		rep.attempted++
		if w.Code != 200 {
			rep.failed++
			rep.breach("twin %s %s answered %d", op.method, op.path, w.Code)
		}
	}
	rep.set("api.handler_us", median(handler))
	rep.set("api.wire_us", median(res.writeMs)*1e3-median(handler))
	var scrape []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		if err := reg.WritePrometheus(io.Discard); err != nil {
			return err
		}
		scrape = append(scrape, us(time.Since(t0)))
	}
	rep.set("obs.scrape_us", median(scrape))
	series := 0
	for _, f := range reg.Snapshot().Families {
		series += len(f.Metrics)
	}
	rep.set("obs.series", float64(series))

	ctl, _, _, err := buildTwin()
	if err != nil {
		return err
	}
	var update []float64
	for _, op := range ops {
		if op.batch {
			spec, err := policy.Parse(op.spec)
			if err != nil {
				return err
			}
			if _, err := ctl.ApplyBatch(0, []core.TenantOp{
				{Kind: core.OpLeave, Name: op.left},
				{Kind: core.OpJoin, Tenant: op.tenant.core()},
			}, spec); err != nil {
				return err
			}
			continue
		}
		t0 := time.Now()
		if err := ctl.UpdateTenant(0, op.tenant.core()); err != nil {
			return err
		}
		update = append(update, us(time.Since(t0)))
	}
	rep.set("core.update_us", median(update))

	m := newChurnModel()
	spec, err := policy.Parse(m.spec())
	if err != nil {
		return err
	}
	list := m.tenants()
	var synth []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := core.Synthesize(list, spec, core.SynthOptions{}); err != nil {
			return err
		}
		synth = append(synth, time.Since(t0).Seconds())
	}
	rep.set("core.synth_s", median(synth))
	rs := core.NewResynthesizer(core.SynthOptions{})
	if _, err := rs.Resynthesize(list, spec); err != nil {
		return err
	}
	// The controller's own pre-processor, with metrics on as qvisord runs
	// it, so Update pays for its metric relabelling as it does in service.
	_, pp, err := core.NewController(m.tenants(), spec, core.ControllerOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		return err
	}
	store := core.NewEpochStore(core.UnknownWorst)
	var resynth, ppUpdate, publish []float64
	for _, op := range ops {
		list[op.slot] = op.tenant.core()
		if op.batch {
			if spec, err = policy.Parse(op.spec); err != nil {
				return err
			}
		}
		t0 := time.Now()
		jp, err := rs.Resynthesize(list, spec)
		if err != nil {
			return err
		}
		t1 := time.Now()
		pp.Update(jp)
		t2 := time.Now()
		store.Publish(jp, nil)
		t3 := time.Now()
		resynth = append(resynth, us(t1.Sub(t0)))
		ppUpdate = append(ppUpdate, us(t2.Sub(t1)))
		publish = append(publish, us(t3.Sub(t2)))
	}
	st := rs.Stats()
	rep.set("core.resynth_us", median(resynth))
	rep.set("core.preproc_update_us", median(ppUpdate))
	rep.set("core.epoch_publish_us", median(publish))
	rep.set("core.tier_hit_ratio", ratio(st.TierHits, st.TierHits+st.TierMisses))
	rep.note("replayed %d writes on twins", len(ops))
	return nil
}
