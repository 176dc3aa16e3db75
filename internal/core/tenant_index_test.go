package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

// Tests for the controller's tenant-ID index and the metric handles the
// pre-processor keeps in its flat table's slots: lookups by ID at scale,
// state after a failed deployment and after ID reuse, handle identity
// across a seeded mutation sequence, and what one update costs.

// groupSpec joins names into shared tiers of g tenants each, highest
// tier first.
func groupSpec(t testing.TB, names []string, g int) *policy.Spec {
	t.Helper()
	var sb strings.Builder
	for i, name := range names {
		if i > 0 {
			if i%g == 0 {
				sb.WriteString(" >> ")
			} else {
				sb.WriteString(" + ")
			}
		}
		sb.WriteString(name)
	}
	spec, err := policy.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func indexTenant(id pkt.TenantID, name string, hi int64) *Tenant {
	return &Tenant{ID: id, Name: name, Bounds: rank.Bounds{Lo: 0, Hi: hi}, Levels: 16}
}

// checkSlotHandles fails unless every tenant of the deployed policy has a
// slot labeled with its registered name whose handles are the very
// instruments reg hands out for that name.
func checkSlotHandles(t *testing.T, c *Controller, reg *obs.Registry) {
	t.Helper()
	ts := c.Tenants()
	if len(ts) != len(c.Policy().Transforms) {
		t.Fatalf("%d tenants registered, %d transforms deployed", len(ts), len(c.Policy().Transforms))
	}
	for _, tn := range ts {
		s := c.pp.flat.slot(tn.ID)
		if s == nil {
			t.Fatalf("tenant %q (ID %d) has no slot", tn.Name, tn.ID)
		}
		l := obs.L("tenant", tn.Name)
		if s.name != tn.Name ||
			s.processed != reg.Counter(MetricPreprocProcessed, "", l) ||
			s.clamped != reg.Counter(MetricPreprocClamped, "", l) ||
			s.shift != reg.Histogram(MetricPreprocRankShift, "", l) {
			t.Fatalf("slot of tenant %q (ID %d) is labeled %q or holds handles of another series", tn.Name, tn.ID, s.name)
		}
	}
}

// TestControllerSlotHandlesPinned drives a seeded mix of UpdateTenant,
// join/leave ApplyBatch (reusing freed IDs half the time) and UpdateSpec
// calls, and after each one checks that every slot's handles are exactly
// the registry's instruments for its tenant's current name.
func TestControllerSlotHandlesPinned(t *testing.T) {
	const n = 48
	reg := obs.NewRegistry()
	var tenants []*Tenant
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("t%d", i))
		tenants = append(tenants, indexTenant(pkt.TenantID(i+1), names[i], 1000))
	}
	c, _, err := NewController(tenants, groupSpec(t, names, 8), ControllerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	checkSlotHandles(t, c, reg)
	rng := rand.New(rand.NewSource(5))
	nextID, g := pkt.TenantID(n+1), 8
	for step := 0; step < 60; step++ {
		k := rng.Intn(len(names))
		switch rng.Intn(3) {
		case 0:
			old, _ := c.Tenant(names[k])
			if err := c.UpdateTenant(0, indexTenant(old.ID, old.Name, 1000+rng.Int63n(500))); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 1:
			old, _ := c.Tenant(names[k])
			id := old.ID
			if rng.Intn(2) == 0 {
				id, nextID = nextID, nextID+1
			}
			names[k] = fmt.Sprintf("n%d", step)
			if _, err := c.ApplyBatch(0, []TenantOp{
				{Kind: OpLeave, Name: old.Name},
				{Kind: OpJoin, Tenant: indexTenant(id, names[k], 1000)},
			}, groupSpec(t, names, g)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 2:
			g = 2 + rng.Intn(10)
			if err := c.UpdateSpec(0, groupSpec(t, names, g)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		checkSlotHandles(t, c, reg)
	}
}

// TestControllerObserveByID: at 1024 tenants every ID's observations land
// in its own tenant's monitor, an unknown ID is ignored, and Observe
// allocates nothing.
func TestControllerObserveByID(t *testing.T) {
	tenants, spec := benchPolicy(t, 1024)
	c, _, err := NewController(tenants, spec, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tn := range tenants {
		for k := 0; k <= i%3; k++ {
			c.Observe(tn.ID, int64(k))
		}
	}
	c.Observe(4096, 1)
	for i, tn := range tenants {
		if got, want := c.Monitor(tn.Name).Count(), uint64(i%3+1); got != want {
			t.Fatalf("tenant %q saw %d observations, want %d", tn.Name, got, want)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { c.Observe(tenants[700].ID, 5) }); avg != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", avg)
	}
}

// reuseController builds tenants A, B, C (IDs 1-3) under "A >> B + C",
// deploying each epoch onto two strict-priority queues so that a
// three-tier spec fails to publish.
func reuseController(t *testing.T) (*Controller, *Preprocessor, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c, pp, err := NewController([]*Tenant{
		indexTenant(1, "A", 100), indexTenant(2, "B", 100), indexTenant(3, "C", 100),
	}, policy.MustParse("A >> B + C"), ControllerOptions{
		Metrics:     reg,
		EpochDeploy: &EpochDeploy{Backend: BackendSPQueues, Options: DeployOptions{Queues: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, pp, reg
}

// processed returns the processed-packet count of tenant name's series.
func processed(reg *obs.Registry, name string) uint64 {
	return reg.Counter(MetricPreprocProcessed, "", obs.L("tenant", name)).Value()
}

// TestControllerFailedDeployKeepsIndex: a batch that would hand ID 2 from
// B to D fails at EpochDeploy, so the ID index, the slot handles, Observe
// and the metric series all stay with B.
func TestControllerFailedDeployKeepsIndex(t *testing.T) {
	c, pp, reg := reuseController(t)
	before := *pp.flat.slot(2)
	version := c.Version()
	_, err := c.ApplyBatch(0, []TenantOp{
		{Kind: OpLeave, Name: "B"},
		{Kind: OpJoin, Tenant: indexTenant(2, "D", 100)},
	}, policy.MustParse("A >> D >> C"))
	if err == nil {
		t.Fatal("three strict tiers deployed onto two queues")
	}
	if c.Version() != version {
		t.Fatalf("version %d after a failed deploy, want %d", c.Version(), version)
	}
	if got := c.tenantName(2); got != "B" {
		t.Fatalf("ID 2 names %q after a failed deploy, want B", got)
	}
	if got := *pp.flat.slot(2); got != before {
		t.Fatalf("slot of ID 2 changed after a failed deploy: %+v, want %+v", got, before)
	}
	checkSlotHandles(t, c, reg)
	c.Observe(2, 50)
	if got := c.Monitor("B").Count(); got != 1 {
		t.Fatalf("B's monitor saw %d observations, want 1", got)
	}
	pp.Process(&pkt.Packet{Tenant: 2, Rank: 50})
	if b, d := processed(reg, "B"), processed(reg, "D"); b != 1 || d != 0 {
		t.Fatalf("ID 2 counted as B %d, D %d; want 1, 0", b, d)
	}
}

// TestControllerIDReuseMovesSeries: after B leaves and D joins under B's
// old ID, ID 2's packets and observations count under D while B's series
// stops moving.
func TestControllerIDReuseMovesSeries(t *testing.T) {
	c, pp, reg := reuseController(t)
	pp.Process(&pkt.Packet{Tenant: 2, Rank: 50})
	if _, err := c.ApplyBatch(0, []TenantOp{
		{Kind: OpLeave, Name: "B"},
		{Kind: OpJoin, Tenant: indexTenant(2, "D", 100)},
	}, policy.MustParse("A >> D + C")); err != nil {
		t.Fatal(err)
	}
	checkSlotHandles(t, c, reg)
	for i := 0; i < 3; i++ {
		pp.Process(&pkt.Packet{Tenant: 2, Rank: 50})
		c.Observe(2, 50)
	}
	if b, d := processed(reg, "B"), processed(reg, "D"); b != 1 || d != 3 {
		t.Fatalf("processed B %d, D %d; want 1, 3", b, d)
	}
	if got := c.Monitor("D").Count(); got != 3 {
		t.Fatalf("D's monitor saw %d observations, want 3", got)
	}
}

// TestAllocBudgetPreprocUpdate: redeploying an unchanged policy costs the
// same number of allocations at 64 and at 1024 tenants — every handle is
// carried over, none is asked of the registry.
func TestAllocBudgetPreprocUpdate(t *testing.T) {
	allocs := func(n int) float64 {
		tenants, spec := benchPolicy(t, n)
		_, pp, err := NewController(tenants, spec, ControllerOptions{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		jp := pp.Policy()
		return testing.AllocsPerRun(20, func() { pp.Update(jp) })
	}
	if small, large := allocs(64), allocs(1024); small != large {
		t.Fatalf("Update allocates %.1f times at 64 tenants and %.1f at 1024, want equal", small, large)
	}
}

// BenchmarkControllerUpdateTenant measures a single-tenant bounds update
// end to end through the controller at 1024 tenants with metrics on:
// resynthesis, publish and the pre-processor update.
func BenchmarkControllerUpdateTenant(b *testing.B) {
	tenants, spec := benchPolicy(b, 1024)
	c, _, err := NewController(tenants, spec, ControllerOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nt := *tenants[7]
		nt.Bounds.Hi = 65536 + int64(i%63)
		if err := c.UpdateTenant(0, &nt); err != nil {
			b.Fatal(err)
		}
	}
}
