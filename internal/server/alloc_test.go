package server

import (
	"testing"

	"repro/internal/wire"
)

// warmExecuteAllocCeiling is the documented per-request allocation budget of
// the warm serving path (see docs/PERF.md): a steady-state Execute over
// pooled state is expected to allocate nothing, but the ceiling leaves
// headroom for a GC emptying the sync.Pools mid-measurement (pool refills
// then show up as allocations) so the assertion stays deterministic — under
// -race with the full suite's GC pressure a refill has been observed to
// cost 25, hence the margin above that.
const warmExecuteAllocCeiling = 32

// TestWarmExecuteAllocBudget pins the tentpole property: a warm query on the
// server is effectively allocation-free. It fails loudly when a regression
// reintroduces per-request garbage (fresh maps, result slices, un-pooled
// responses) anywhere on the Execute path.
func TestWarmExecuteAllocBudget(t *testing.T) {
	srv, _ := buildServer(t, 99, 2000, Config{})
	reqs := poolTestRequests(srv, 64, 100)

	release := func(resp *wire.Response) { srv.ReleaseResponse(resp) }
	for round := 0; round < 3; round++ { // warm pools and buffers
		for _, req := range reqs {
			resp, _ := srv.Execute(req)
			release(resp)
		}
	}

	i := 0
	allocs := testing.AllocsPerRun(256, func() {
		resp, _ := srv.Execute(reqs[i%len(reqs)])
		release(resp)
		i++
	})
	if allocs > warmExecuteAllocCeiling {
		t.Fatalf("warm Execute allocates %.1f objects per request, budget is %d (docs/PERF.md)",
			allocs, warmExecuteAllocCeiling)
	}
	t.Logf("warm Execute: %.2f allocs per request (budget %d)", allocs, warmExecuteAllocCeiling)
}
