package core

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
)

// localQueryAllocCeiling is the per-query allocation budget of a query the
// cache answers alone (docs/PERF.md): the engine, its seed, the provider's
// expansion and the client's bookkeeping run on reused state, so what is left
// is the Report's own copy of the answer — one slice of results, and one of
// pairs for a join.
const localQueryAllocCeiling = 8

// TestClientLocalQueryAllocBudget pins the client half of the allocation-free
// hot path, next to the server's TestWarmExecuteAllocBudget.
func TestClientLocalQueryAllocBudget(t *testing.T) {
	w := newWorld(t, 1701, 2000, server.AdaptiveForm)
	cl := w.newClient(1<<24, GRD3)
	centre := geom.Pt(0.5, 0.5)
	queries := map[string]query.Query{
		"range": query.NewRange(geom.RectFromCenter(centre, 0.1, 0.1)),
		"knn":   query.NewKNN(centre, 8),
		"join":  query.NewJoin(geom.RectFromCenter(centre, 0.15, 0.15), 0.01),
	}
	for name, q := range queries {
		for warm := 0; warm < 2; warm++ { // the second time around, from the cache and on grown buffers
			if _, err := cl.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		var rep Report
		allocs := testing.AllocsPerRun(100, func() { rep, _ = cl.Query(q) })
		if !rep.LocalOnly || len(rep.Results) == 0 {
			t.Fatalf("%s: local %v with %d results; the budget is for a query answered from the cache", name, rep.LocalOnly, len(rep.Results))
		}
		if allocs > localQueryAllocCeiling {
			t.Errorf("%s: a locally answered query allocates %.1f objects, budget is %d (docs/PERF.md)", name, allocs, localQueryAllocCeiling)
		}
		t.Logf("%s: %.1f allocs per locally answered query (budget %d)", name, allocs, localQueryAllocCeiling)
	}
}

// sharedScratch expands through inner into a buffer it shares with every
// other sharedScratch over the same buf, the way the server's provider reuses
// one scratch buffer: the second Expand overwrites the first's children.
type sharedScratch struct {
	inner query.Provider
	buf   *[]query.Ref
}

func (s sharedScratch) Expand(ref query.Ref) ([]query.Ref, bool) {
	refs, ok := s.inner.Expand(ref)
	*s.buf = append((*s.buf)[:0], refs...)
	return *s.buf, ok
}

func (s sharedScratch) HaveObject(id rtree.ObjectID) bool { return s.inner.HaveObject(id) }

// alternating answers Expand from two providers in turn.
type alternating struct {
	provs [2]query.Provider
	calls int
}

func (a *alternating) Expand(ref query.Ref) ([]query.Ref, bool) {
	a.calls++
	return a.provs[a.calls%2].Expand(ref)
}

func (a *alternating) HaveObject(id rtree.ObjectID) bool { return a.provs[0].HaveObject(id) }

// freshSlices hands the engine a private copy of every expansion.
type freshSlices struct{ query.Provider }

func (f freshSlices) Expand(ref query.Ref) ([]query.Ref, bool) {
	refs, ok := f.Provider.Expand(ref)
	return slices.Clone(refs), ok
}

// TestProviderScratchAliasing: a provider may expand into one scratch buffer
// that it shares with other providers (the server's does), so in a two-sided
// join expansion side b's children overwrite side a's. The engine holds side
// a in its own scratch; the answer through two aliasing providers is the
// answer fresh slices would give.
func TestProviderScratchAliasing(t *testing.T) {
	w := newWorld(t, 1702, 2000, server.FullForm)
	cl := w.newClient(1<<24, GRD3)
	win := geom.RectFromCenter(geom.Pt(0.5, 0.5), 0.3, 0.3)
	if _, err := cl.Query(query.NewRange(win)); err != nil { // cache the index under the window
		t.Fatal(err)
	}
	cache := cl.Cache()
	root, ok := cacheProvider{cache}.Expand(cl.cfg.Root)
	if !ok || len(root) < 2 {
		t.Fatalf("root not cached or too small: %d children", len(root))
	}
	root = slices.Clone(root)

	q := query.NewJoin(win, 0.02)
	twoSided := 0
	for i, a := range root {
		for _, b := range root[i+1:] {
			seed := []query.QueuedElem{{Key: q.PairKeyFor(a.MBR, b.MBR), Elem: query.PairOf(a, b)}}
			// A fresh Runner each, so neither Outcome is overwritten by the other.
			var gotRunner, wantRunner query.Runner
			var buf []query.Ref
			got := gotRunner.Run(q, &alternating{provs: [2]query.Provider{sharedScratch{cacheProvider{cache}, &buf}, sharedScratch{cacheProvider{cache}, &buf}}}, seed)
			want := wantRunner.Run(q, freshSlices{cacheProvider{cache}}, seed)
			if got.Stats != want.Stats || !slices.Equal(got.Pairs, want.Pairs) || !slices.Equal(got.Remainder, want.Remainder) {
				t.Fatalf("pair <%v,%v>: through the shared scratch %+v, %d pairs, %d left; through fresh slices %+v, %d pairs, %d left",
					a, b, got.Stats, len(got.Pairs), len(got.Remainder), want.Stats, len(want.Pairs), len(want.Remainder))
			}
			if got.Stats.Expands >= 2 {
				twoSided++
			}
		}
	}
	if twoSided == 0 {
		t.Fatal("no seed pair expanded both of its sides")
	}
}
