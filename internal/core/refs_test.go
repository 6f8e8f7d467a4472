package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestValidateChecksCachedRefs corrupts a cached node's cut one way at a time
// and requires Validate to notice: refs and codes out of step, a super ref
// naming another node or carrying another code than its position, and a ref
// of no kind.
func TestValidateChecksCachedRefs(t *testing.T) {
	w := newWorld(t, 1901, 2000, server.CompactForm)
	cl := w.newClient(1<<24, GRD3)
	if _, err := cl.Query(query.NewRange(geom.RectFromCenter(geom.Pt(0.5, 0.5), 0.1, 0.1))); err != nil {
		t.Fatal(err)
	}
	c := cl.Cache()
	if err := c.Validate(); err != nil {
		t.Fatalf("before any corruption: %v", err)
	}
	var it *Item
	super := -1
	for _, cand := range c.list {
		if super = slices.IndexFunc(cand.Refs, func(r query.Ref) bool { return r.Kind == query.RefSuper }); super >= 0 {
			it = cand
			break
		}
	}
	if it == nil {
		t.Fatal("no cached node holds a super entry")
	}
	corruptions := []struct {
		name    string
		corrupt func()
	}{
		{"a code too few", func() { it.Codes = it.Codes[:len(it.Codes)-1] }},
		{"a super ref naming another node", func() { it.Refs[super].Node++ }},
		{"a super ref carrying another code", func() { it.Refs[super].Code += "0" }},
		{"a ref of kind zero", func() { it.Refs[len(it.Refs)-1].Kind = 0 }},
	}
	for _, tc := range corruptions {
		refs, codes := slices.Clone(it.Refs), slices.Clone(it.Codes)
		tc.corrupt()
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate passed", tc.name)
		}
		it.Refs, it.Codes = refs, codes
		if err := c.Validate(); err != nil {
			t.Fatalf("after restoring from %s: %v", tc.name, err)
		}
	}
}

// recordingProvider keeps every slice its inner provider's Expand returns
// together with a copy, so that check can find any later write into one.
type recordingProvider struct {
	inner    query.Provider
	returned [][]query.Ref
	copies   [][]query.Ref
	checked  int
}

func (p *recordingProvider) Expand(ref query.Ref) ([]query.Ref, bool) {
	refs, ok := p.inner.Expand(ref)
	if ok {
		p.returned = append(p.returned, refs)
		p.copies = append(p.copies, slices.Clone(refs))
	}
	return refs, ok
}

func (p *recordingProvider) HaveObject(id rtree.ObjectID) bool { return p.inner.HaveObject(id) }

// check compares every slice returned since the last check with its copy.
func (p *recordingProvider) check() error {
	for i, refs := range p.returned {
		if !slices.Equal(refs, p.copies[i]) {
			return fmt.Errorf("expansion %d of %d changed after Expand returned it", i, len(p.returned))
		}
	}
	p.checked += len(p.returned)
	p.returned, p.copies = p.returned[:0], p.copies[:0]
	return nil
}

// TestExpandLeavesCacheIntact: a cached expansion hands the engine the
// item's own refs, so nothing between Expand and the cache's next change may
// write into them. The client runs the repo benchmark's mobile-tour regime
// (a 1 % GRD3 cache, a random-waypoint walk, a third each of range, kNN and
// join, the windows scaled to this smaller dataset) through a provider that
// records each expansion. Every slice is checked against its copy once the
// engine and the client are done with the attempt: when the remainder goes
// out, before the response is inserted, or when a query ends without one.
func TestExpandLeavesCacheIntact(t *testing.T) {
	w := newWorld(t, 1902, 8000, server.AdaptiveForm)
	total := 0
	for _, size := range w.sizes {
		total += size
	}
	rec := &recordingProvider{}
	transport := TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		if err := rec.check(); err != nil {
			return nil, err
		}
		resp, _ := w.srv.Execute(req)
		return resp, nil
	})
	cl := NewClient(ClientConfig{ID: 1, Root: w.srv.RootRef(), FMRPeriod: 50}, NewCache(total/100, GRD3, wire.DefaultSizeModel()), transport)
	rec.inner = cl.prov
	cl.prov = rec

	const thinkMean = 50
	r := rand.New(rand.NewSource(1903))
	walk := mobility.NewRandomWaypoint(mobility.Config{Speed: 1e-4, PauseMean: thinkMean}, rand.New(rand.NewSource(1904)))
	local := 0
	for i := 0; i < 3000; i++ {
		pos := walk.Advance(r.ExpFloat64() * thinkMean)
		cl.SetPosition(pos)
		var q query.Query
		switch r.Intn(3) {
		case 0:
			q = query.NewRange(geom.RectFromCenter(pos, 0.004, 0.004))
		case 1:
			q = query.NewKNN(pos, 1+r.Intn(5))
		default:
			q = query.NewJoin(geom.RectFromCenter(pos, 0.008, 0.008), 1e-4)
		}
		rep, err := cl.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if rep.LocalOnly {
			local++
		}
		if err := rec.check(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if local == 0 || rec.checked == 0 {
		t.Fatalf("%d queries answered locally, %d expansions checked: the tour never ran from the cache", local, rec.checked)
	}
	t.Logf("%d of 3000 queries answered locally, %d expansions checked", local, rec.checked)
}
