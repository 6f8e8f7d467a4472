package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/server"
)

// Property: after any random prefix of a mixed query stream, under any
// replacement policy, the cache invariants hold and capacity is respected.
func TestQuickCacheInvariants(t *testing.T) {
	w := newWorld(t, 1401, 600, server.AdaptiveForm)
	policies := []Policy{GRD3, GRD2, LRU, MRU, FAR}

	f := func(seed int64, polIdx uint8, capKB uint16) bool {
		policy := policies[int(polIdx)%len(policies)]
		capacity := 30_000 + int(capKB)%200_000
		cl := w.newClient(capacity, policy)
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(30)
		for i := 0; i < n; i++ {
			cl.Cache().SetPosition(geom.Pt(r.Float64(), r.Float64()))
			if _, err := cl.Query(randomQuery(r)); err != nil {
				t.Logf("query error: %v", err)
				return false
			}
		}
		if err := cl.Cache().Validate(); err != nil {
			t.Logf("invariant violation (policy %v, cap %d): %v", policy, capacity, err)
			return false
		}
		return cl.Cache().Used() <= cl.cache.capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: invalidating arbitrary subsets of cached items always preserves
// the invariants (never orphans children, never corrupts byte accounting).
func TestQuickInvalidationInvariants(t *testing.T) {
	w := newWorld(t, 1402, 600, server.AdaptiveForm)

	f := func(seed int64) bool {
		cl := w.newClient(1<<20, GRD3)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 10; i++ {
			if _, err := cl.Query(randomQuery(r)); err != nil {
				return false
			}
		}
		cache := cl.Cache()
		// Collect a random subset of item keys to invalidate.
		var keys []ItemKey
		for _, it := range cache.list {
			if r.Intn(3) == 0 {
				keys = append(keys, it.Key)
			}
		}
		for _, k := range keys {
			if k.IsNode() {
				cache.Invalidate([]rtree.NodeID{k.Node}, nil)
			} else {
				cache.Invalidate(nil, []rtree.ObjectID{k.Obj})
			}
		}
		return cache.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: the client pipeline is idempotent for repeated queries — a
// repeat of any query yields the same result set and never more bytes.
func TestQuickRepeatMonotonicity(t *testing.T) {
	w := newWorld(t, 1403, 500, server.AdaptiveForm)

	f := func(seed int64) bool {
		cl := w.newClient(1<<22, GRD3)
		r := rand.New(rand.NewSource(seed))
		q := randomQuery(r)
		first, err := cl.Query(q)
		if err != nil {
			return false
		}
		second, err := cl.Query(q)
		if err != nil {
			return false
		}
		if len(second.Results) != len(first.Results) || len(second.Pairs) != len(first.Pairs) {
			return false
		}
		return second.DownlinkBytes <= first.DownlinkBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: hit-rate bounds hold for every query under every index form.
func TestQuickReportBounds(t *testing.T) {
	for _, form := range []server.IndexForm{server.FullForm, server.CompactForm, server.AdaptiveForm} {
		w := newWorld(t, 1404, 400, form)
		cl := w.newClient(200_000, GRD3)
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			rep, err := cl.Query(randomQuery(r))
			if err != nil {
				return false
			}
			// hitc = Saved/Result <= hitb = (Saved+FalseMiss)/Result <= 1.
			hitc := rep.HitRate()
			return hitc >= 0 && hitc <= 1 && rep.FalseMissBytes >= 0 &&
				rep.SavedBytes+rep.FalseMissBytes <= rep.ResultBytes
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("form %d: %v", form, err)
		}
	}
}

// Property: ShrinkTo always lands under the new capacity and keeps
// invariants, for arbitrary shrink sequences.
func TestQuickShrinkTo(t *testing.T) {
	w := newWorld(t, 1405, 500, server.AdaptiveForm)

	f := func(seed int64, steps uint8) bool {
		cl := w.newClient(1<<22, GRD3)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			if _, err := cl.Query(randomQuery(r)); err != nil {
				return false
			}
		}
		cache := cl.Cache()
		for s := 0; s < int(steps)%5+1; s++ {
			target := cache.Used() * (1 + r.Intn(3)) / 4
			cache.ShrinkTo(target)
			if cache.Used() > target {
				return false
			}
			if err := cache.Validate(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
