package main

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
)

// world is what the oracle knows to be true when a sampled query was sent:
// the static dataset, plus — on moving-objects — the client's own objects at
// their last acknowledged rectangles. The workload has one client, so nothing
// the server holds is unknown to the oracle, and an answer that names an
// object outside this world is wrong.
type world struct {
	e       *env
	ownBase rtree.ObjectID
	own     []geom.Rect
}

func (w world) rect(id rtree.ObjectID) (geom.Rect, bool) {
	switch {
	case id >= 1 && int(id) <= len(w.e.objects):
		return w.e.objects[id-1].MBR, true
	case len(w.own) > 0 && id >= w.ownBase && int(id-w.ownBase) < len(w.own):
		return w.own[id-w.ownBase], true
	}
	return geom.Rect{}, false
}

// each calls fn for every object the oracle knows.
func (w world) each(fn func(id rtree.ObjectID, r geom.Rect)) {
	for i := range w.e.objects {
		fn(w.e.objects[i].ID, w.e.objects[i].MBR)
	}
	for i, r := range w.own {
		fn(w.ownBase+rtree.ObjectID(i), r)
	}
}

// check verifies one sampled answer by linear scan.
func (w world) check(s sample) error {
	ids := s.ids
	if s.objs != nil {
		ids = make([]rtree.ObjectID, len(s.objs))
		for i, o := range s.objs {
			ids[i] = o.ID
			if r, ok := w.rect(o.ID); ok && r != o.MBR {
				return fmt.Errorf("%v: object %d answered at %v, oracle has it at %v", s.q.Kind, o.ID, o.MBR, r)
			}
		}
	}
	for _, id := range ids {
		if _, ok := w.rect(id); !ok {
			return fmt.Errorf("%v: unknown object %d answered", s.q.Kind, id)
		}
	}
	for _, p := range s.pairs {
		for _, id := range p {
			if _, ok := w.rect(id); !ok {
				return fmt.Errorf("%v: unknown object %d in pair %v", s.q.Kind, id, p)
			}
		}
	}
	switch s.q.Kind {
	case query.Range:
		return w.checkRange(s.q, ids)
	case query.KNN:
		return w.checkKNN(s.q, ids)
	case query.Join:
		return w.checkJoin(s.q, s.pairs)
	}
	return fmt.Errorf("sample of unknown kind %v", s.q.Kind)
}

func (w world) checkRange(q query.Query, ids []rtree.ObjectID) error {
	got := make(map[rtree.ObjectID]bool, len(ids))
	for _, id := range ids {
		if got[id] {
			return fmt.Errorf("range %v: object %d answered twice", q.Window, id)
		}
		got[id] = true
		if r, _ := w.rect(id); !q.Window.Intersects(r) {
			return fmt.Errorf("range %v: object %d at %v is outside", q.Window, id, r)
		}
	}
	var err error
	w.each(func(id rtree.ObjectID, r geom.Rect) {
		if err == nil && q.Window.Intersects(r) && !got[id] {
			err = fmt.Errorf("range %v: object %d at %v is missing", q.Window, id, r)
		}
	})
	return err
}

// checkKNN accepts an answer of k distinct objects when every known object
// strictly nearer than the answer's farthest member is in it. Ties at that
// distance may go either way.
func (w world) checkKNN(q query.Query, ids []rtree.ObjectID) error {
	if len(ids) != q.K {
		return fmt.Errorf("knn %v k=%d: %d objects answered", q.Center, q.K, len(ids))
	}
	got := make(map[rtree.ObjectID]bool, len(ids))
	farthest := 0.0
	for _, id := range ids {
		if got[id] {
			return fmt.Errorf("knn %v k=%d: object %d answered twice", q.Center, q.K, id)
		}
		got[id] = true
		r, _ := w.rect(id)
		farthest = max(farthest, geom.MinDist(q.Center, r))
	}
	var err error
	w.each(func(id rtree.ObjectID, r geom.Rect) {
		if err == nil && !got[id] && geom.MinDist(q.Center, r) < farthest {
			err = fmt.Errorf("knn %v k=%d: object %d at distance %g is nearer than the answer's farthest (%g) and missing",
				q.Center, q.K, id, geom.MinDist(q.Center, r), farthest)
		}
	})
	return err
}

func (w world) checkJoin(q query.Query, pairs [][2]rtree.ObjectID) error {
	type cand struct {
		id rtree.ObjectID
		r  geom.Rect
	}
	var in []cand
	w.each(func(id rtree.ObjectID, r geom.Rect) {
		if r.Intersects(q.JoinWindow) {
			in = append(in, cand{id, r})
		}
	})
	want := make(map[[2]rtree.ObjectID]bool)
	for i := range in {
		for j := i + 1; j < len(in); j++ {
			if geom.RectMinDist(in[i].r, in[j].r) <= q.Dist {
				want[orderedPair(in[i].id, in[j].id)] = true
			}
		}
	}
	seen := make(map[[2]rtree.ObjectID]bool, len(pairs))
	for _, p := range pairs {
		k := orderedPair(p[0], p[1])
		if seen[k] {
			return fmt.Errorf("join %v: pair %v answered twice", q.JoinWindow, k)
		}
		seen[k] = true
		if !want[k] {
			return fmt.Errorf("join %v dist %g: pair %v is not a result", q.JoinWindow, q.Dist, k)
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("join %v dist %g: %d pairs answered, oracle finds %d", q.JoinWindow, q.Dist, len(seen), len(want))
	}
	return nil
}

func orderedPair(a, b rtree.ObjectID) [2]rtree.ObjectID {
	if a > b {
		a, b = b, a
	}
	return [2]rtree.ObjectID{a, b}
}
