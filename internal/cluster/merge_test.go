package cluster

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// referenceMerge is the range merge as it was before mergeObjects sorted
// keys: a seen-set keeps the first arrival of each id, then the kept
// objects are sorted by id with a comparator.
func referenceMerge(subs [][]wire.ObjectRep) []wire.ObjectRep {
	seen := map[rtree.ObjectID]bool{}
	var out []wire.ObjectRep
	for _, sub := range subs {
		for _, o := range sub {
			if !seen[o.ID] {
				seen[o.ID] = true
				out = append(out, o)
			}
		}
	}
	slices.SortFunc(out, func(a, b wire.ObjectRep) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// TestRangeMergeMatchesReference merges random sub-responses — unsorted, of
// sizes that shrink and grow from one call to the next, with ids that two
// shards both report under a different Size and Payload (an object in
// flight between shards) — through pooled route state and a pooled
// response, and requires the reference's output element for element: id
// order, the first arrival of a duplicate, nothing left over from an earlier
// and larger call.
func TestRangeMergeMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	r := &Router{}
	sizes := []int{0, 1, 3, 40, radixMinKeys - 1, radixMinKeys, 900, 6000}
	dups := 0
	for round := 0; round < 300; round++ {
		subs := make([][]wire.ObjectRep, 1+rnd.Intn(3))
		for s := range subs {
			n := sizes[rnd.Intn(len(sizes))]
			span := 1 + rnd.Intn(2*n+8) // narrow spans collide across shards
			for _, i := range rnd.Perm(span)[:min(n, span)] {
				subs[s] = append(subs[s], wire.ObjectRep{
					ID:      rtree.ObjectID(1 + i),
					MBR:     geom.R(float64(s), float64(i), float64(s)+1, float64(i)+1),
					Size:    100*s + rnd.Intn(50),
					Payload: rnd.Intn(2) == 0,
				})
			}
		}
		// The largest id the wire carries must not spill into the arrival half
		// of a sort key.
		if len(subs) > 1 && len(subs[0]) > 0 {
			subs[0][0].ID = ^rtree.ObjectID(0)
			subs[1] = append(subs[1], wire.ObjectRep{ID: ^rtree.ObjectID(0), Size: -1})
		}

		st := r.getState()
		resp := r.resps.Get()
		for _, sub := range subs {
			st.objs = append(st.objs, sub...)
		}
		st.mergeObjects(resp)
		want := referenceMerge(subs)
		if !slices.Equal(resp.Objects, want) {
			t.Fatalf("round %d: merged %d objects, reference %d; first difference at %d",
				round, len(resp.Objects), len(want), firstDiff(resp.Objects, want))
		}
		total := 0
		for _, sub := range subs {
			total += len(sub)
		}
		dups += total - len(want)
		r.putState(st)
		r.ReleaseResponse(resp)
	}
	if dups == 0 {
		t.Fatal("no id arrived from two shards; the stream must contain duplicates")
	}
}

// TestPairSortMatchesReference holds sortPairs to a comparator sort by (a,
// b): lists on both sides of radixMinKeys, through pooled route state whose
// radix arrays swap from one call to the next, with duplicate pairs, ids up
// to the largest the wire carries, and id ranges that leave whole radix
// digits equal in every key.
func TestPairSortMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(39))
	r := &Router{}
	sizes := []int{0, 1, 2, radixMinKeys - 1, radixMinKeys, radixMinKeys + 1, 1000, 30_000}
	spans := []uint32{1, 3, 100_000, 1 << 20, ^uint32(0)}
	for round := 0; round < 200; round++ {
		n := sizes[rnd.Intn(len(sizes))]
		span := spans[rnd.Intn(len(spans))]
		base := rnd.Uint32()
		pairs := make([][2]rtree.ObjectID, n)
		for i := range pairs {
			if i > 0 && rnd.Intn(8) == 0 {
				pairs[i] = pairs[rnd.Intn(i)] // a duplicate
				continue
			}
			a := base + rnd.Uint32()%span
			b := base + rnd.Uint32()%span
			pairs[i] = [2]rtree.ObjectID{rtree.ObjectID(a), rtree.ObjectID(b)}
		}
		if n > 0 && round%5 == 0 {
			pairs[0] = [2]rtree.ObjectID{^rtree.ObjectID(0), ^rtree.ObjectID(0)}
			pairs[n-1] = [2]rtree.ObjectID{^rtree.ObjectID(0), 0}
		}
		want := slices.Clone(pairs)
		slices.SortFunc(want, func(x, y [2]rtree.ObjectID) int {
			return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
		})
		st := r.getState()
		st.sortPairs(pairs)
		r.putState(st)
		if !slices.Equal(pairs, want) {
			for i := range pairs {
				if pairs[i] != want[i] {
					t.Fatalf("round %d (%d pairs, span %d): pair %d is %v, reference %v", round, n, span, i, pairs[i], want[i])
				}
			}
		}
	}
}

func firstDiff(a, b []wire.ObjectRep) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
