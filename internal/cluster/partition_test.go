package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

func genObjects(n int, seed int64) []dataset.Object {
	return dataset.GenerateNE(dataset.Params{N: n, Seed: seed}).Objects
}

func TestPartitionBalance(t *testing.T) {
	objs := genObjects(4000, 7)
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		part, err := MakePartition(objs, n)
		if err != nil {
			t.Fatal(err)
		}
		split := part.Split(objs)
		if len(split) != n {
			t.Fatalf("n=%d: %d slices", n, len(split))
		}
		total := 0
		for s, objsS := range split {
			total += len(objsS)
			// Count balance: every shard within 3x of the ideal share.
			ideal := len(objs) / n
			if len(objsS) < ideal/3 || len(objsS) > ideal*3 {
				t.Errorf("n=%d shard %d: %d objects, ideal %d", n, s, len(objsS), ideal)
			}
		}
		if total != len(objs) {
			t.Fatalf("n=%d: split loses objects: %d != %d", n, total, len(objs))
		}
	}
}

func TestPartitionLocateDeterministic(t *testing.T) {
	objs := genObjects(1000, 3)
	part, err := MakePartition(objs, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := geom.Pt(r.Float64()*2-0.5, r.Float64()*2-0.5) // inside and outside the data
		s1 := part.Locate(p)
		s2 := part.Locate(p)
		if s1 != s2 || s1 < 0 || s1 >= 5 {
			t.Fatalf("Locate(%v) = %d, %d", p, s1, s2)
		}
	}
}

func TestPartitionSplitMatchesLocate(t *testing.T) {
	objs := genObjects(2000, 11)
	part, err := MakePartition(objs, 4)
	if err != nil {
		t.Fatal(err)
	}
	split := part.Split(objs)
	for s, objsS := range split {
		for _, o := range objsS {
			if got := part.LocateRect(o.MBR); got != s {
				t.Fatalf("object %d split to %d but Locate says %d", o.ID, s, got)
			}
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := MakePartition(nil, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := MakePartition(nil, MaxShards+1); err == nil {
		t.Fatal("too many shards accepted")
	}
	// No objects at all still yields a usable plane split.
	part, err := MakePartition(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s := part.Locate(geom.Pt(0.5, 0.5)); s < 0 || s >= 4 {
		t.Fatalf("Locate on empty partition = %d", s)
	}
}

func TestVirtualNodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		shard int
		local rtree.NodeID
	}{{0, 1}, {3, 12345}, {254, MaxLocalNodes}} {
		vid, ok := virtualNode(tc.shard, tc.local)
		if !ok {
			t.Fatalf("virtualNode(%d, %d) overflow", tc.shard, tc.local)
		}
		if vid == VirtualRoot || vid == rtree.InvalidNode {
			t.Fatalf("virtualNode(%d, %d) = reserved id %d", tc.shard, tc.local, vid)
		}
		s, l, ok := splitVirtual(vid, 255)
		if !ok || s != tc.shard || l != tc.local {
			t.Fatalf("splitVirtual(%d) = (%d, %d, %v), want (%d, %d)", vid, s, l, ok, tc.shard, tc.local)
		}
	}
	if _, ok := virtualNode(0, MaxLocalNodes+1); ok {
		t.Fatal("local id overflow accepted")
	}
	if _, _, ok := splitVirtual(VirtualRoot, 4); ok {
		t.Fatal("virtual root decoded as shard node")
	}
	if _, _, ok := splitVirtual(0, 4); ok {
		t.Fatal("invalid node decoded")
	}
	// A shard ordinal past the cluster size must not decode.
	vid, _ := virtualNode(7, 9)
	if _, _, ok := splitVirtual(vid, 4); ok {
		t.Fatal("out-of-range shard decoded")
	}
}

func TestEpochTableFlow(t *testing.T) {
	tab := newEpochTable(4, defaultMaxClients)
	vec := make([]uint64, 2)
	roots := make([]rtree.NodeID, 2)

	// Zero state: epoch 0 round trips without registering anything.
	if got := tab.commit(1, 0, []uint64{0, 0}, []rtree.NodeID{1, 1}); got != 0 {
		t.Fatalf("all-zero commit = %d", got)
	}
	if tab.lookup(1, 0, vec, roots) {
		t.Fatal("all-zero commit registered state")
	}

	// First real advancement registers and is retrievable.
	v1 := tab.commit(1, 0, []uint64{3, 0}, []rtree.NodeID{1, 1})
	if v1 == 0 {
		t.Fatal("nonzero vector got virtual 0")
	}
	if !tab.lookup(1, v1, vec, roots) || vec[0] != 3 || vec[1] != 0 {
		t.Fatalf("lookup(%d) = %v", v1, vec)
	}

	// Identical vector reuses the entry.
	if v := tab.commit(1, v1, []uint64{3, 0}, []rtree.NodeID{1, 1}); v != v1 {
		t.Fatalf("identical commit moved epoch %d -> %d", v1, v)
	}

	// Advancement from the base yields a strictly larger epoch.
	v2 := tab.commit(1, v1, []uint64{3, 5}, []rtree.NodeID{1, 1})
	if v2 <= v1 {
		t.Fatalf("v2 = %d <= v1 = %d", v2, v1)
	}

	// Ring trims: push enough distinct vectors to evict v1.
	last := v2
	for i := uint64(1); i <= 6; i++ {
		last = tab.commit(1, last, []uint64{3 + i, 5}, []rtree.NodeID{1, 1})
	}
	if tab.lookup(1, v1, vec, roots) {
		t.Fatal("v1 survived ring trim")
	}
	if !tab.lookup(1, last, vec, roots) {
		t.Fatal("latest epoch missing")
	}

	// Unknown clients and unknown epochs miss.
	if tab.lookup(99, 1, vec, roots) {
		t.Fatal("unknown client hit")
	}
	if tab.lookup(1, 99999, vec, roots) {
		t.Fatal("unknown epoch hit")
	}
}

func TestEpochTableEviction(t *testing.T) {
	tab := newEpochTable(4, 1) // one tracked client per lock shard
	// Clients 0 and 32 share lock shard 0.
	v := tab.commit(0, 0, []uint64{1}, []rtree.NodeID{1})
	if v == 0 {
		t.Fatal("commit did not register")
	}
	tab.commit(32, 0, []uint64{2}, []rtree.NodeID{1})
	vec := make([]uint64, 1)
	roots := make([]rtree.NodeID, 1)
	if tab.lookup(0, v, vec, roots) {
		t.Fatal("client 0 survived eviction")
	}
}

// TestPartitionSplitMergeCycles drives a long randomized sequence of
// SplitLeaf/MergeLeaves cycles and holds the plane-covering invariants at
// every step: Locate always lands on a live leaf, center ownership
// (LocateRect == Locate of the center) never breaks, and unwinding the whole
// stack restores the original routing exactly.
func TestPartitionSplitMergeCycles(t *testing.T) {
	objs := genObjects(2000, 7)
	orig, err := MakePartition(objs, 4)
	if err != nil {
		t.Fatal(err)
	}
	cur := orig
	rng := rand.New(rand.NewSource(123))

	checkInvariants := func(step string) {
		t.Helper()
		live := map[int]bool{}
		for _, s := range cur.LiveShards() {
			live[s] = true
		}
		for i := 0; i < 400; i++ {
			pt := geom.Pt(rng.Float64()*3-1, rng.Float64()*3-1)
			s := cur.Locate(pt)
			if !live[s] {
				t.Fatalf("%s: Locate(%v) = %d, a dead slot", step, pt, s)
			}
			rc := geom.RectFromCenter(pt, 0.01+rng.Float64()*0.1, 0.01+rng.Float64()*0.1)
			if got := cur.LocateRect(rc); got != cur.Locate(rc.Center()) {
				t.Fatalf("%s: center ownership broken: LocateRect=%d Locate(center)=%d", step, got, cur.Locate(rc.Center()))
			}
		}
	}

	type splitOp struct{ s, t int }
	var stack []splitOp
	next := 4
	for cycle := 0; cycle < 60; cycle++ {
		if rng.Intn(2) == 0 || len(stack) == 0 {
			live := cur.LiveShards()
			s := live[rng.Intn(len(live))]
			region := cur.Regions[s]
			axis := rng.Intn(2)
			var lo, hi float64
			if axis == 0 {
				lo, hi = region.MinX, region.MaxX
			} else {
				lo, hi = region.MinY, region.MaxY
			}
			if hi-lo < 1e-9 {
				continue // degenerate display region; skip this cycle
			}
			cut := lo + (0.25+0.5*rng.Float64())*(hi-lo)
			q, err := cur.SplitLeaf(s, axis, cut)
			if err != nil {
				t.Fatalf("cycle %d: SplitLeaf(%d,axis=%d,cut=%v): %v", cycle, s, axis, cut, err)
			}
			// The split must be invisible to routing except inside s's old
			// cell: points previously owned by other shards keep their owner.
			for i := 0; i < 200; i++ {
				pt := geom.Pt(rng.Float64()*3-1, rng.Float64()*3-1)
				before := cur.Locate(pt)
				after := q.Locate(pt)
				if before != s && after != before {
					t.Fatalf("cycle %d: split of %d moved a point owned by %d to %d", cycle, s, before, after)
				}
				if before == s && after != s && after != next {
					t.Fatalf("cycle %d: split of %d sent a point to unrelated shard %d", cycle, s, after)
				}
			}
			// The new pair must be siblings both ways.
			if sib, ok := q.SiblingOf(next); !ok || sib != s {
				t.Fatalf("cycle %d: SiblingOf(%d) = %d,%v want %d", cycle, next, sib, ok, s)
			}
			cur = q
			stack = append(stack, splitOp{s, next})
			next++
		} else {
			op := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			q, err := cur.MergeLeaves(op.s, op.t)
			if err != nil {
				t.Fatalf("cycle %d: MergeLeaves(%d,%d): %v", cycle, op.s, op.t, err)
			}
			if q.Live(op.t) {
				t.Fatalf("cycle %d: slot %d still live after merge", cycle, op.t)
			}
			cur = q
		}
		if got, want := len(cur.LiveShards()), 4+len(stack); got != want {
			t.Fatalf("cycle %d: %d live shards, want %d", cycle, got, want)
		}
		checkInvariants(fmt.Sprintf("cycle %d", cycle))
	}

	// Unwind: merging every split back must restore the original routing.
	for len(stack) > 0 {
		op := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		q, err := cur.MergeLeaves(op.s, op.t)
		if err != nil {
			t.Fatalf("unwind MergeLeaves(%d,%d): %v", op.s, op.t, err)
		}
		cur = q
	}
	for i := 0; i < 3000; i++ {
		pt := geom.Pt(rng.Float64()*3-1, rng.Float64()*3-1)
		if got, want := cur.Locate(pt), orig.Locate(pt); got != want {
			t.Fatalf("unwound partition routes %v to %d, original to %d", pt, got, want)
		}
	}
}

// TestPartitionSplitLeafErrors pins SplitLeaf's validation.
func TestPartitionSplitLeafErrors(t *testing.T) {
	objs := genObjects(500, 9)
	part, err := MakePartition(objs, 2)
	if err != nil {
		t.Fatal(err)
	}
	region := part.Regions[0]
	cut := (region.MinX + region.MaxX) / 2
	if _, err := part.SplitLeaf(5, 0, cut); err == nil {
		t.Fatal("splitting a slot that is not live succeeded")
	}
	if _, err := part.SplitLeaf(0, 0, region.MaxX+100); err == nil {
		t.Fatal("cut outside the leaf cell succeeded")
	}
	q, err := part.SplitLeaf(0, 0, cut)
	if err != nil {
		t.Fatal(err)
	}
	if q.Shards() != 3 || !q.Live(2) {
		t.Fatalf("split did not grow fresh slot 2: shards=%d live=%v", q.Shards(), q.LiveShards())
	}
	if _, err := q.MergeLeaves(1, 2); err == nil {
		t.Fatal("MergeLeaves of non-siblings succeeded")
	}
	// Either sibling may survive: retiring slot 0 with slot 2 surviving is
	// legal at the partition level.
	m, err := q.MergeLeaves(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Live(0) || !m.Live(2) {
		t.Fatalf("after MergeLeaves(2,0): live = %v", m.LiveShards())
	}
}
