package query

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/pq"
	"repro/internal/rtree"
)

// mockWorld is a hand-built two-level index over point objects, with
// controllable missing nodes and objects.
type mockWorld struct {
	rootRef     Ref
	children    map[rtree.NodeID][]Ref
	missing     map[rtree.NodeID]bool
	haveObject  map[rtree.ObjectID]bool
	objects     map[rtree.ObjectID]geom.Rect
	expandCalls int
}

func (m *mockWorld) Expand(ref Ref) ([]Ref, bool) {
	if ref.Kind != RefNode || m.missing[ref.Node] {
		return nil, false
	}
	m.expandCalls++
	return m.children[ref.Node], true
}

func (m *mockWorld) HaveObject(id rtree.ObjectID) bool { return m.haveObject[id] }

// fullWorld clones m with nothing missing (the "server" view).
func (m *mockWorld) fullWorld() *mockWorld {
	full := &mockWorld{
		rootRef:    m.rootRef,
		children:   m.children,
		missing:    map[rtree.NodeID]bool{},
		haveObject: map[rtree.ObjectID]bool{},
		objects:    m.objects,
	}
	for id := range m.objects {
		full.haveObject[id] = true
	}
	return full
}

// buildMock creates a root with `fan` leaf nodes of `per` objects each, laid
// out on a grid.
func buildMock(r *rand.Rand, fan, per int) *mockWorld {
	m := &mockWorld{
		children:   map[rtree.NodeID][]Ref{},
		missing:    map[rtree.NodeID]bool{},
		haveObject: map[rtree.ObjectID]bool{},
		objects:    map[rtree.ObjectID]geom.Rect{},
	}
	var rootChildren []Ref
	var rootMBR geom.Rect
	id := rtree.ObjectID(1)
	for n := 1; n <= fan; n++ {
		nodeID := rtree.NodeID(n + 1)
		var refs []Ref
		var nodeMBR geom.Rect
		for j := 0; j < per; j++ {
			p := geom.Pt(r.Float64(), r.Float64())
			mbr := geom.RectFromCenter(p, 0.01, 0.01)
			refs = append(refs, ObjectRef(id, mbr))
			m.objects[id] = mbr
			m.haveObject[id] = true
			if j == 0 {
				nodeMBR = mbr
			} else {
				nodeMBR = nodeMBR.Union(mbr)
			}
			id++
		}
		m.children[nodeID] = refs
		if n == 1 {
			rootMBR = nodeMBR
		} else {
			rootMBR = rootMBR.Union(nodeMBR)
		}
		rootChildren = append(rootChildren, NodeRef(nodeID, nodeMBR))
	}
	m.children[1] = rootChildren
	m.rootRef = NodeRef(1, rootMBR)
	return m
}

func (m *mockWorld) bruteRange(win geom.Rect) map[rtree.ObjectID]bool {
	out := map[rtree.ObjectID]bool{}
	for id, mbr := range m.objects {
		if mbr.Intersects(win) {
			out[id] = true
		}
	}
	return out
}

func (m *mockWorld) bruteKNN(p geom.Point, k int) []float64 {
	var ds []float64
	for _, mbr := range m.objects {
		ds = append(ds, geom.MinDist(p, mbr))
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

// run executes q on a Runner that nothing runs again, so the Outcome keeps
// its buffers.
func run(q Query, prov Provider, seed []QueuedElem) Outcome {
	var r Runner
	return r.Run(q, prov, seed)
}

func TestRangeComplete(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	m := buildMock(r, 8, 20)
	q := NewRange(geom.R(0.2, 0.2, 0.6, 0.6))
	out := run(q, m, SeedRoot(q, m.rootRef))
	if !out.Complete {
		t.Fatal("fully available index must complete")
	}
	want := m.bruteRange(q.Window)
	if len(out.Results) != len(want) {
		t.Fatalf("got %d, want %d", len(out.Results), len(want))
	}
	for _, ref := range out.Results {
		if !want[ref.Obj] {
			t.Fatalf("unexpected %d", ref.Obj)
		}
	}
}

func TestKNNCompleteOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	m := buildMock(r, 8, 20)
	p := geom.Pt(0.5, 0.5)
	q := NewKNN(p, 7)
	out := run(q, m, SeedRoot(q, m.rootRef))
	if !out.Complete || len(out.Results) != 7 {
		t.Fatalf("complete=%v n=%d", out.Complete, len(out.Results))
	}
	want := m.bruteKNN(p, 7)
	for i, ref := range out.Results {
		d := geom.MinDist(p, ref.MBR)
		if d != want[i] {
			t.Fatalf("result %d dist %v, want %v", i, d, want[i])
		}
	}
}

func TestKNNFewerThanKComplete(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	m := buildMock(r, 2, 3)
	q := NewKNN(geom.Pt(0.5, 0.5), 100)
	out := run(q, m, SeedRoot(q, m.rootRef))
	if !out.Complete || len(out.Results) != 6 {
		t.Fatalf("want all 6 objects complete, got %d complete=%v", len(out.Results), out.Complete)
	}
}

func TestMissingNodeProducesRemainderAndResume(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	m := buildMock(r, 8, 20)
	// Knock out three leaf nodes.
	m.missing[3], m.missing[5], m.missing[7] = true, true, true

	q := NewRange(geom.R(0.1, 0.1, 0.9, 0.9))
	out := run(q, m, SeedRoot(q, m.rootRef))
	if out.Complete {
		t.Fatal("missing nodes should force a remainder")
	}
	// Remainder contains only the missing node refs (range pops everything
	// poppable before stopping).
	for _, qe := range out.Remainder {
		if qe.Elem.A.Kind == RefNode && !m.missing[qe.Elem.A.Node] {
			t.Fatalf("non-missing node %v in remainder", qe.Elem.A)
		}
	}
	// Resume server-side: union must equal ground truth.
	srv := m.fullWorld()
	resumed := run(q, srv, out.Remainder)
	if !resumed.Complete {
		t.Fatal("server resume must complete")
	}
	got := map[rtree.ObjectID]bool{}
	for _, ref := range append(out.Results, resumed.Results...) {
		if got[ref.Obj] {
			t.Fatalf("duplicate result %d", ref.Obj)
		}
		got[ref.Obj] = true
	}
	want := m.bruteRange(q.Window)
	if len(got) != len(want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
}

func TestKNNMissingObjectCountsTowardTermination(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	m := buildMock(r, 4, 10)
	// Evict every object payload: all leaf pops become missing leaf entries.
	for id := range m.haveObject {
		m.haveObject[id] = false
	}
	q := NewKNN(geom.Pt(0.5, 0.5), 3)
	out := run(q, m, SeedRoot(q, m.rootRef))
	if out.Complete || len(out.Results) != 0 {
		t.Fatal("no payloads: nothing confirmable")
	}
	// m + n = k: exactly 3 missing leaf entries before termination, so the
	// remainder's object elements number exactly k (pruning keeps 3).
	objElems := 0
	for _, qe := range out.Remainder {
		if qe.Elem.IsObjectElem() {
			objElems++
		}
	}
	if objElems < 3 {
		t.Fatalf("remainder has %d object elems, want >= 3", objElems)
	}
	// Resume must yield the true 3NN.
	resumed := run(q, m.fullWorld(), out.Remainder)
	want := m.bruteKNN(geom.Pt(0.5, 0.5), 3)
	if len(resumed.Results) != 3 {
		t.Fatalf("resumed %d results", len(resumed.Results))
	}
	for i, ref := range resumed.Results {
		if geom.MinDist(geom.Pt(0.5, 0.5), ref.MBR) != want[i] {
			t.Fatalf("resumed result %d wrong distance", i)
		}
	}
}

func TestKNNDeferralRule(t *testing.T) {
	// Hand-built: root -> {missing node N (closest), object A (farther)}.
	// A is cached but must be deferred because N could hold closer objects.
	objA := ObjectRef(1, geom.RectFromCenter(geom.Pt(0.30, 0.5), 0.01, 0.01))
	objB := ObjectRef(2, geom.RectFromCenter(geom.Pt(0.05, 0.5), 0.01, 0.01)) // inside N, closest
	m := &mockWorld{
		rootRef: NodeRef(1, geom.R(0, 0, 1, 1)),
		children: map[rtree.NodeID][]Ref{
			1: {NodeRef(2, geom.RectFromCenter(geom.Pt(0.05, 0.5), 0.08, 0.08)), objA},
			2: {objB},
		},
		missing:    map[rtree.NodeID]bool{2: true},
		haveObject: map[rtree.ObjectID]bool{1: true, 2: true},
		objects:    map[rtree.ObjectID]geom.Rect{1: objA.MBR, 2: objB.MBR},
	}
	q := NewKNN(geom.Pt(0, 0.5), 1)
	out := run(q, m, SeedRoot(q, m.rootRef))
	if out.Complete {
		t.Fatal("must not complete: nearest candidate is behind a missing node")
	}
	if len(out.Results) != 0 {
		t.Fatalf("object A confirmed despite missing closer node: %v", out.Results)
	}
	foundDeferred := false
	for _, qe := range out.Remainder {
		if qe.Deferred {
			if qe.Elem.A.Obj != 1 {
				t.Fatalf("wrong deferred elem %v", qe.Elem)
			}
			foundDeferred = true
		}
	}
	if !foundDeferred {
		t.Fatal("cached object A should be deferred in the remainder")
	}
	// Server resume finds B (the true NN).
	resumed := run(q, m.fullWorld(), out.Remainder)
	if len(resumed.Results) != 1 || resumed.Results[0].Obj != 2 {
		t.Fatalf("resume = %v, want object 2", resumed.Results)
	}
}

func TestKNNRemainderPruning(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	m := buildMock(r, 10, 30)
	for id := range m.haveObject {
		m.haveObject[id] = false
	}
	q := NewKNN(geom.Pt(0.5, 0.5), 2)
	out := run(q, m, SeedRoot(q, m.rootRef))
	// Pruning: nothing in the remainder may lie beyond the 2nd object elem.
	var objKeys []float64
	for _, qe := range out.Remainder {
		if qe.Elem.IsObjectElem() {
			objKeys = append(objKeys, qe.Key)
		}
	}
	sort.Float64s(objKeys)
	if len(objKeys) < 2 {
		t.Fatalf("fewer than 2 object elems: %d", len(objKeys))
	}
	threshold := objKeys[1]
	for _, qe := range out.Remainder {
		if qe.Key > threshold {
			t.Fatalf("unpruned element with key %v > threshold %v", qe.Key, threshold)
		}
	}
}

func TestJoinCompleteMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	m := buildMock(r, 6, 15)
	q := NewJoin(geom.R(0.2, 0.2, 0.8, 0.8), 0.05)
	out := run(q, m, SeedRoot(q, m.rootRef))
	if !out.Complete {
		t.Fatal("join on full index must complete")
	}
	want := map[[2]rtree.ObjectID]bool{}
	ids := make([]rtree.ObjectID, 0, len(m.objects))
	for id := range m.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := m.objects[ids[i]], m.objects[ids[j]]
			if a.Intersects(q.JoinWindow) && b.Intersects(q.JoinWindow) && geom.RectMinDist(a, b) <= q.Dist {
				want[[2]rtree.ObjectID{ids[i], ids[j]}] = true
			}
		}
	}
	got := map[[2]rtree.ObjectID]bool{}
	for _, p := range out.Pairs {
		a, b := p[0].Obj, p[1].Obj
		if b < a {
			a, b = b, a
		}
		key := [2]rtree.ObjectID{a, b}
		if got[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		got[key] = true
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for k := range got {
		if !want[k] {
			t.Fatalf("unexpected pair %v", k)
		}
	}
}

func TestJoinMissingSideResume(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	m := buildMock(r, 6, 15)
	m.missing[4] = true
	q := NewJoin(geom.R(0, 0, 1, 1), 0.08)
	out := run(q, m, SeedRoot(q, m.rootRef))
	if out.Complete {
		t.Fatal("missing node must force a remainder")
	}
	resumed := run(q, m.fullWorld(), out.Remainder)
	if !resumed.Complete {
		t.Fatal("resume must complete")
	}
	total := map[[2]rtree.ObjectID]bool{}
	for _, p := range append(out.Pairs, resumed.Pairs...) {
		a, b := p[0].Obj, p[1].Obj
		if b < a {
			a, b = b, a
		}
		key := [2]rtree.ObjectID{a, b}
		if total[key] {
			t.Fatalf("pair %v from both local and resume", key)
		}
		total[key] = true
	}
	// Ground truth.
	want := 0
	ids := make([]rtree.ObjectID, 0, len(m.objects))
	for id := range m.objects {
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := m.objects[ids[i]], m.objects[ids[j]]
			if a.Intersects(q.JoinWindow) && b.Intersects(q.JoinWindow) && geom.RectMinDist(a, b) <= q.Dist {
				want++
			}
		}
	}
	if len(total) != want {
		t.Fatalf("got %d pairs, want %d", len(total), want)
	}
}

func TestSeedRootRejectsNonOverlapping(t *testing.T) {
	root := NodeRef(1, geom.R(0, 0, 0.1, 0.1))
	q := NewRange(geom.R(0.5, 0.5, 0.6, 0.6))
	if seed := SeedRoot(q, root); len(seed) != 0 {
		t.Error("non-overlapping window should produce an empty seed")
	}
	jq := NewJoin(geom.R(0.5, 0.5, 0.6, 0.6), 0.01)
	if seed := SeedRoot(jq, root); len(seed) != 0 {
		t.Error("non-overlapping join window should produce an empty seed")
	}
}

func TestEmptySeedCompletes(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	m := buildMock(r, 2, 2)
	q := NewRange(geom.R(2, 2, 3, 3))
	out := run(q, m, nil)
	if !out.Complete || len(out.Results) != 0 {
		t.Error("empty seed must complete with no results")
	}
}

func TestKindString(t *testing.T) {
	if Range.String() != "range" || KNN.String() != "knn" || Join.String() != "join" {
		t.Error("kind strings")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestRefAndElemHelpers(t *testing.T) {
	a := ObjectRef(1, geom.R(0, 0, 1, 1))
	b := NodeRef(2, geom.R(0, 0, 1, 1))
	if !b.Less(a) { // nodes sort before objects (RefNode < RefObject)
		t.Error("ordering broken")
	}
	p := PairOf(a, b)
	if p.A != b || p.B != a {
		t.Error("PairOf must canonicalize")
	}
	if !a.Same(a) || a.Same(b) {
		t.Error("Same broken")
	}
	if a.String() == "" || b.String() == "" || p.String() == "" ||
		SuperRef(1, "01", geom.R(0, 0, 1, 1)).String() == "" {
		t.Error("stringers empty")
	}
	e := rtree.Entry{MBR: geom.R(0, 0, 1, 1), Child: 5}
	if FromEntry(e).Kind != RefNode {
		t.Error("FromEntry child")
	}
	e = rtree.Entry{MBR: geom.R(0, 0, 1, 1), Obj: 5}
	if FromEntry(e).Kind != RefObject {
		t.Error("FromEntry object")
	}
}

// pairWorld is a random three-level index whose nodes expand into a mix of
// super entries, child nodes and objects, with some nodes, super entries and
// object payloads missing: every shape expandPair meets.
type pairWorld struct {
	children map[Ref][]Ref // keyed by the ref with its MBR, as Expand receives it
	missing  map[Ref]bool
	noObject map[rtree.ObjectID]bool
	inner    []Ref // expandable refs, by level from the root down
	leaves   []Ref // nodes whose children are objects
	objects  []Ref
}

func (w *pairWorld) Expand(ref Ref) ([]Ref, bool) {
	if w.missing[ref] {
		return nil, false
	}
	c, ok := w.children[ref]
	return c, ok
}

func (w *pairWorld) HaveObject(id rtree.ObjectID) bool { return !w.noObject[id] }

func buildPairWorld(r *rand.Rand) *pairWorld {
	w := &pairWorld{children: map[Ref][]Ref{}, missing: map[Ref]bool{}, noObject: map[rtree.ObjectID]bool{}}
	nextNode, nextObj := rtree.NodeID(1), rtree.ObjectID(1)
	cover := func(refs []Ref) geom.Rect {
		mbr := refs[0].MBR
		for _, c := range refs[1:] {
			mbr = mbr.Union(c.MBR)
		}
		return mbr
	}
	leaf := func(center geom.Point) Ref {
		var objs []Ref
		for i, n := 0, 2+r.Intn(8); i < n; i++ {
			p := geom.Pt(center.X+(r.Float64()-0.5)*0.1, center.Y+(r.Float64()-0.5)*0.1)
			objs = append(objs, ObjectRef(nextObj, geom.RectFromCenter(p, 0.004, 0.004)))
			if r.Intn(10) == 0 {
				w.noObject[nextObj] = true
			}
			nextObj++
		}
		// Duplicate MBRs: equal keys, so FIFO order among them shows.
		objs[len(objs)-1].MBR = objs[0].MBR
		ref := NodeRef(nextNode, cover(objs))
		nextNode++
		w.children[ref] = objs
		w.leaves = append(w.leaves, ref)
		w.objects = append(w.objects, objs...)
		return ref
	}
	var kids []Ref
	for i := 0; i < 6; i++ {
		center := geom.Pt(0.2+0.6*r.Float64(), 0.2+0.6*r.Float64())
		var under []Ref
		for j, n := 0, 2+r.Intn(3); j < n; j++ {
			under = append(under, leaf(geom.Pt(center.X+(r.Float64()-0.5)*0.2, center.Y+(r.Float64()-0.5)*0.2)))
		}
		mid := NodeRef(nextNode, cover(under))
		nextNode++
		// Half the mid nodes show their children behind two super entries.
		if r.Intn(2) == 0 {
			half := len(under) / 2
			lo := SuperRef(mid.Node, "0", cover(under[:half]))
			hi := SuperRef(mid.Node, "1", cover(under[half:]))
			w.children[lo], w.children[hi] = under[:half], under[half:]
			w.inner = append(w.inner, lo, hi)
			under = []Ref{lo, hi}
		}
		w.children[mid] = under
		w.inner = append(w.inner, mid)
		kids = append(kids, mid)
	}
	root := NodeRef(nextNode, cover(kids))
	w.children[root] = kids
	w.inner = append([]Ref{root}, w.inner...)
	for _, ref := range append(w.inner[1:], w.leaves...) {
		if r.Intn(12) == 0 {
			w.missing[ref] = true
		}
	}
	return w
}

// referenceJoin is the engine's heap loop for a join with pair expansion as
// it was before the join-window pre-filter: every child pair goes through
// emitPair, identity test first, in nested-loop order. expandPair must push
// the same pairs in the same order and count the same work.
func referenceJoin(q Query, prov Provider, seed []QueuedElem) Outcome {
	var out Outcome
	var h pq.Queue[Elem]
	var stuck []QueuedElem
	for _, qe := range seed {
		h.Push(qe.Key, qe.Elem)
		out.Stats.Pushes++
	}
	emitPair := func(x, y Ref) {
		out.Stats.Evals++
		if x.Same(y) && x.IsObject() {
			return
		}
		if !q.acceptsPair(x.MBR, y.MBR) {
			return
		}
		h.Push(q.PairKeyFor(x.MBR, y.MBR), PairOf(x, y))
		out.Stats.Pushes++
	}
	expandPair := func(a, b Ref) bool {
		switch {
		case a.IsObject():
			children, ok := prov.Expand(b)
			if !ok {
				return false
			}
			out.Stats.Expands++
			for _, c := range children {
				emitPair(a, c)
			}
		case b.IsObject():
			children, ok := prov.Expand(a)
			if !ok {
				return false
			}
			out.Stats.Expands++
			for _, c := range children {
				emitPair(c, b)
			}
		case a.Same(b):
			children, ok := prov.Expand(a)
			if !ok {
				return false
			}
			out.Stats.Expands++
			for i := range children {
				for j := i; j < len(children); j++ {
					emitPair(children[i], children[j])
				}
			}
		default:
			ca, okA := prov.Expand(a)
			if !okA {
				return false
			}
			ca = append([]Ref(nil), ca...)
			cb, okB := prov.Expand(b)
			if !okB {
				return false
			}
			out.Stats.Expands += 2
			for _, x := range ca {
				for _, y := range cb {
					emitPair(x, y)
				}
			}
		}
		return true
	}
	for h.Len() > 0 {
		key, elem := h.Pop()
		out.Stats.Pops++
		switch {
		case !elem.IsObjectElem():
			if !expandPair(elem.A, elem.B) {
				stuck = append(stuck, QueuedElem{Key: key, Elem: elem})
			}
		case prov.HaveObject(elem.A.Obj) && prov.HaveObject(elem.B.Obj):
			out.Pairs = append(out.Pairs, [2]Ref{elem.A, elem.B})
		default:
			stuck = append(stuck, QueuedElem{Key: key, Elem: elem})
		}
	}
	if len(stuck) == 0 {
		out.Complete = true
		return out
	}
	sort.SliceStable(stuck, func(i, j int) bool { return stuck[i].Key < stuck[j].Key })
	out.Remainder = stuck
	return out
}

// TestJoinExpansionMatchesNestedLoop seeds joins with every kind of pair — the
// root with itself, an object leaf with itself, a super entry with itself,
// two different nodes, an object beside a node on either side — under windows
// that cut through the children, and holds the engine to the reference's
// result pairs, remainder (keys and order) and Stats, field by field.
func TestJoinExpansionMatchesNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	var pushes, shapes [5]int
	for trial := 0; trial < 300; trial++ {
		w := buildPairWorld(r)
		pick := func(refs []Ref) Ref { return refs[r.Intn(len(refs))] }
		var a, b Ref
		shape := trial % 5
		switch shape {
		case 0:
			a = w.inner[0]
			b = a
		case 1:
			a = pick(w.leaves)
			b = a
		case 2:
			a = pick(w.inner[1:]) // a super entry where the world has one, else a mid node
			for _, ref := range w.inner[1:] {
				if ref.Kind == RefSuper && r.Intn(3) == 0 {
					a = ref
				}
			}
			b = a
		case 3:
			a, b = pick(append(w.inner[1:], w.leaves...)), pick(append(w.inner[1:], w.leaves...))
		default:
			a, b = pick(w.objects), pick(w.leaves)
		}
		side := 0.05 + r.Float64()*0.4
		q := NewJoin(geom.RectFromCenter(geom.Pt(a.MBR.Center().X, b.MBR.Center().Y), side, side), r.Float64()*0.05)
		seed := []QueuedElem{{Key: q.PairKeyFor(a.MBR, b.MBR), Elem: PairOf(a, b)}}
		if shape == 4 && trial%2 == 0 {
			seed[0].Elem = Elem{A: a, B: b, Pair: true} // the object on side a, as a foreign seed may have it
		}
		for id := range w.missing { // the seed's own sides are there, so the expansion under test runs
			if id.Same(a) || id.Same(b) {
				delete(w.missing, id)
			}
		}

		var runner Runner
		for rerun := 0; rerun < 2; rerun++ { // the second run is on warm scratch
			got, want := runner.Run(q, w, seed), referenceJoin(q, w, seed)
			if got.Stats != want.Stats {
				t.Fatalf("trial %d shape %d: stats %+v, want %+v", trial, shape, got.Stats, want.Stats)
			}
			if got.Complete != want.Complete || len(got.Results) != 0 {
				t.Fatalf("trial %d shape %d: complete %v, want %v; %d single results", trial, shape, got.Complete, want.Complete, len(got.Results))
			}
			if !slices.Equal(got.Pairs, want.Pairs) {
				t.Fatalf("trial %d shape %d: pairs differ\n%v\n%v", trial, shape, got.Pairs, want.Pairs)
			}
			if !slices.Equal(got.Remainder, want.Remainder) {
				t.Fatalf("trial %d shape %d: remainder differs\n%v\n%v", trial, shape, got.Remainder, want.Remainder)
			}
			pushes[shape] += got.Stats.Pushes - 1
		}
		shapes[shape]++
	}
	for shape, n := range pushes {
		if n == 0 {
			t.Errorf("shape %d never pushed a child pair in %d trials", shape, shapes[shape])
		}
	}
}
