package rtree

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/geom"
)

// mutatedTree builds a tree with a history of inserts and deletes so the
// table carries deleted ids and advanced Gen counters — everything an image
// must preserve exactly.
func mutatedTree(seed int64) *Tree {
	rng := rand.New(rand.NewSource(seed))
	t := New(Params{MaxEntries: 8})
	type obj struct {
		id ObjectID
		r  geom.Rect
	}
	var livePool []obj
	next := ObjectID(1)
	for i := 0; i < 600; i++ {
		if len(livePool) > 50 && rng.Float64() < 0.35 {
			j := rng.Intn(len(livePool))
			o := livePool[j]
			livePool[j] = livePool[len(livePool)-1]
			livePool = livePool[:len(livePool)-1]
			if !t.Delete(o.id, o.r) {
				panic("delete of a live object failed")
			}
			continue
		}
		x, y := rng.Float64(), rng.Float64()
		r := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}
		t.Insert(next, r)
		livePool = append(livePool, obj{next, r})
		next++
	}
	return t
}

// sameTree compares every piece of state the image round-trips.
func sameTree(t *testing.T, a, b *Tree) {
	t.Helper()
	if a.params != b.params {
		t.Fatalf("params %+v != %+v", a.params, b.params)
	}
	if len(a.nodes) != len(b.nodes) {
		t.Fatalf("span %d != %d", len(a.nodes), len(b.nodes))
	}
	assertTreesEqual(t, a, b)
}

func TestImageRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tr := mutatedTree(seed)
		if err := tr.Validate(false); err != nil {
			t.Fatalf("seed %d: source tree invalid: %v", seed, err)
		}
		img := tr.AppendImage(nil)
		got, err := ReadImage(img)
		if err != nil {
			t.Fatalf("seed %d: ReadImage: %v", seed, err)
		}
		sameTree(t, tr, got)
		if err := got.Validate(false); err != nil {
			t.Fatalf("seed %d: restored tree invalid: %v", seed, err)
		}
		// A restored tree must keep mutating exactly like the original:
		// issue the same fresh ids, bump the same generations.
		for i := 0; i < 64; i++ {
			id := ObjectID(1 << 20)
			r := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}
			tr.Insert(id+ObjectID(i), r)
			got.Insert(id+ObjectID(i), r)
		}
		sameTree(t, tr, got)
	}
}

// TestImageFromParentBuild reads a checkpoint image written before the tree
// was versioned (same imageVersion; 32 ids in its free-list section, 47
// deleted ids in a span of 75): the section is validated and dropped, the
// tree is intact, keeps mutating, and re-encodes with the section empty.
func TestImageFromParentBuild(t *testing.T) {
	img, err := os.ReadFile("testdata/parent_v1_freelist.img")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ReadImage(img)
	if err != nil {
		t.Fatalf("ReadImage: %v", err)
	}
	if tr.NodeCount() != 27 || tr.NodeSpan() != 75 || tr.Len() != 100 || tr.Height() != 3 || tr.Root() != 12 {
		t.Fatalf("decoded nodes=%d span=%d objects=%d height=%d root=%d, want 27/75/100/3/12",
			tr.NodeCount(), tr.NodeSpan(), tr.Len(), tr.Height(), tr.Root())
	}
	if err := tr.Validate(false); err != nil {
		t.Fatalf("decoded tree invalid: %v", err)
	}
	if again := tr.AppendImage(nil); len(again) != len(img)-32 {
		t.Errorf("re-encoded image is %d bytes, want %d (the parent's minus 32 one-byte free ids)", len(again), len(img)-32)
	}
	var objs []Entry
	tr.Nodes(func(n *Node) bool {
		if n.Leaf() {
			objs = append(objs, n.Entries...)
		}
		return true
	})
	for i, e := range objs {
		if i%2 == 0 && !tr.Delete(e.Obj, e.MBR) {
			t.Fatalf("delete of decoded object %d failed", e.Obj)
		}
		tr.Insert(ObjectID(1<<20+i), e.MBR)
	}
	if tr.NodeSpan() <= 75 {
		t.Errorf("150 updates issued no id past the decoded span")
	}
	if err := tr.Validate(false); err != nil {
		t.Fatalf("decoded tree invalid after updates: %v", err)
	}
}

func TestImageRoundTripBulk(t *testing.T) {
	items := make([]Item, 500)
	rng := rand.New(rand.NewSource(9))
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = Item{Obj: ObjectID(i + 1), MBR: geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}}
	}
	tr := BulkLoad(Params{MaxEntries: 16}, items, 0.7)
	got, err := ReadImage(tr.AppendImage(nil))
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, tr, got)
}

func TestImageEmptyTree(t *testing.T) {
	tr := New(Params{MaxEntries: 8})
	got, err := ReadImage(tr.AppendImage(nil))
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, tr, got)
}

// TestImageRejectsMalformed flips, truncates, and extends image bytes: every
// corruption must come back as an error or a still-consistent tree — never a
// panic (checkpoint files are read back after crashes, possibly torn).
func TestImageRejectsMalformed(t *testing.T) {
	img := mutatedTree(4).AppendImage(nil)
	if _, err := ReadImage(nil); err == nil {
		t.Error("nil image decoded")
	}
	if _, err := ReadImage([]byte{99}); err == nil {
		t.Error("bad version decoded")
	}
	for cut := 1; cut < len(img); cut += 97 {
		if _, err := ReadImage(img[:cut]); err == nil {
			// Some truncations can still parse when they land on a
			// boundary; the decode must simply not panic. But a cut that
			// drops live nodes must fail the span check.
			if cut < len(img)/2 {
				t.Errorf("truncation at %d decoded without error", cut)
			}
		}
	}
	for i := 0; i < len(img); i += 53 {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0x40
		_, _ = ReadImage(mut) // must not panic; error or not
	}
	if _, err := ReadImage(append(append([]byte(nil), img...), 0)); err == nil {
		t.Error("trailing byte decoded")
	}
}
