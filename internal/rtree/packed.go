package rtree

import (
	"sync/atomic"

	"repro/internal/geom"
)

// Packed is the page table of a tree's partition-tree representation — the
// only form the shard server reads. Every NodeID has a slot; a slot holds the
// immutable packed Page built from one generation of that node:
//
//	slots [NodeID] ──atomic──▶ Page{gen, rects, right, parent, codes, child, obj}
//	                 nil         never built (or dropped by Grow's lost CAS)
//	                 retired     the node was deleted; readers build and drop
//
//	builds  Pack/Repack (every live node, eagerly, into a fresh table); the
//	        writer's post-publish prewarm and any reader that misses (Page,
//	        publishing by CAS)
//	clears  the writer, when a publish group freed the node (Retire)
//
// A (NodeID, Gen) pair names immutable node content (the tree's contract), so
// one table serves readers of different snapshots: a lookup is an
// atomic load and a generation compare, and the newest generation wins the
// slot. NodeIDs are never reused, so a slot never changes owner.
type Packed struct {
	slots []atomic.Pointer[Page]
}

// Page is the binary partition tree of one node (Section 4.2: the same
// deterministic recursive R*-split bpt.Build runs, so topology, codes and
// exact MBRs agree with it bit for bit) flattened into parallel arrays
// indexed by position, laid out for traversal speed:
//
//	rects  []geom.Rect → exact float64 MBRs (result and key construction)
//	right  []int32     → preorder topology: left child = i+1, right = right[i],
//	                     0 = leaf (position 0 is the root, never a right child)
//	parent []int32     → ancestor closure for frontier marking, -1 at the root
//	codes  []string    → interned partition codes ("", "0", "01", ...)
//	child  []NodeID    → leaf position: child node (InvalidNode for objects)
//	obj    []ObjectID  → leaf position: object id
//
// A node with E entries has 2E-1 positions in preorder (root first, left
// subtree, then right subtree), which is also lexicographic code order.
type Page struct {
	gen uint32

	rects  []geom.Rect
	right  []int32
	parent []int32
	codes  []string
	child  []NodeID
	obj    []ObjectID
}

// retiredPage marks the slot of a deleted node. Only a reader still pinned to
// a snapshot from before the deletion can reach such a slot; it builds its
// page, uses it once and drops it, so nothing is cached for a dead id.
var retiredPage = new(Page)

// Pack builds the table with the page of every live, non-empty node of t.
// The tree must not be mutated during the call.
func Pack(t *Tree) *Packed { return Repack(t, nil) }

// Repack builds a fresh table for t that shares prev's page for every node
// whose (ID, Gen) is unchanged and builds the rest; pages are immutable, so
// sharing is a pointer copy. A nil prev builds everything.
func Repack(t *Tree, prev *Packed) *Packed {
	p := &Packed{slots: make([]atomic.Pointer[Page], t.NodeSpan())}
	var b pageBuilder
	t.Nodes(func(n *Node) bool {
		if len(n.Entries) == 0 {
			return true
		}
		pg := prev.cached(n)
		if pg == nil {
			pg = b.build(n)
		}
		p.slots[n.ID].Store(pg)
		return true
	})
	return p
}

// cached returns the slot's page when it holds n's current content.
func (p *Packed) cached(n *Node) *Page {
	if p == nil || int(n.ID) >= len(p.slots) {
		return nil
	}
	if pg := p.slots[n.ID].Load(); pg != nil && pg != retiredPage && pg.gen == n.Gen {
		return pg
	}
	return nil
}

// Page returns the packed page of the non-empty node n, building it when the
// slot is empty or holds another generation. A build for newer content than
// the slot's is published for later readers with a CAS; a build for older
// content (a reader pinned to a retired snapshot) is used once and dropped,
// so the table converges on the newest published content. The warm path —
// node unchanged since last visited — is one atomic load and a compare.
func (p *Packed) Page(n *Node) *Page {
	if pg := p.cached(n); pg != nil {
		return pg
	}
	var b pageBuilder
	built := b.build(n)
	if int(n.ID) < len(p.slots) {
		slot := &p.slots[n.ID]
		if old := slot.Load(); old == nil || (old != retiredPage && genBefore(old.gen, n.Gen)) {
			slot.CompareAndSwap(old, built)
		}
	}
	return built
}

// genBefore reports whether a precedes b in wraparound-safe generation order.
func genBefore(a, b uint32) bool { return int32(b-a) > 0 }

// Grow returns a table covering ids below span: p itself when it already
// does, otherwise a larger one carrying every page over. Only the writer
// calls it, before publishing a snapshot whose tree issued new ids; earlier
// snapshots keep the old table (their trees never contain the new ids). A
// reader's CAS into the old table that races the copy is lost, which costs
// one rebuild, never correctness.
func (p *Packed) Grow(span NodeID) *Packed {
	if int(span) <= len(p.slots) {
		return p
	}
	grown := &Packed{slots: make([]atomic.Pointer[Page], span)}
	for i := range p.slots {
		grown.slots[i].Store(p.slots[i].Load())
	}
	return grown
}

// Retire drops the page of a deleted node. Only the writer calls it.
func (p *Packed) Retire(id NodeID) { p.slots[id].Store(retiredPage) }

// NodeCount returns how many nodes have a cached page (diagnostics).
func (p *Packed) NodeCount() int {
	n := 0
	for i := range p.slots {
		if pg := p.slots[i].Load(); pg != nil && pg != retiredPage {
			n++
		}
	}
	return n
}

// Positions returns the total number of cached positions (diagnostics).
func (p *Packed) Positions() int {
	n := 0
	for i := range p.slots {
		if pg := p.slots[i].Load(); pg != nil {
			n += pg.Len()
		}
	}
	return n
}

// pageBuilder carries the split scratch across the pages of one Repack.
type pageBuilder struct {
	pg      *Page
	work    []Entry
	code    []byte
	scratch *SplitScratch
}

// build packs n's partition tree into a fresh page.
func (b *pageBuilder) build(n *Node) *Page {
	if cap(b.work) < len(n.Entries) {
		b.work = make([]Entry, 0, len(n.Entries)*2)
		b.scratch = NewSplitScratch(len(n.Entries)) // Split grows it for a larger page
	}
	b.work = append(b.work[:0], n.Entries...)
	b.code = b.code[:0]
	size := 2*len(n.Entries) - 1
	topo := make([]int32, 2*size)
	b.pg = &Page{
		gen:    n.Gen,
		rects:  make([]geom.Rect, size),
		right:  topo[:size],
		parent: topo[size:],
		codes:  make([]string, size),
		child:  make([]NodeID, size),
		obj:    make([]ObjectID, size),
	}
	b.emit(b.work, 0, -1)
	return b.pg
}

// emit writes the partition tree over entries in preorder starting at
// position idx and returns the next free position. It mirrors bpt's recursive
// construction: Split permutes entries in place and returns the left-half
// length.
func (b *pageBuilder) emit(entries []Entry, idx, parent int32) int32 {
	p := b.pg
	p.codes[idx] = internCode(b.code)
	p.parent[idx] = parent
	next := idx + 1
	if len(entries) == 1 {
		p.rects[idx] = entries[0].MBR
		p.child[idx] = entries[0].Child
		p.obj[idx] = entries[0].Obj
		return next
	}
	k := b.scratch.Split(entries, 1)
	b.code = append(b.code, '0')
	r := b.emit(entries[:k], next, idx)
	b.code[len(b.code)-1] = '1'
	next = b.emit(entries[k:], r, idx)
	b.code = b.code[:len(b.code)-1]
	p.right[idx] = r
	p.rects[idx] = p.rects[idx+1].Union(p.rects[r])
	return next
}

// internDepth bounds the code lengths covered by the shared intern table.
// R* splits do not balance, so longer codes are common, not pathological: on
// a bulk-loaded 100 000-object NE-like tree 17.7 % of positions exceed 12
// bits (p99 59, longest 112), on RD-like data 80.7 % do (docs/WIRE.md, "How
// long codes are"). Those positions fall back to allocating their string.
const internDepth = 12

// internedCodes holds one canonical string per binary partition code of up to
// internDepth bits, shared by every packed page. A page has ~2 positions per
// entry and a fresh string per position was the bulk of a page build's
// garbage — under a sustained update stream that garbage landed as GC
// pressure on the writer. Codes of length L occupy table indexes
// [2^L-1, 2^(L+1)-2] in value order.
var internedCodes = func() []string {
	t := make([]string, 1<<(internDepth+1)-1)
	buf := make([]byte, internDepth)
	for l := 1; l <= internDepth; l++ {
		base := 1<<l - 1
		for v := 0; v < 1<<l; v++ {
			for k := 0; k < l; k++ {
				buf[k] = '0' + byte(v>>(l-1-k)&1)
			}
			t[base+v] = string(buf[:l])
		}
	}
	return t
}()

// internCode returns the canonical shared string for a partition code.
func internCode(code []byte) string {
	if len(code) > internDepth {
		return string(code)
	}
	v := 0
	for _, c := range code {
		v = v<<1 | int(c&1)
	}
	return internedCodes[1<<len(code)-1+v]
}

// Len returns the number of positions (2E-1 for E entries).
func (p *Page) Len() int { return len(p.right) }

// FindCode resolves a partition code to its position by walking the packed
// topology bit by bit.
func (p *Page) FindCode(code string) (int32, bool) {
	i := int32(0)
	for k := 0; k < len(code); k++ {
		r := p.right[i]
		if r == 0 {
			return 0, false // descended past a leaf: stale or foreign code
		}
		if code[k] == '1' {
			i = r
		} else {
			i++
		}
	}
	return i, true
}

// IsLeaf reports whether position i stands for a single real entry.
func (p *Page) IsLeaf(i int32) bool { return p.right[i] == 0 }

// Right returns the right-child position of i (left child is always i+1);
// zero for leaves.
func (p *Page) Right(i int32) int32 { return p.right[i] }

// Parent returns the parent position of i, or -1 at the root.
func (p *Page) Parent(i int32) int32 { return p.parent[i] }

// Rect returns the exact MBR of position i.
func (p *Page) Rect(i int32) geom.Rect { return p.rects[i] }

// Code returns the partition code of position i.
func (p *Page) Code(i int32) string { return p.codes[i] }

// ChildID returns the child node a leaf position references (InvalidNode for
// object entries).
func (p *Page) ChildID(i int32) NodeID { return p.child[i] }

// ObjID returns the object a leaf position references.
func (p *Page) ObjID(i int32) ObjectID { return p.obj[i] }
