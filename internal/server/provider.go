package server

import (
	"repro/internal/bpt"
	"repro/internal/query"
	"repro/internal/rtree"
)

// provider implements query.Provider over the full index. In partitioned
// mode, node expansion navigates the node's binary partition tree (the
// embedded compact-form computation of Section 4.2), recording which
// positions were expanded so Ir can ship exactly the explored frontier.
// In flat mode (full-form index or index-less baselines) node expansion
// returns entries directly.
//
// Partition trees are read from the snapshot's page table (rtree.Packed):
// position topology, codes, and MBRs live in flat per-node arrays there, so
// expanding a super entry is a bit-walk over contiguous int32s, and the
// expanded set is a bitset with O(1) ancestor closure.
//
// A provider is reusable request-to-request: reset clears the per-request
// state while keeping every backing structure (the visited bitset, the
// visit-order list, the expanded-position bitsets, and the Expand scratch
// buffer), so a warm provider serves a request without allocating. It lives
// inside the server's pooled execState and is never shared between
// concurrent requests.
type provider struct {
	tree        *rtree.Tree
	pages       *rtree.Packed
	partitioned bool

	visitedCount int            // traversal counter behind ExecInfo.VisitedNodes
	visited      []rtree.NodeID // first-visit order (buildIndex and bitset reset)
	visitedBits  []uint64       // bitset indexed by NodeID over the tree's NodeSpan

	// Expanded positions: per node, a bitset over the node's page positions.
	pexp      map[rtree.NodeID][]uint64
	spareBits [][]uint64
	// One-entry cache over pexp: expansions of one node's positions arrive
	// in runs (the queue drains a node's supers together), so the common
	// mark skips the map entirely.
	lastPexpID   rtree.NodeID
	lastPexpBits []uint64

	scratch []query.Ref // Expand result buffer; valid until the next Expand
}

// reset binds the provider to a snapshot for one request. The bitset is
// sized to the snapshot tree's NodeSpan.
func (p *provider) reset(v *snapshot, partitioned bool) {
	p.tree = v.tree
	p.pages = v.pages
	p.partitioned = partitioned

	words := (int(v.tree.NodeSpan()) + 63) / 64
	if cap(p.visitedBits) < words {
		p.visitedBits = make([]uint64, words)
	} else {
		p.visitedBits = p.visitedBits[:words]
		// Clearing only previously set bits keeps reset O(visited nodes),
		// not O(index size).
		for _, id := range p.visited {
			p.visitedBits[id>>6] &^= 1 << (id & 63)
		}
	}
	p.visitedCount = 0
	p.visited = p.visited[:0]

	for id, bits := range p.pexp {
		clear(bits)
		p.spareBits = append(p.spareBits, bits)
		delete(p.pexp, id)
	}
	if p.pexp == nil {
		p.pexp = make(map[rtree.NodeID][]uint64)
	}
	p.lastPexpID = rtree.InvalidNode
	p.lastPexpBits = nil
	p.scratch = p.scratch[:0]
}

func (p *provider) visit(id rtree.NodeID) {
	w, bit := id>>6, uint64(1)<<(id&63)
	if p.visitedBits[w]&bit != 0 {
		return
	}
	p.visitedBits[w] |= bit
	p.visitedCount++
	p.visited = append(p.visited, id)
}

// markExpanded records that a partition-tree position was expanded, closing
// the set upward on the fly: every ancestor of an expanded position counts
// as expanded too. A remainder query resumed from a client's super entry
// (n, code) expands only the subtree below code; closing the set upward
// makes the shipped frontier a full cover of the node — the unexplored
// siblings ride along as super entries. Shipping partial covers would let a
// client whose copy of the node was just invalidated install a
// representation that silently hides entries, losing results forever.
// Expansion proceeds top-down, so the ancestor walk almost always stops at
// the immediate parent.
func (p *provider) markExpanded(id rtree.NodeID, pg *rtree.Page, pos int32) {
	bits := p.lastPexpBits
	if p.lastPexpID != id {
		var ok bool
		bits, ok = p.pexp[id]
		if !ok {
			words := (pg.Len() + 63) / 64
			if k := len(p.spareBits); k > 0 {
				bits = p.spareBits[k-1]
				p.spareBits = p.spareBits[:k-1]
			}
			if cap(bits) < words {
				bits = make([]uint64, words)
			}
			bits = bits[:words]
			clear(bits)
			p.pexp[id] = bits
		}
		p.lastPexpID, p.lastPexpBits = id, bits
	}
	for pos >= 0 {
		w, bit := uint32(pos)>>6, uint64(1)<<(uint32(pos)&63)
		if bits[w]&bit != 0 {
			return
		}
		bits[w] |= bit
		pos = pg.Parent(pos)
	}
}

// Expand implements query.Provider. The server never reports missing
// targets; a dangling reference returns an empty expansion. The returned
// slice is the provider's scratch buffer: valid until the next Expand call.
func (p *provider) Expand(ref query.Ref) ([]query.Ref, bool) {
	if ref.Kind != query.RefNode && ref.Kind != query.RefSuper {
		return nil, true
	}
	n, ok := p.tree.Node(ref.Node)
	if !ok {
		return nil, true
	}
	p.visit(n.ID)
	if len(n.Entries) == 0 {
		return nil, true
	}
	if ref.Kind == query.RefNode && !p.partitioned {
		p.scratch = p.scratch[:0]
		for _, e := range n.Entries {
			p.scratch = append(p.scratch, query.FromEntry(e))
		}
		return p.scratch, true
	}
	pg := p.pages.Page(n)
	var pos int32 // a node ref expands the page root
	if ref.Kind == query.RefSuper {
		// Super refs the provider itself created carry their page position;
		// only client-handed refs pay the code bit-walk.
		if h := ref.PosHint(); h != 0 {
			pos = int32(h - 1)
		} else if fp, found := pg.FindCode(string(ref.Code)); found {
			pos = fp
		} else {
			return nil, true
		}
		if pg.IsLeaf(pos) {
			return nil, true
		}
	}
	p.markExpanded(n.ID, pg, pos)
	p.scratch = appendPageChildren(p.scratch[:0], n.ID, pg, pos)
	return p.scratch, true
}

// HaveObject implements query.Provider; the server holds every object.
func (p *provider) HaveObject(rtree.ObjectID) bool { return true }

// LeafLevel implements query.LeafResolver: the server holds every object
// and never reports a target missing, so its joins resolve pairs of objects
// and level-0 nodes depth-first.
func (p *provider) LeafLevel(ref query.Ref) bool {
	if ref.Kind == query.RefObject {
		return true
	}
	n, ok := p.tree.Node(ref.Node)
	return ok && n.Level == 0
}

// pageRef converts a leaf position of a packed page into an engine reference
// — the flat-array twin of query.FromEntry.
func pageRef(pg *rtree.Page, pos int32) query.Ref {
	if c := pg.ChildID(pos); c != rtree.InvalidNode {
		return query.NodeRef(c, pg.Rect(pos))
	}
	return query.ObjectRef(pg.ObjID(pos), pg.Rect(pos))
}

// appendPageChildren converts the two children of position pos into engine
// references — leaves as real entries, internal positions as super entries.
// A leaf pos (single-entry node root) stands for its entry itself.
func appendPageChildren(dst []query.Ref, node rtree.NodeID, pg *rtree.Page, pos int32) []query.Ref {
	r := pg.Right(pos)
	if r == 0 {
		return append(dst, pageRef(pg, pos))
	}
	for _, c := range [2]int32{pos + 1, r} {
		if pg.IsLeaf(c) {
			dst = append(dst, pageRef(pg, c))
		} else {
			dst = append(dst, query.SuperRefHinted(node, bpt.Code(pg.Code(c)), pg.Rect(c), uint32(c)+1))
		}
	}
	return dst
}
