// Package rtree implements an R*-tree (Beckmann et al., SIGMOD 1990): the
// spatial index the paper's server maintains and whose nodes the proactive
// cache ships to mobile clients.
//
// The tree is a page registry: every node has a stable NodeID (the "physical
// address" of the paper's (MBR, p) entries), and clients refer to nodes by
// that id when constructing remainder queries. Dynamic inserts use the full
// R* algorithm (ChooseSubtree with overlap minimization, forced reinsertion,
// margin/overlap-driven splits); bulk construction uses Sort-Tile-Recursive
// packing with a configurable fill factor so index sizes match the paper's
// reported R*-tree sizes.
//
// A tree is a version: a dense table indexed by NodeID of pointers to pages
// that are immutable once another version can see them. Clone copies only
// the table, and the first mutation of a page inside a version copies that
// one page (copy-on-write), so any number of versions share every page they
// have in common and an older version never observes a newer one's writes.
// NodeIDs are never reused: a deleted page leaves a nil slot whose lookup
// fails forever (the liveness check clients' dangling references depend on).
package rtree

import (
	"fmt"
	"slices"

	"repro/internal/geom"
)

// ObjectID identifies a data object in the underlying dataset.
type ObjectID uint32

// NodeID identifies an index node (a disk page in the paper's model).
// The zero NodeID is never a valid node.
type NodeID uint32

// InvalidNode is the NodeID zero value, used where "no node" is meant.
const InvalidNode NodeID = 0

// Entry is one slot of a node: a child pointer for intermediate nodes or an
// object reference for leaf nodes, together with its minimum bounding
// rectangle.
type Entry struct {
	MBR   geom.Rect
	Child NodeID   // nonzero iff this entry belongs to an intermediate node
	Obj   ObjectID // object id iff this entry belongs to a leaf node
}

// IsLeafEntry reports whether the entry references a data object.
func (e Entry) IsLeafEntry() bool { return e.Child == InvalidNode }

// Node is an index page. Level 0 nodes are leaves whose entries reference
// objects; higher levels reference child nodes. The node's own MBR is not
// stored but derived from its entries (see Node.MBR).
type Node struct {
	ID     NodeID
	Level  int
	Parent NodeID // InvalidNode for the root
	// Gen counts content changes of this page: it is bumped on every touch
	// (entry list or entry-MBR mutation). Two snapshots of the same tree hold
	// the same (ID, Gen) pair exactly when the page content is identical, so
	// per-node derived structures (partition trees) can be cached keyed by
	// generation and shared across snapshots without invalidation traffic.
	Gen     uint32
	Entries []Entry

	// owner is the stamp of the tree version that created or copied this
	// page: the only version allowed to write it (see Tree.mut).
	owner *stamp
}

// stamp is a version's identity. It has a size so that distinct allocations
// have distinct addresses.
type stamp struct{ _ byte }

// Leaf reports whether the node is at leaf level.
func (n *Node) Leaf() bool { return n.Level == 0 }

// MBR returns the minimum bounding rectangle of all entries.
// It must not be called on an empty node.
func (n *Node) MBR() geom.Rect {
	mbr := n.Entries[0].MBR
	for _, e := range n.Entries[1:] {
		mbr = mbr.Union(e.MBR)
	}
	return mbr
}

// Params configures tree shape.
type Params struct {
	// MaxEntries is the page capacity M. MinEntries defaults to 40% of M,
	// ReinsertCount to 30% of M (the R*-tree recommendations).
	MaxEntries    int
	MinEntries    int
	ReinsertCount int
}

// DefaultParams mirrors the paper's 4 KB pages with 20-byte entries
// (16 bytes of float32 coordinates plus a 4-byte pointer), M = 204.
func DefaultParams() Params {
	return Params{MaxEntries: 204}
}

func (p Params) normalized() Params {
	if p.MaxEntries < 4 {
		p.MaxEntries = 4
	}
	if p.MinEntries <= 0 {
		p.MinEntries = p.MaxEntries * 2 / 5
	}
	if p.MinEntries < 2 {
		p.MinEntries = 2
	}
	if p.MinEntries > p.MaxEntries/2 {
		p.MinEntries = p.MaxEntries / 2
	}
	if p.ReinsertCount <= 0 {
		p.ReinsertCount = p.MaxEntries * 3 / 10
	}
	if p.ReinsertCount < 1 {
		p.ReinsertCount = 1
	}
	if p.ReinsertCount > p.MaxEntries-p.MinEntries {
		p.ReinsertCount = p.MaxEntries - p.MinEntries
	}
	return p
}

// Tree is one version of an R*-tree. It is not safe for concurrent mutation
// (Clone counts as one: it re-stamps the receiver); concurrent reads are
// safe, also while a clone of the tree is being mutated.
//
// Node pointers returned by Node, Nodes, or internal lookups show the page
// as of the last mutation of this version; a later mutation may replace the
// page with a copy, so mutating code writes only through mut and re-fetches
// a read-only pointer by id after any call that can write that page.
type Tree struct {
	params Params
	nodes  []*Node // page table indexed by NodeID; nil for slot 0 and deleted pages
	stamp  *stamp  // this version's identity; pages carrying it are written in place
	live   int     // number of live nodes
	root   NodeID
	height int // number of levels; 1 = root is a leaf
	size   int // number of stored objects

	// onTouch, when set, observes every node whose entry list or entry
	// MBRs change (including node creation and removal). The update /
	// cache-invalidation extension hangs off this hook.
	onTouch func(NodeID)
}

// SetTouchHook installs fn to observe node mutations; nil disables.
func (t *Tree) SetTouchHook(fn func(NodeID)) { t.onTouch = fn }

// touch records a content change of n, which must be this version's own
// copy (obtained through mut or newNode).
func (t *Tree) touch(n *Node) {
	n.Gen++
	t.notify(n.ID)
}

func (t *Tree) notify(id NodeID) {
	if t.onTouch != nil {
		t.onTouch(id)
	}
}

// New returns an empty tree with the given parameters.
func New(p Params) *Tree {
	t := &Tree{
		params: p.normalized(),
		nodes:  make([]*Node, 1, 64), // slot 0 reserved for InvalidNode
		stamp:  new(stamp),
	}
	t.root = t.newNode(0).ID
	t.height = 1
	return t
}

// newNode issues the next NodeID to a fresh page owned by this version.
func (t *Tree) newNode(level int) *Node {
	n := &Node{ID: NodeID(len(t.nodes)), Level: level, owner: t.stamp}
	t.nodes = append(t.nodes, n)
	t.live++
	return n
}

// freeNode deletes a page from this version: the id never resolves again.
// Older versions keep the page itself, so its storage is left to the GC.
func (t *Tree) freeNode(id NodeID) {
	t.nodes[id] = nil
	t.live--
	t.notify(id)
}

// node returns the page of a live id for reading. It is the trusted internal
// lookup: the id must be valid.
func (t *Tree) node(id NodeID) *Node {
	return t.nodes[id]
}

// mut returns the page of a live id for writing: the page itself when this
// version already owns it, otherwise a copy (header and entry list) that
// replaces it in this version's table. Copying is not a content change, so
// Gen is carried over; callers touch the page when they change its entries.
func (t *Tree) mut(id NodeID) *Node {
	n := t.nodes[id]
	if n.owner != t.stamp {
		c := *n
		c.owner = t.stamp
		c.Entries = slices.Clone(n.Entries)
		n = &c
		t.nodes[id] = n
	}
	return n
}

// setParent re-homes a child. A page whose parent pointer alone changes is
// copied like any other written page, but its content generation stays.
func (t *Tree) setParent(child, parent NodeID) {
	if t.nodes[child].Parent != parent {
		t.mut(child).Parent = parent
	}
}

// Root returns the id of the root node.
func (t *Tree) Root() NodeID { return t.root }

// RootEntry returns a synthetic entry referencing the root node, which is how
// query processing seeds its priority queue. The MBR covers the whole tree;
// for an empty tree it is the zero Rect.
func (t *Tree) RootEntry() Entry {
	root := t.node(t.root)
	e := Entry{Child: t.root}
	if len(root.Entries) > 0 {
		e.MBR = root.MBR()
	}
	return e
}

// Node returns the node with the given id, or false when no such page exists.
// Deleted ids keep failing forever (ids are never reused), which is the
// staleness check remainder queries over dangling client references rely on.
// The page must not be written, and shows this version as of its last
// mutation.
func (t *Tree) Node(id NodeID) (*Node, bool) {
	if int(id) >= len(t.nodes) {
		return nil, false
	}
	n := t.nodes[id]
	return n, n != nil
}

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of stored objects.
func (t *Tree) Len() int { return t.size }

// NodeCount returns the number of live index nodes.
func (t *Tree) NodeCount() int { return t.live }

// NodeSpan returns an exclusive upper bound on all NodeIDs ever issued.
// Callers use it to size dense per-node scratch structures (visited bitsets)
// indexed by NodeID.
func (t *Tree) NodeSpan() NodeID { return NodeID(len(t.nodes)) }

// Params returns the tree's normalized parameters.
func (t *Tree) Params() Params { return t.params }

// Nodes iterates over all live nodes in unspecified order.
func (t *Tree) Nodes(fn func(*Node) bool) {
	for _, n := range t.nodes {
		if n != nil && !fn(n) {
			return
		}
	}
}

// parentEntryIndex locates the slot of child within parent's entry list.
func parentEntryIndex(parent *Node, child NodeID) int {
	for i, e := range parent.Entries {
		if e.Child == child {
			return i
		}
	}
	return -1
}

// adjustPathMBRs recomputes parent entry MBRs along the path from n to the
// root after n's entries changed.
func (t *Tree) adjustPathMBRs(n *Node) {
	for n.Parent != InvalidNode {
		parent := t.node(n.Parent)
		i := parentEntryIndex(parent, n.ID)
		if i < 0 {
			panic(fmt.Sprintf("rtree: node %d missing from parent %d", n.ID, parent.ID))
		}
		mbr := n.MBR()
		if parent.Entries[i].MBR == mbr {
			return // no change propagates further
		}
		parent = t.mut(parent.ID)
		parent.Entries[i].MBR = mbr
		t.touch(parent)
		n = parent
	}
}
