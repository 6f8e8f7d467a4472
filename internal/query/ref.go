package query

import (
	"fmt"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// RefKind discriminates what a Ref points at.
type RefKind uint8

const (
	// RefNode references an R-tree node (the paper's non-leaf entry).
	RefNode RefKind = iota + 1
	// RefSuper references a super entry (n, code) of a node's binary
	// partition tree — a coarse stand-in for the entries beneath it.
	RefSuper
	// RefObject references a data object (the paper's leaf entry).
	RefObject
)

// Ref is one explorable element: an entry of the (possibly partial) index.
// The fields are ordered so that a Ref packs into 64 bytes: the engine
// copies refs through its queue slab and result buffers by the million.
type Ref struct {
	MBR  geom.Rect
	Code bpt.Code       // RefSuper
	Node rtree.NodeID   // RefNode, RefSuper
	Obj  rtree.ObjectID // RefObject

	// hint is a provider-local packed-position hint (rtree.Packed index + 1,
	// zero when absent). It is an execution-side shortcut only: never
	// serialized, excluded from Same/Less, and meaningful only to the
	// provider that created the ref within the same request.
	hint uint32

	Kind RefKind
}

// SuperRefHinted is SuperRef carrying a packed-position hint.
func SuperRefHinted(id rtree.NodeID, code bpt.Code, mbr geom.Rect, hint uint32) Ref {
	return Ref{Kind: RefSuper, Node: id, Code: code, MBR: mbr, hint: hint}
}

// PosHint returns the packed-position hint (zero when absent).
func (r Ref) PosHint() uint32 { return r.hint }

// NodeRef builds a node reference.
func NodeRef(id rtree.NodeID, mbr geom.Rect) Ref {
	return Ref{Kind: RefNode, Node: id, MBR: mbr}
}

// SuperRef builds a super-entry reference.
func SuperRef(id rtree.NodeID, code bpt.Code, mbr geom.Rect) Ref {
	return Ref{Kind: RefSuper, Node: id, Code: code, MBR: mbr}
}

// ObjectRef builds an object reference.
func ObjectRef(id rtree.ObjectID, mbr geom.Rect) Ref {
	return Ref{Kind: RefObject, Obj: id, MBR: mbr}
}

// IsObject reports whether the ref is a leaf entry in the paper's sense.
func (r Ref) IsObject() bool { return r.Kind == RefObject }

// FromEntry converts an R-tree entry into a Ref.
func FromEntry(e rtree.Entry) Ref {
	if e.IsLeafEntry() {
		return ObjectRef(e.Obj, e.MBR)
	}
	return NodeRef(e.Child, e.MBR)
}

// Less imposes a deterministic total order on refs, used to canonicalize
// unordered self-join pairs.
func (r Ref) Less(s Ref) bool {
	if r.Kind != s.Kind {
		return r.Kind < s.Kind
	}
	if r.Node != s.Node {
		return r.Node < s.Node
	}
	if r.Code != s.Code {
		return r.Code < s.Code
	}
	return r.Obj < s.Obj
}

// Same reports identity of the referenced target.
func (r Ref) Same(s Ref) bool {
	return r.Kind == s.Kind && r.Node == s.Node && r.Code == s.Code && r.Obj == s.Obj
}

// String implements fmt.Stringer.
func (r Ref) String() string {
	switch r.Kind {
	case RefNode:
		return fmt.Sprintf("node:%d", r.Node)
	case RefSuper:
		return fmt.Sprintf("super:%d/%s", r.Node, r.Code)
	case RefObject:
		return fmt.Sprintf("obj:%d", r.Obj)
	default:
		return "ref:?"
	}
}

// Elem is a priority-queue element: a single ref, or a pair for join queries.
type Elem struct {
	A, B Ref
	Pair bool
}

// Single wraps one ref.
func Single(r Ref) Elem { return Elem{A: r} }

// PairOf wraps an unordered pair in canonical order.
func PairOf(a, b Ref) Elem {
	if b.Less(a) {
		a, b = b, a
	}
	return Elem{A: a, B: b, Pair: true}
}

// IsObjectElem reports whether the element is fully resolved to objects: a
// single object ref, or an object-object pair (the paper's "leaf entry").
func (e Elem) IsObjectElem() bool {
	if e.Pair {
		return e.A.IsObject() && e.B.IsObject()
	}
	return e.A.IsObject()
}

// String implements fmt.Stringer.
func (e Elem) String() string {
	if e.Pair {
		return fmt.Sprintf("<%s,%s>", e.A, e.B)
	}
	return e.A.String()
}

// QueuedElem is an element together with its priority and the reason it could
// not be processed locally. Remainder queries ship slices of QueuedElem.
type QueuedElem struct {
	Key  float64
	Elem Elem

	// Deferred marks a locally available object element that could not be
	// confirmed as a result because a missing non-leaf element preceded it
	// in H (the kNN ordering rule of Section 3.3). The server re-confirms
	// it without resending the payload.
	Deferred bool
}
