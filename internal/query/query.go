// Package query defines the spatial query model and the generic best-first
// processing engine of Section 3.3 of the paper.
//
// Any spatial query on an R-tree is processed by descending the tree with a
// priority queue H of to-be-explored elements (entries, or entry pairs for
// joins). The same engine runs on the server against the full index and on
// the mobile client against a partial, proactively cached index: on the
// client, elements whose target pages or object payloads are not cached
// become "missing entries" that stay in H, and when processing can no longer
// make progress the remaining H is handed to the server as the remainder
// query Qr = {Q, H} (the execution-state handover that makes cache reuse
// work across query types).
package query

import (
	"fmt"

	"repro/internal/geom"
)

// Kind enumerates the supported query types.
type Kind uint8

const (
	// Range returns all objects whose MBR intersects Window.
	Range Kind = iota + 1
	// KNN returns the K objects nearest to Center (by MBR MINDIST).
	KNN
	// Join is a distance self-join scoped to JoinWindow: all object pairs
	// inside the window whose MBR distance is at most Dist.
	Join
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Range:
		return "range"
	case KNN:
		return "knn"
	case Join:
		return "join"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Query describes one spatial query. Only the fields relevant to Kind are
// meaningful.
type Query struct {
	Kind Kind

	// Window is the range-query window.
	Window geom.Rect

	// Center and K parameterize kNN queries.
	Center geom.Point
	K      int

	// JoinWindow scopes the self-join to the client's neighborhood and Dist
	// is the distance threshold.
	JoinWindow geom.Rect
	Dist       float64
}

// NewRange builds a range query.
func NewRange(window geom.Rect) Query { return Query{Kind: Range, Window: window} }

// NewKNN builds a k-nearest-neighbor query.
func NewKNN(center geom.Point, k int) Query { return Query{Kind: KNN, Center: center, K: k} }

// NewJoin builds a windowed distance self-join.
func NewJoin(window geom.Rect, dist float64) Query {
	return Query{Kind: Join, JoinWindow: window, Dist: dist}
}

// accepts reports whether a single element with the given MBR can contain or
// be a result, and is therefore worth exploring.
func (q Query) accepts(mbr geom.Rect) bool {
	switch q.Kind {
	case Range:
		return q.Window.Intersects(mbr)
	case KNN:
		return true // pruning comes from the priority order
	default:
		return false
	}
}

// acceptsPair reports whether a pair element may contain result pairs.
func (q Query) acceptsPair(a, b geom.Rect) bool {
	return a.Intersects(q.JoinWindow) && b.Intersects(q.JoinWindow) &&
		geom.RectMinDist(a, b) <= q.Dist
}

// KeyFor returns the queue priority of a single element with the given MBR
// (smaller pops first); the server rekeys remainder queries with it.
func (q Query) KeyFor(mbr geom.Rect) float64 {
	if q.Kind == KNN {
		return geom.MinDist(q.Center, mbr)
	}
	return 0
}

// PairKeyFor returns the priority of a pair element.
func (q Query) PairKeyFor(a, b geom.Rect) float64 {
	return geom.RectMinDist(a, b)
}
