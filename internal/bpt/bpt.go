// Package bpt names the binary partition trees of Section 4.2 of the paper:
// per-R-tree-node binary trees that recursively split a node's entries with
// the R*-tree split algorithm, enabling "super entries" (n, code) that
// coarsely summarize the entries a query did not access. The tree itself is
// the packed rtree.Page, made by the one page builder shards serve from.
package bpt

import (
	"strings"

	"repro/internal/rtree"
)

// Code addresses a position in a binary partition tree: the empty string is
// the root, and each '0'/'1' descends to the left/right child (the paper's
// (n, code) super-entry designator).
type Code string

// IsStrictAncestorOf reports whether d lies strictly below c.
func (c Code) IsStrictAncestorOf(d Code) bool {
	return len(d) > len(c) && strings.HasPrefix(string(d), string(c))
}

// Build returns the partition tree over the given entries (the entry list of
// R-tree node nodeID): the page rtree's page builder makes for that node,
// its 2E-1 positions in preorder, which is lexicographic code order. It
// panics on an empty entry list: partition trees exist only for non-empty
// nodes.
func Build(nodeID rtree.NodeID, entries []rtree.Entry) *rtree.Page {
	if len(entries) == 0 {
		panic("bpt: cannot build partition tree over zero entries")
	}
	return new(rtree.Packed).Page(&rtree.Node{ID: nodeID, Entries: entries})
}
