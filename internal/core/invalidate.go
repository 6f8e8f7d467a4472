package core

import (
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Cache invalidation — the client half of the update extension. The server
// guarantees that every index node whose entries changed since the client's
// epoch appears in the invalidation report, so dropping those items (and,
// per the constrained-knapsack rule, their cached descendants) before
// integrating a response restores the invariant that cached cuts always
// describe the current version of their node.

// Invalidate removes the listed nodes and objects together with their cached
// descendants. It returns the number of items dropped and whether any
// dropped item had been used by the current query — the signal that the
// query's local results may be stale and must be recomputed.
func (c *Cache) Invalidate(nodes []rtree.NodeID, objs []rtree.ObjectID) (removed int, usedNow bool) {
	for _, id := range nodes {
		r, u := c.invalidateKey(NodeKey(id))
		removed += r
		usedNow = usedNow || u
	}
	for _, id := range objs {
		r, u := c.invalidateKey(ObjKey(id))
		removed += r
		usedNow = usedNow || u
	}
	return removed, usedNow
}

func (c *Cache) invalidateKey(key ItemKey) (int, bool) {
	it, ok := c.items[key]
	if !ok {
		return 0, false
	}
	used := it.LastUsed == c.querySeq
	// Descendant usage also counts: collect before the cascade removes them.
	if !used {
		used = c.subtreeUsedNow(it)
	}
	return c.remove(key), used
}

// subtreeUsedNow reports whether any cached descendant of it was used by the
// current query.
func (c *Cache) subtreeUsedNow(it *Item) bool {
	if !it.Key.IsNode() || it.CachedChildren == 0 {
		return false
	}
	for i := range it.Refs {
		key, real := childKey(&it.Refs[i])
		if child, ok := c.items[key]; real && ok && (child.LastUsed == c.querySeq || c.subtreeUsedNow(child)) {
			return true
		}
	}
	return false
}

// Flush drops the entire cache (the server's response when a client's epoch
// fell off the update-log horizon). Structural knowledge maps are cleared
// too: they may describe a reorganized index.
func (c *Cache) Flush() {
	c.items = make(map[ItemKey]*Item)
	clear(c.list)
	c.list = c.list[:0]
	c.parentOf = make(map[ItemKey]rtree.NodeID)
	c.used = 0
	c.Ops++
}

// applyInvalidations processes the consistency portion of a response.
// It returns true when the current query consumed items that are now known
// stale, meaning its local results cannot be trusted.
func (c *Cache) applyInvalidations(resp *wire.Response) bool {
	if resp.FlushAll {
		hadItems := len(c.items) > 0
		c.Flush()
		return hadItems
	}
	if len(resp.InvalidNodes) == 0 && len(resp.InvalidObjs) == 0 {
		return false
	}
	_, usedNow := c.Invalidate(resp.InvalidNodes, resp.InvalidObjs)
	return usedNow
}
