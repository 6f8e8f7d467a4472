// Package core implements the paper's primary contribution: the proactive
// cache (Section 3.2), the client-side query processor of Algorithm 1, the
// false-miss accounting behind the adaptive scheme (Section 4), and the
// GRD3-family cache replacement algorithms (Section 5).
//
// The cache holds two kinds of items — index nodes (as partition-tree cuts)
// and data objects — linked into a forest by parent pointers. The definition
// of proactive caching imposes the constrained-knapsack eviction rule: an
// item can only be dropped together with all its cached descendants, because
// a node that is unreachable from above can never support a query again.
package core

import (
	"fmt"
	"slices"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// ItemKey identifies a cached item: exactly one of Node or Obj is set.
type ItemKey struct {
	Node rtree.NodeID
	Obj  rtree.ObjectID
}

// NodeKey returns the key of an index-node item.
func NodeKey(id rtree.NodeID) ItemKey { return ItemKey{Node: id} }

// ObjKey returns the key of an object item.
func ObjKey(id rtree.ObjectID) ItemKey { return ItemKey{Obj: id} }

// IsNode reports whether the key names an index node.
func (k ItemKey) IsNode() bool { return k.Node != rtree.InvalidNode }

// String implements fmt.Stringer.
func (k ItemKey) String() string {
	if k.IsNode() {
		return fmt.Sprintf("node:%d", k.Node)
	}
	return fmt.Sprintf("obj:%d", k.Obj)
}

// Item is one cached unit together with the metadata GRD3 needs
// (Section 5.2: address, size, insertion time, hit count, parent, cached
// children).
type Item struct {
	Key    ItemKey
	Parent ItemKey // zero for parentless items (the index root)

	Size       int
	InsertedAt uint64 // query sequence id at insertion
	Hits       int    // number of distinct queries that used the item
	LastUsed   uint64 // query sequence id of the last use (LRU/MRU)

	CachedChildren int

	// Node items: the cached representation, a partition-tree cut sorted by
	// code, held as the engine refs a cached expansion returns and, in
	// parallel, each element's code (a real entry's ref carries none).
	Level int
	Refs  []query.Ref
	Codes []bpt.Code

	// Region is the MBR of the item's contents (FAR policy distance).
	Region geom.Rect

	pos int // index in Cache.list
}

// Prob estimates the item's access probability: hits over the number of
// queries it has lived through (Section 5.2).
func (it *Item) Prob(now uint64) float64 {
	age := now - it.InsertedAt
	if age < 1 {
		age = 1
	}
	return float64(it.Hits) / float64(age)
}

// Cache is the proactive cache. A cache, the providers over it and the
// slices they return belong to one goroutine: a provider's expansion of a
// cached node is that item's own Refs, read-only and valid until the cache
// next changes, and eviction and insertion reuse scratch of their own.
type Cache struct {
	capacity int
	used     int
	items    map[ItemKey]*Item
	list     []*Item // every item once, Item.pos its index: a scan order that is not the map's
	policy   Policy
	sizes    wire.SizeModel

	// Static structural knowledge accumulated from shipped representations:
	// it maps children to the nodes whose entries reference them. Entries
	// persist across evictions (the index is immutable during a run).
	parentOf map[ItemKey]rtree.NodeID

	querySeq uint64
	position geom.Point // client location, consulted by the FAR policy

	// Ops counts cache operations (lookups, insertions, eviction steps) for
	// the client CPU cost model of Figure 9.
	Ops int

	mergeRefs  []query.Ref // insertNodeRep's merged cut
	mergeCodes []bpt.Code
	victims    []victim // evictGRD3's candidate heap
}

// NewCache builds a cache with the given byte capacity and policy.
func NewCache(capacity int, policy Policy, sizes wire.SizeModel) *Cache {
	return &Cache{
		capacity: capacity,
		items:    make(map[ItemKey]*Item),
		policy:   policy,
		sizes:    sizes,
		parentOf: make(map[ItemKey]rtree.NodeID),
	}
}

// Used returns the occupied bytes.
func (c *Cache) Used() int { return c.used }

// Len returns the number of cached items.
func (c *Cache) Len() int { return len(c.items) }

// IndexBytes returns the bytes occupied by index-node items (the i/c metric
// of Figure 11 is IndexBytes over Used).
func (c *Cache) IndexBytes() int {
	n := 0
	for _, it := range c.list {
		if it.Key.IsNode() {
			n += it.Size
		}
	}
	return n
}

// BeginQuery advances the query clock and returns the new sequence id.
func (c *Cache) BeginQuery() uint64 {
	c.querySeq++
	return c.querySeq
}

// SetPosition records the client's current location for the FAR policy.
func (c *Cache) SetPosition(p geom.Point) { c.position = p }

// Node returns a cached node item.
func (c *Cache) Node(id rtree.NodeID) (*Item, bool) {
	c.Ops++
	it, ok := c.items[NodeKey(id)]
	return it, ok
}

// Object returns a cached object item.
func (c *Cache) Object(id rtree.ObjectID) (*Item, bool) {
	c.Ops++
	it, ok := c.items[ObjKey(id)]
	return it, ok
}

// HasObject reports whether an object payload is cached, without counting a
// hit.
func (c *Cache) HasObject(id rtree.ObjectID) bool {
	_, ok := c.items[ObjKey(id)]
	return ok
}

// touch records a use of the item by the current query. Hit counts increase
// at most once per query (metadata 4 counts hit queries, not accesses).
func (c *Cache) touch(it *Item) {
	if it.LastUsed != c.querySeq {
		it.LastUsed = c.querySeq
		it.Hits++
	}
}

func (c *Cache) nodeItemSize(cutLen int) int {
	return c.sizes.NodeHeader + cutLen*c.sizes.Entry
}

// add enters a new item, beneath its structural parent when that is cached.
func (c *Cache) add(it *Item) {
	c.linkParent(it)
	it.pos = len(c.list)
	c.list = append(c.list, it)
	c.items[it.Key] = it
	c.used += it.Size
}

// InsertResponse integrates a server response: index representations first
// (parents before children, as shipped), then result objects, then eviction
// back to capacity. The response must be accounted (false-miss checks)
// before calling this, because insertion changes cache membership.
func (c *Cache) InsertResponse(resp *wire.Response) {
	for i := range resp.Index {
		c.insertNodeRep(&resp.Index[i])
	}
	for _, o := range resp.Objects {
		if o.Payload {
			c.insertObject(o)
		}
	}
	c.evictToCapacity()
}

// insertNodeRep merges a shipped node representation into the cache:
// knowledge only ever gets finer (mergeCuts).
func (c *Cache) insertNodeRep(rep *wire.NodeRep) {
	c.Ops++
	if len(rep.Elems) == 0 {
		return
	}
	key := NodeKey(rep.ID)
	it, exists := c.items[key]
	if exists {
		c.mergeRefs, c.mergeCodes = mergeCuts(c.mergeRefs[:0], c.mergeCodes[:0], it.Refs, it.Codes, rep)
		it.Refs = append(it.Refs[:0], c.mergeRefs...)
		it.Codes = append(it.Codes[:0], c.mergeCodes...)
	} else {
		it = &Item{
			Key:        key,
			InsertedAt: c.querySeq,
			LastUsed:   c.querySeq,
			Hits:       1,
			Level:      rep.Level,
		}
		// Nothing cached to merge with: the cut goes straight into the item.
		n := len(rep.Elems)
		it.Refs, it.Codes = mergeCuts(make([]query.Ref, 0, n), make([]bpt.Code, 0, n), nil, nil, rep)
		c.add(it)
	}
	oldSize := it.Size
	it.Size = c.nodeItemSize(len(it.Refs))
	c.used += it.Size - oldSize

	// Record the region and the structural knowledge exposed by real entries.
	it.Region = it.Refs[0].MBR
	for i := range it.Refs {
		it.Region = it.Region.Union(it.Refs[i].MBR)
		if child, ok := childKey(&it.Refs[i]); ok {
			c.parentOf[child] = rep.ID
		}
	}
	c.Ops += len(rep.Elems)
}

// childKey returns the item a real entry references; super entries reference
// none.
func childKey(ref *query.Ref) (ItemKey, bool) {
	switch ref.Kind {
	case query.RefNode:
		return NodeKey(ref.Node), true
	case query.RefObject:
		return ObjKey(ref.Obj), true
	default:
		return ItemKey{}, false
	}
}

// mergeCuts appends to refs and codes the finest common refinement of a
// node's cached cut (cachedRefs, cachedCodes) and the cut shipped in rep,
// both in code order, which is how servers ship them: the deepest positions
// of the union survive, and the shipped element replaces a cached one at the
// same position. Each shipped element becomes an engine ref here, once. In
// code order an element's descendants follow it immediately, so each element
// is compared with the one before.
func mergeCuts(refs []query.Ref, codes []bpt.Code, cachedRefs []query.Ref, cachedCodes []bpt.Code, rep *wire.NodeRep) ([]query.Ref, []bpt.Code) {
	shipped := rep.Elems
	refs = slices.Grow(refs, len(cachedCodes)+len(shipped))
	codes = slices.Grow(codes, len(cachedCodes)+len(shipped))
	for i, j := 0, 0; i < len(cachedCodes) || j < len(shipped); {
		fromCache := j == len(shipped) || (i < len(cachedCodes) && cachedCodes[i] <= shipped[j].Code)
		var code bpt.Code
		if fromCache {
			code = cachedCodes[i]
		} else {
			code = shipped[j].Code
		}
		n := len(codes)
		if n == 0 || (codes[n-1] != code && !codes[n-1].IsStrictAncestorOf(code)) {
			refs, codes = refs[:n+1], codes[:n+1]
			n++
		}
		codes[n-1] = code
		if fromCache {
			refs[n-1] = cachedRefs[i]
			i++
		} else {
			refs[n-1] = shipped[j].Ref(rep.ID)
			j++
		}
	}
	return refs, codes
}

// insertObject caches a result object's payload.
func (c *Cache) insertObject(o wire.ObjectRep) {
	c.Ops++
	key := ObjKey(o.ID)
	if _, exists := c.items[key]; exists {
		return
	}
	it := &Item{
		Key:        key,
		Size:       o.Size,
		InsertedAt: c.querySeq,
		LastUsed:   c.querySeq,
		Hits:       1,
		Region:     o.MBR,
	}
	c.add(it)
}

// linkParent attaches it beneath its structural parent when that parent is
// cached and its current cut actually exposes a real entry for it (the
// exposure check guards against structural knowledge that predates index
// updates).
func (c *Cache) linkParent(it *Item) {
	id, known := c.parentOf[it.Key]
	parent, cached := c.items[NodeKey(id)]
	if !known || !cached || !parentExposes(parent, it.Key) {
		return
	}
	it.Parent = parent.Key
	parent.CachedChildren++
}

// parentExposes reports whether parent's cut holds a real entry for key.
func parentExposes(parent *Item, key ItemKey) bool {
	for i := range parent.Refs {
		if child, ok := childKey(&parent.Refs[i]); ok && child == key {
			return true
		}
	}
	return false
}

// remove deletes an item and, per the constrained-knapsack rule, all of its
// cached descendants. It returns the number of items removed.
func (c *Cache) remove(key ItemKey) int {
	it, ok := c.items[key]
	if !ok {
		return 0
	}
	removed := 0
	// Remove descendants first.
	if it.Key.IsNode() && it.CachedChildren > 0 {
		for i := 0; i < len(it.Refs) && it.CachedChildren > 0; i++ {
			if child, ok := childKey(&it.Refs[i]); ok {
				removed += c.remove(child)
			}
		}
	}
	delete(c.items, key)
	last := c.list[len(c.list)-1]
	c.list[it.pos], last.pos = last, it.pos
	c.list[len(c.list)-1] = nil
	c.list = c.list[:len(c.list)-1]
	c.used -= it.Size
	removed++
	c.Ops++
	if it.Parent != (ItemKey{}) {
		if parent, ok := c.items[it.Parent]; ok {
			parent.CachedChildren--
		}
	}
	return removed
}

// Validate checks the cache's structural invariants (tests only).
func (c *Cache) Validate() error {
	var used int
	children := make(map[ItemKey]int)
	for key, it := range c.items {
		if key != it.Key {
			return fmt.Errorf("core: item %v keyed as %v", it.Key, key)
		}
		used += it.Size
		if it.Parent != (ItemKey{}) {
			parent, ok := c.items[it.Parent]
			if !ok {
				return fmt.Errorf("core: item %v has evicted parent %v", key, it.Parent)
			}
			if !parent.Key.IsNode() {
				return fmt.Errorf("core: item %v parented by object %v", key, it.Parent)
			}
			if !parentExposes(parent, key) {
				return fmt.Errorf("core: parent %v does not expose %v", it.Parent, key)
			}
			children[it.Parent]++
		}
		if it.pos >= len(c.list) || c.list[it.pos] != it {
			return fmt.Errorf("core: item %v not at its list position", key)
		}
		if key.IsNode() {
			if err := c.validateCut(it); err != nil {
				return err
			}
		}
	}
	for key, n := range children {
		if c.items[key].CachedChildren != n {
			return fmt.Errorf("core: %v CachedChildren %d, want %d", key, c.items[key].CachedChildren, n)
		}
	}
	for key, it := range c.items {
		if _, counted := children[key]; !counted && it.CachedChildren != 0 {
			return fmt.Errorf("core: %v CachedChildren %d, want 0", key, it.CachedChildren)
		}
	}
	if len(c.list) != len(c.items) {
		return fmt.Errorf("core: list holds %d items, map %d", len(c.list), len(c.items))
	}
	if used != c.used {
		return fmt.Errorf("core: used %d, items sum to %d", c.used, used)
	}
	if c.used > c.capacity {
		return fmt.Errorf("core: used %d exceeds capacity %d", c.used, c.capacity)
	}
	return nil
}

// validateCut checks a node item's cut: one code per ref, in code order and
// an antichain, every ref of a known kind, and every super ref naming the
// item's own node at its code.
func (c *Cache) validateCut(it *Item) error {
	key := it.Key
	if len(it.Refs) != len(it.Codes) {
		return fmt.Errorf("core: node %v holds %d refs and %d codes", key, len(it.Refs), len(it.Codes))
	}
	if want := c.nodeItemSize(len(it.Refs)); it.Size != want {
		return fmt.Errorf("core: node %v size %d, want %d", key, it.Size, want)
	}
	for i := range it.Refs {
		switch ref := &it.Refs[i]; ref.Kind {
		case query.RefNode, query.RefObject:
		case query.RefSuper:
			if ref.Node != key.Node || ref.Code != it.Codes[i] {
				return fmt.Errorf("core: node %v holds %v at code %q", key, *ref, it.Codes[i])
			}
		default:
			return fmt.Errorf("core: node %v holds a ref of kind %d at code %q", key, ref.Kind, it.Codes[i])
		}
		if i > 0 {
			if prev, code := it.Codes[i-1], it.Codes[i]; prev >= code || prev.IsStrictAncestorOf(code) {
				return fmt.Errorf("core: node %v cut is not a code-sorted antichain at %q, %q", key, prev, code)
			}
		}
	}
	return nil
}
