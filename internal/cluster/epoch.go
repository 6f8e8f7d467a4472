package cluster

import (
	"sync"
	"sync/atomic"

	"repro/internal/rtree"
	"repro/internal/wire"
)

// Epoch virtualization. Every shard runs the single-node epoch protocol —
// a monotone counter bumped per published snapshot, with an invalidation
// log window behind it — but a client tracks exactly one epoch. The router
// therefore keeps, per client, a short ring of (virtual epoch -> per-shard
// epoch vector) entries: the virtual epoch a response carries names the
// vector of shard epochs whose invalidations that client has been handed.
//
// The vector advances only for shards a request actually touched: a query
// that fanned out to shard 2 alone delivers shard 2's invalidation window
// and leaves every other component where the client last stood, so the next
// request to any other shard still opens that shard's window from the right
// place. Under-claiming is always safe (an invalidation delivered twice is
// idempotent); over-claiming never happens by construction.
//
// The ring absorbs pipelining: concurrent in-flight requests from one client
// all quote the same virtual epoch, and their responses register sibling
// entries rather than invalidating each other. A client that quotes an epoch
// that has fallen off its ring — or one the router has never seen, e.g.
// after a router restart or table eviction — gets FlushAll, exactly like a
// single-node client falling off the update-log horizon.
//
// Memory model (docs/CLUSTER.md): O(clients x ring x shards) integers,
// bounded by per-lock-shard client caps with eviction; node re-keying
// itself is arithmetic and keeps no table at all.

// epochEntry is one registered virtual epoch of one client.
type epochEntry struct {
	virtual uint64
	vec     []uint64       // per-shard epochs covered through this entry
	roots   []rtree.NodeID // shard root ids the client's cached virtual root reflects
}

// clientEpochs is the per-client ring, guarded by its table shard's lock.
type clientEpochs struct {
	next uint64       // next virtual epoch to assign
	ring []epochEntry // oldest first
}

const (
	// epochLockShards spreads the client table over independent locks.
	epochLockShards = 32
	// defaultEpochRing is how many recent virtual epochs a client may
	// quote before the router answers FlushAll.
	defaultEpochRing = 32
	// defaultMaxClients caps tracked clients per lock shard; beyond it an
	// arbitrary client is evicted (and flushed on return).
	defaultMaxClients = 4096
)

// epochShard is one lock domain of the client table.
type epochShard struct {
	mu sync.Mutex
	m  map[wire.ClientID]*clientEpochs
}

// epochTable maps client virtual epochs to per-shard epoch vectors.
type epochTable struct {
	ring       int
	maxClients int // per lock shard
	// gen counts table-wide flushes (replica failovers). Requests capture it
	// before resolving their epoch base; a commit quoting a stale generation
	// is refused, so a response computed against pre-failover state can never
	// register a vector the promoted shard no longer backs.
	gen    atomic.Uint64
	shards [epochLockShards]epochShard
}

func newEpochTable(ring, maxClients int) *epochTable {
	t := &epochTable{ring: ring, maxClients: maxClients}
	for i := range t.shards {
		t.shards[i].m = make(map[wire.ClientID]*clientEpochs)
	}
	return t
}

func (t *epochTable) shard(id wire.ClientID) *epochShard {
	return &t.shards[uint32(id)%epochLockShards]
}

// generation returns the current flush generation; capture it before lookup
// and pass it back to commit.
func (t *epochTable) generation() uint64 { return t.gen.Load() }

// flushAll drops every tracked client, forcing FlushAll on their next
// request, and bumps the generation so in-flight commits are refused. The
// generation bumps before the maps clear: a concurrent commit either sees
// the new generation and aborts, or registered its entry early enough for
// the clear to remove it.
func (t *epochTable) flushAll() {
	t.gen.Add(1)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.m = make(map[wire.ClientID]*clientEpochs)
		sh.mu.Unlock()
	}
}

// lookup copies the vector and root set registered under (client, virtual)
// into dst slices (one entry per slot). It reports false when the client or
// the virtual epoch is unknown — the caller must then flush the client.
//
// A stored vector may be shorter than dst when the cluster grew (an elastic
// split adds a slot without flushing clients): the new slots pad with epoch
// 0 — always-safe under-claiming, the new shard's whole history is "not yet
// delivered" — and root InvalidNode, which can never equal the live root,
// so the client's very next response carries the virtual-root invalidation
// the topology change owes it.
func (t *epochTable) lookup(id wire.ClientID, virtual uint64, dstVec []uint64, dstRoots []rtree.NodeID) bool {
	sh := t.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.m[id]
	if !ok {
		return false
	}
	for i := len(st.ring) - 1; i >= 0; i-- {
		if st.ring[i].virtual == virtual {
			n := copy(dstVec, st.ring[i].vec)
			for j := n; j < len(dstVec); j++ {
				dstVec[j] = 0
			}
			n = copy(dstRoots, st.ring[i].roots)
			for j := n; j < len(dstRoots); j++ {
				dstRoots[j] = rtree.InvalidNode
			}
			return true
		}
	}
	return false
}

// commit registers the vector a response delivered and returns the virtual
// epoch to stamp on it. An entry with an identical vector and root set is
// reused (the common no-update steady state registers nothing and allocates
// nothing); otherwise a new entry is appended after the base and the ring is
// trimmed. baseVirtual is the epoch the request quoted; the returned epoch
// is always >= it, and never 0 unless the whole cluster is still at epoch 0.
// gen is the generation the request captured before resolving its base; the
// second return is false when a flushAll intervened and the caller must
// flush the client instead of committing.
func (t *epochTable) commit(id wire.ClientID, baseVirtual uint64, vec []uint64, roots []rtree.NodeID, gen uint64) (uint64, bool) {
	sh := t.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t.gen.Load() != gen {
		return 0, false
	}
	st, ok := sh.m[id]
	if !ok {
		if baseVirtual == 0 && allZero(vec) {
			// Nothing has ever changed: keep epoch 0 and track no state,
			// so an update-free cluster never grows the client table.
			return 0, true
		}
		if len(sh.m) >= t.maxClients {
			for evict := range sh.m {
				delete(sh.m, evict)
				break
			}
		}
		st = &clientEpochs{next: baseVirtual + 1}
		sh.m[id] = st
	}
	for i := len(st.ring) - 1; i >= 0; i-- {
		e := &st.ring[i]
		if equalVec(e.vec, vec) && equalRoots(e.roots, roots) {
			return e.virtual, true
		}
	}
	v := st.next
	if v <= baseVirtual {
		v = baseVirtual + 1
	}
	st.next = v + 1
	st.ring = append(st.ring, epochEntry{
		virtual: v,
		vec:     append([]uint64(nil), vec...),
		roots:   append([]rtree.NodeID(nil), roots...),
	})
	if len(st.ring) > t.ring {
		st.ring = st.ring[len(st.ring)-t.ring:]
	}
	return v, true
}

func allZero(v []uint64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

func equalVec(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalRoots(a, b []rtree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
