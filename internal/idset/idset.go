// Package idset is the per-request deduplication set of the serving path: a
// set of uint64 keys (object and node ids, or a join pair packed as a<<32|b)
// that a pooled request state fills, queries and resets once per request.
//
// It is an open-addressing table whose slots carry the generation that
// wrote them. Reset bumps the generation instead of clearing, so a reset
// costs O(1) however large the last answer was, and a warm set answers a
// request of any size up to the retention bound without allocating.
package idset

import (
	"math/bits"
	"math/rand/v2"
)

// maxRetainedSlots bounds the table a Reset keeps. A set that grew past it
// is dropped, so one pathological request (a huge CachedIDs list, a
// runaway join) does not pin its table in a pool for good. The bound keeps
// the big-scans answers warm: the largest range there answers 5 774
// objects (16 384 slots, 256 KiB) and a tail join up to ~28 000 pairs
// (65 536 slots, 1 MiB). A larger join, 1–2 % of them, regrows its table
// from scratch, one allocation per doubling against the milliseconds its
// more than 32 768 pairs take to find.
const maxRetainedSlots = 1 << 16

// seed keys the hash. Keys come partly from clients (cached ids, handed-over
// queue entries), so like the runtime's map hash it is drawn at random per
// process: a client cannot precompute ids that share a probe sequence.
var seed = rand.Uint64()

type slot struct {
	key uint64
	gen uint32 // the slot holds key iff gen equals the set's generation
}

// Set is a set of uint64 keys. The zero value is an empty set ready to use.
// A Set is not safe for concurrent use.
type Set struct {
	slots []slot // len is zero or a power of two
	gen   uint32 // live generation; never 0 once slots is allocated
	n     int
}

// mix folds the 128-bit product of a and b into 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hash is the Go runtime's fallback hash for 64-bit map keys (wyhash's
// multiply-fold over the two 32-bit halves), keyed by the process seed.
func hash(k uint64) uint64 {
	const (
		m1 = 0xa0761d6478bd642f
		m2 = 0xe7037ed1a0b428db
		m5 = 0x1d8e4e27c47d124f
	)
	return mix(m5^8, mix(k&0xffffffff^m2, k>>32^seed^m1))
}

// Has reports whether k is in the set. An empty set answers without
// hashing, inline at the call site.
func (s *Set) Has(k uint64) bool { return s.n != 0 && s.has(k) }

func (s *Set) has(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := hash(k) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			return false
		}
		if sl.key == k {
			return true
		}
	}
}

// Add inserts k and reports whether it was absent.
func (s *Set) Add(k uint64) bool {
	if 2*s.n >= len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := hash(k) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			sl.key, sl.gen = k, s.gen
			s.n++
			return true
		}
		if sl.key == k {
			return false
		}
	}
}

// grow doubles the table (or allocates the first one) and reinserts the
// live keys; the table stays at most half full.
func (s *Set) grow() {
	old := s.slots
	s.slots = make([]slot, max(16, 2*len(old)))
	if s.gen == 0 {
		s.gen = 1
	}
	mask := uint64(len(s.slots) - 1)
	for _, o := range old {
		if o.gen != s.gen {
			continue
		}
		i := hash(o.key) & mask
		for s.slots[i].gen == s.gen {
			i = (i + 1) & mask
		}
		s.slots[i] = o
	}
}

// Reset empties the set. It keeps a table of up to maxRetainedSlots and
// empties it by starting a new generation; when the generation counter
// wraps, the table is cleared so no slot stamped 2^32 resets ago reads as
// live.
func (s *Set) Reset() {
	s.n = 0
	if len(s.slots) > maxRetainedSlots {
		s.slots = nil
		return
	}
	s.gen++
	if s.gen == 0 {
		clear(s.slots)
		s.gen = 1
	}
}
