package idset

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzIDSetMatchesMap runs a fuzzed script of operations on a Set and on a
// map[uint64]bool and requires the two to agree after every one. Each
// script byte picks an operation by its low three bits:
//
//	0–2  Add a key taken from the byte's high bits (a small key space, so
//	     keys repeat and probe sequences collide);
//	3    Add the uint64 in the next eight bytes (ids up to ^uint64(0));
//	4    Has a small key; 5 Has the next eight bytes;
//	6    Reset, on every eighth use after forcing the generation counter to
//	     its last value, so the reset wraps it;
//	7    Add a run of keys (high bits × 9 000) that grows the table past
//	     maxRetainedSlots, so the next Reset drops it.
func FuzzIDSetMatchesMap(f *testing.F) {
	f.Add([]byte{0x08, 0x10, 0x08, 0x0c, 0x06, 0x0c, 0x08})
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x05, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x08, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x0c, 0x08, 0x0c})
	f.Add([]byte{0x27, 0x10, 0x0c, 0x06, 0x0c, 0x10, 0x47})
	f.Fuzz(func(t *testing.T, script []byte) {
		var s Set
		ref := map[uint64]bool{}
		resets := 0
		word := func() uint64 {
			var b [8]byte
			script = script[copy(b[:], script):]
			return binary.LittleEndian.Uint64(b[:])
		}
		add := func(k uint64) {
			if got, want := s.Add(k), !ref[k]; got != want {
				t.Fatalf("Add(%#x) = %v, map says absent = %v", k, got, want)
			}
			ref[k] = true
		}
		has := func(k uint64) {
			if got := s.Has(k); got != ref[k] {
				t.Fatalf("Has(%#x) = %v, map %v", k, got, ref[k])
			}
		}
		for len(script) > 0 {
			op := script[0]
			script = script[1:]
			switch op & 7 {
			case 0, 1, 2:
				add(uint64(op >> 3))
			case 3:
				add(word())
			case 4:
				has(uint64(op >> 3))
			case 5:
				has(word())
			case 6:
				if resets++; resets%8 == 0 {
					s.gen = math.MaxUint32
				}
				s.Reset()
				clear(ref)
				if s.gen == 0 {
					t.Fatal("Reset left the generation at 0, which marks empty slots")
				}
			case 7:
				base := uint64(op>>3) * 9000
				for k := base; k < base+2*maxRetainedSlots/3; k++ {
					add(k)
				}
			}
			if s.n != len(ref) {
				t.Fatalf("Len() = %d, map holds %d", s.n, len(ref))
			}
		}
		for k := range ref {
			has(k)
		}
		for k := uint64(0); k < 32; k++ {
			has(k)
		}
	})
}

// TestResetKeepsTableUpToBound pins what a warm set retains: a table that
// stayed within maxRetainedSlots is reused by the next request, one that
// grew past it is given back.
func TestResetKeepsTableUpToBound(t *testing.T) {
	var s Set
	for k := uint64(0); k < maxRetainedSlots/2-1; k++ {
		s.Add(k)
	}
	if len(s.slots) != maxRetainedSlots {
		t.Fatalf("%d keys grew the table to %d slots, want %d", s.n, len(s.slots), maxRetainedSlots)
	}
	allocs := testing.AllocsPerRun(5, func() {
		s.Reset()
		for k := uint64(0); k < maxRetainedSlots/2-1; k++ {
			s.Add(k << 32)
		}
	})
	if allocs != 0 {
		t.Fatalf("refilling a retained table allocated %.1f times, want 0", allocs)
	}
	s.Add(1)
	s.Add(2)
	s.Reset()
	if s.slots != nil {
		t.Fatalf("Reset kept a table of %d slots past the bound %d", len(s.slots), maxRetainedSlots)
	}
	if s.Has(1) || s.n != 0 {
		t.Fatal("a dropped table left keys behind")
	}
}

// TestHashIsSeeded guards the seed: the same keys hash differently under
// another seed, so a client cannot build ids that collide in every process.
func TestHashIsSeeded(t *testing.T) {
	saved := seed
	defer func() { seed = saved }()
	same := 0
	for k := uint64(1); k <= 64; k++ {
		seed = 1
		a := hash(k)
		seed = 2
		if hash(k) == a {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d of 64 keys hash the same under two seeds", same)
	}
}
