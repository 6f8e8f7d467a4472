package rtree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// referenceChooseLeastOverlapEnlargement is the full O(M²) scan
// chooseLeastOverlapEnlargement bounds: every candidate's overlap
// enlargement summed over every sibling, ties to the smaller area
// enlargement, then the smaller area, then the first index. The bounded
// scan must choose the same entry on every input.
func referenceChooseLeastOverlapEnlargement(entries []Entry, mbr geom.Rect) int {
	overlapEnl := func(idx int) float64 {
		old := entries[idx].MBR
		grown := old.Union(mbr)
		var delta float64
		for i, e := range entries {
			if i == idx {
				continue
			}
			delta += grown.OverlapArea(e.MBR) - old.OverlapArea(e.MBR)
		}
		return delta
	}
	best := 0
	bestOverlapEnl := overlapEnl(0)
	bestAreaEnl := entries[0].MBR.Enlargement(mbr)
	bestArea := entries[0].MBR.Area()
	for i := 1; i < len(entries); i++ {
		oEnl := overlapEnl(i)
		aEnl := entries[i].MBR.Enlargement(mbr)
		area := entries[i].MBR.Area()
		if oEnl < bestOverlapEnl ||
			(oEnl == bestOverlapEnl && (aEnl < bestAreaEnl ||
				(aEnl == bestAreaEnl && area < bestArea))) {
			best, bestOverlapEnl, bestAreaEnl, bestArea = i, oEnl, aEnl, area
		}
	}
	return best
}

// chooseCase draws one chooseSubtree input. The entry generators:
//
//	0  coordinates on a coarse grid: many exact ties, duplicates and
//	   zero-width rectangles
//	1  uniform coordinates in the unit square
//	2  a handful of distinct rectangles, each repeated
//	3  grid coordinates scaled by 1e150..1e300: areas and enlargements
//	   that overflow
//	4  grid coordinates with NaN, ±Inf and inverted rectangles mixed in
//	5  coordinates read as float64 bits from raw
//
// and the targets: 0 drawn like an entry, 1 equal to an entry, 2 inside an
// entry, 3 a point inside an entry, 4 NaN, infinite or inverted.
func chooseCase(seed int64, n, gen, target uint8, raw []byte) ([]Entry, geom.Rect) {
	r := rand.New(rand.NewSource(seed))
	grid := float64(2 + r.Intn(15))
	scale := [4]float64{1e150, 1e154, 1e300, 1e308}[r.Intn(4)]
	special := [5]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	coord := func(g uint8) float64 {
		onGrid := float64(r.Intn(int(grid)+1)) / grid
		switch g % 6 {
		case 1:
			return r.Float64()
		case 3:
			return (2*onGrid - 1) * scale
		case 4:
			if r.Intn(8) == 0 {
				return special[r.Intn(len(special))]
			}
		case 5:
			if len(raw) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
				return v
			}
		}
		return onGrid
	}
	rect := func(g uint8) geom.Rect {
		x0, x1, y0, y1 := coord(g), coord(g), coord(g), coord(g)
		if g%6 != 5 && !(g%6 == 4 && r.Intn(6) == 0) { // keep some inverted
			x0, x1 = min(x0, x1), max(x0, x1)
			y0, y1 = min(y0, y1), max(y0, y1)
		}
		return geom.R(x0, y0, x1, y1)
	}
	entries := make([]Entry, 2+int(n)%249)
	var distinct []geom.Rect
	for i := range entries {
		if gen%6 == 2 {
			if len(distinct) == 0 || (len(distinct) < 5 && r.Intn(4) == 0) {
				distinct = append(distinct, rect(0))
			}
			entries[i].MBR = distinct[r.Intn(len(distinct))]
		} else {
			entries[i].MBR = rect(gen)
		}
		entries[i].Child = NodeID(i + 1)
	}
	e := entries[r.Intn(len(entries))].MBR
	lerp := func(a, b float64) float64 { return a + r.Float64()*(b-a) }
	switch target % 5 {
	case 1:
		return entries, e
	case 2:
		x0, x1 := lerp(e.MinX, e.MaxX), lerp(e.MinX, e.MaxX)
		y0, y1 := lerp(e.MinY, e.MaxY), lerp(e.MinY, e.MaxY)
		return entries, geom.R(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
	case 3:
		x, y := lerp(e.MinX, e.MaxX), lerp(e.MinY, e.MaxY)
		return entries, geom.R(x, y, x, y)
	case 4:
		if t := rect(4); r.Intn(2) == 0 {
			return entries, t
		}
		return entries, geom.R(e.MaxX, e.MinY, e.MinX, e.MaxY) // inverted
	}
	return entries, rect(gen)
}

// FuzzChooseSubtreeMatchesReference holds the bounded overlap scan to the
// full one: on every entry list and target, finite or not, it must choose
// the same entry.
func FuzzChooseSubtreeMatchesReference(f *testing.F) {
	for gen := uint8(0); gen < 6; gen++ {
		for target := uint8(0); target < 5; target++ {
			f.Add(int64(gen)*5+int64(target), uint8(40*gen+target), gen, target,
				[]byte{0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3, 4, 5, 6, 0xf8, 0x7f})
		}
	}
	f.Add(int64(7), uint8(248), uint8(0), uint8(1), []byte(nil))
	f.Add(int64(8), uint8(0), uint8(3), uint8(2), []byte(nil))
	f.Fuzz(func(t *testing.T, seed int64, n, gen, target uint8, raw []byte) {
		entries, mbr := chooseCase(seed, n, gen, target, raw)
		got := chooseLeastOverlapEnlargement(entries, mbr)
		want := referenceChooseLeastOverlapEnlargement(entries, mbr)
		if got != want {
			t.Fatalf("chose %d (%v), reference %d (%v), target %v, %d entries",
				got, entries[got].MBR, want, entries[want].MBR, mbr, len(entries))
		}
	})
}

// TestChooseSubtreeMatchesReference runs the fuzz generators over many
// seeds without the fuzzing engine.
func TestChooseSubtreeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		n, gen, target := uint8(seed*37), uint8(seed%6), uint8(seed/6%5)
		entries, mbr := chooseCase(seed, n, gen, target, nil)
		got := chooseLeastOverlapEnlargement(entries, mbr)
		if want := referenceChooseLeastOverlapEnlargement(entries, mbr); got != want {
			t.Fatalf("seed %d: chose %d, reference %d (target %v)", seed, got, want, mbr)
		}
	}
}
