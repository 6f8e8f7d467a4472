// Package geom provides the planar geometry primitives used throughout the
// repository: points, axis-aligned rectangles (MBRs), and the distance and
// area algebra required by R-trees and spatial query processing.
//
// All coordinates live in the unit square in the experiments, but nothing in
// this package assumes that; rectangles may be degenerate (zero width and/or
// height), which is how point objects are represented.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Rect is a closed axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
// A Rect with Min == Max on both axes is a point. The zero Rect is the
// degenerate rectangle at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// R is shorthand for Rect{minX, minY, maxX, maxY}.
func R(minX, minY, maxX, maxY float64) Rect {
	return Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// RectFromPoint returns the degenerate rectangle containing exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{p.X, p.Y, p.X, p.Y}
}

// RectFromCenter returns the rectangle of width w and height h centered at c.
func RectFromCenter(c Point, w, h float64) Rect {
	return Rect{c.X - w/2, c.Y - h/2, c.X + w/2, c.Y + h/2}
}

// Valid reports whether r has Min <= Max on both axes.
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// Usable reports whether r is a rectangle an index can hold: Valid, with
// every coordinate a finite number. A point is usable; a rectangle with a
// NaN or infinite coordinate, or an inverted one, is not.
func (r Rect) Usable() bool {
	return r.Valid() && r.MinX-r.MinX == 0 && r.MinY-r.MinY == 0 &&
		r.MaxX-r.MaxX == 0 && r.MaxY-r.MaxY == 0
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r. Degenerate rectangles have zero area.
func (r Rect) Area() float64 {
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// Margin returns half the perimeter of r (the R*-tree margin metric).
func (r Rect) Margin() float64 {
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	u := Rect{min(r.MinX, s.MinX), min(r.MinY, s.MinY), max(r.MaxX, s.MaxX), max(r.MaxY, s.MaxY)}
	if u != u { // a coordinate is NaN
		return unionNaN(r, s)
	}
	return u
}

// unionNaN is Union through math.Min and math.Max, which agree with the
// builtins everywhere but let an infinity win over NaN.
func unionNaN(r, s Rect) Rect {
	return Rect{math.Min(r.MinX, s.MinX), math.Min(r.MinY, s.MinY), math.Max(r.MaxX, s.MaxX), math.Max(r.MaxY, s.MaxY)}
}

// Intersects reports whether r and s share at least one point.
// Touching edges count as intersection (closed rectangles).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersection returns the common region of r and s and whether it is
// non-empty. When the rectangles do not intersect the returned Rect is the
// zero value.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	// No coordinate is NaN past Intersects, so the builtins are math.Max and
	// math.Min.
	return Rect{
		max(r.MinX, s.MinX),
		max(r.MinY, s.MinY),
		min(r.MaxX, s.MaxX),
		min(r.MaxY, s.MaxY),
	}, true
}

// Contains reports whether s lies entirely inside r (boundaries included).
func (r Rect) Contains(s Rect) bool {
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// ContainsPoint reports whether p lies inside r (boundaries included).
func (r Rect) ContainsPoint(p Point) bool {
	return r.MinX <= p.X && p.X <= r.MaxX && r.MinY <= p.Y && p.Y <= r.MaxY
}

// Enlargement returns the area increase of r needed to also cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// OverlapArea returns the area of the intersection of r and s
// (zero when they do not intersect).
func (r Rect) OverlapArea(s Rect) float64 {
	ix, ok := r.Intersection(s)
	if !ok {
		return 0
	}
	return ix.Area()
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// DistSq returns the squared Euclidean distance between two points.
func DistSq(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// MinDist returns the minimum Euclidean distance from point p to rectangle r
// (zero when p is inside r). This is the MINDIST metric of best-first kNN
// search on R-trees.
func MinDist(p Point, r Rect) float64 {
	return math.Sqrt(MinDistSq(p, r))
}

// MinDistSq returns the squared minimum distance from p to r.
func MinDistSq(p Point, r Rect) float64 {
	dx := axisDist(p.X, r.MinX, r.MaxX)
	dy := axisDist(p.Y, r.MinY, r.MaxY)
	return dx*dx + dy*dy
}

// RectMinDist returns the minimum Euclidean distance between any point of r
// and any point of s (zero when they intersect). It is the pruning metric
// for distance joins over R-tree node pairs.
func RectMinDist(r, s Rect) float64 {
	dist, _ := RectMinDistWithin(r, s, math.Inf(1))
	return dist
}

// RectMinDistWithin returns RectMinDist(r, s) and whether it is at most d.
// It reports false without the distance when one axis gap alone exceeds d.
// Rectangles that overlap on an axis have a zero gap there, and Hypot(0, y)
// is exactly y, so that case skips math.Hypot (FuzzRectMinDistMatchesHypot
// holds the bits equal).
func RectMinDistWithin(r, s Rect, d float64) (float64, bool) {
	dx := gapDist(r.MinX, r.MaxX, s.MinX, s.MaxX)
	dy := gapDist(r.MinY, r.MaxY, s.MinY, s.MaxY)
	var dist float64
	switch {
	case dx > d || dy > d:
		return 0, false
	case dx == 0:
		dist = dy
	case dy == 0:
		dist = dx
	default:
		dist = math.Hypot(dx, dy)
	}
	return dist, dist <= d
}

// axisDist returns the 1-D distance from v to the interval [lo, hi].
func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// gapDist returns the 1-D distance between intervals [alo,ahi] and [blo,bhi]
// (zero when they overlap).
func gapDist(alo, ahi, blo, bhi float64) float64 {
	switch {
	case ahi < blo:
		return blo - ahi
	case bhi < alo:
		return alo - bhi
	default:
		return 0
	}
}

// Clip returns r clipped to the bounds rectangle.
// The boolean is false when r lies entirely outside bounds.
func (r Rect) Clip(bounds Rect) (Rect, bool) {
	return r.Intersection(bounds)
}

// Subtract returns the parts of r not covered by s, decomposed into at most
// four disjoint rectangles. It is the remainder-region primitive of the
// semantic-caching baseline (query trimming). When r and s do not intersect
// the result is r itself; when s covers r the result is empty.
func (r Rect) Subtract(s Rect) []Rect {
	ix, ok := r.Intersection(s)
	if !ok {
		return []Rect{r}
	}
	if ix == r {
		return nil
	}
	out := make([]Rect, 0, 4)
	// Left slab.
	if r.MinX < ix.MinX {
		out = append(out, Rect{r.MinX, r.MinY, ix.MinX, r.MaxY})
	}
	// Right slab.
	if ix.MaxX < r.MaxX {
		out = append(out, Rect{ix.MaxX, r.MinY, r.MaxX, r.MaxY})
	}
	// Bottom slab (between the vertical slabs).
	if r.MinY < ix.MinY {
		out = append(out, Rect{ix.MinX, r.MinY, ix.MaxX, ix.MinY})
	}
	// Top slab.
	if ix.MaxY < r.MaxY {
		out = append(out, Rect{ix.MinX, ix.MaxY, ix.MaxX, r.MaxY})
	}
	return out
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.6g,%.6g]x[%.6g,%.6g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6g,%.6g)", p.X, p.Y)
}
