package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rnd(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// randRect draws a random rectangle inside the unit square.
func randRect(r *rand.Rand) Rect {
	x1, x2 := r.Float64(), r.Float64()
	y1, y2 := r.Float64(), r.Float64()
	return Rect{math.Min(x1, x2), math.Min(y1, y2), math.Max(x1, x2), math.Max(y1, y2)}
}

func randPoint(r *rand.Rand) Point { return Point{r.Float64(), r.Float64()} }

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 2, 1}
	if got := r.Area(); got != 2 {
		t.Errorf("Area = %v, want 2", got)
	}
	if got := r.Margin(); got != 3 {
		t.Errorf("Margin = %v, want 3", got)
	}
	if got := r.Center(); got != (Point{1, 0.5}) {
		t.Errorf("Center = %v, want (1,0.5)", got)
	}
	if r.Width() != 2 || r.Height() != 1 {
		t.Errorf("Width/Height = %v/%v, want 2/1", r.Width(), r.Height())
	}
	if !r.Valid() {
		t.Error("rect should be valid")
	}
	if (Rect{1, 0, 0, 1}).Valid() {
		t.Error("inverted rect should be invalid")
	}
	if !r.Usable() || !RectFromPoint(Point{0.5, -3}).Usable() || !(Rect{-math.MaxFloat64, 0, math.MaxFloat64, 0}).Usable() {
		t.Error("finite rects and points should be usable")
	}
	for _, bad := range []Rect{{1, 0, 0, 1}, {math.NaN(), 0, 1, 1}, {0, 0, math.Inf(1), 1}, {0, math.Inf(-1), 1, 1}, {0, 0, 1, math.NaN()}} {
		if bad.Usable() {
			t.Errorf("%v should not be usable", bad)
		}
	}
}

func TestRectFromHelpers(t *testing.T) {
	p := Point{0.3, 0.7}
	pr := RectFromPoint(p)
	if pr.Area() != 0 || !pr.ContainsPoint(p) {
		t.Errorf("RectFromPoint wrong: %v", pr)
	}
	cr := RectFromCenter(p, 0.2, 0.4)
	if got := cr.Center(); math.Abs(got.X-p.X) > 1e-12 || math.Abs(got.Y-p.Y) > 1e-12 {
		t.Errorf("RectFromCenter center = %v, want %v", got, p)
	}
	if math.Abs(cr.Width()-0.2) > 1e-12 || math.Abs(cr.Height()-0.4) > 1e-12 {
		t.Errorf("RectFromCenter dims = %v x %v", cr.Width(), cr.Height())
	}
}

func TestIntersection(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	ix, ok := a.Intersection(b)
	if !ok || ix != (Rect{1, 1, 2, 2}) {
		t.Errorf("Intersection = %v,%v", ix, ok)
	}
	c := Rect{5, 5, 6, 6}
	if _, ok := a.Intersection(c); ok {
		t.Error("disjoint rects should not intersect")
	}
	// Touching edges intersect with zero area.
	d := Rect{2, 0, 3, 2}
	ix, ok = a.Intersection(d)
	if !ok || ix.Area() != 0 {
		t.Errorf("touching rects: %v,%v", ix, ok)
	}
}

// TestUnionIntersectionMatchMathMinMax pins Union and Intersection, which use
// the builtin min and max, to math.Min and math.Max on signed zeros, NaN and
// infinities: the same sign of zero, and NaN where they give NaN.
func TestUnionIntersectionMatchMathMinMax(t *testing.T) {
	vals := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(-1), math.Inf(1), -1, 1}
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	}
	for _, a := range vals {
		for _, b := range vals {
			r, s := Rect{a, a, a, a}, Rect{b, b, b, b}
			u := r.Union(s)
			if lo, hi := math.Min(a, b), math.Max(a, b); !same(u.MinX, lo) || !same(u.MinY, lo) || !same(u.MaxX, hi) || !same(u.MaxY, hi) {
				t.Errorf("Union(%v, %v) = %v, want min %v max %v", a, b, u, lo, hi)
			}
			if ix, ok := r.Intersection(s); ok {
				if lo, hi := math.Max(a, b), math.Min(a, b); !same(ix.MinX, lo) || !same(ix.MinY, lo) || !same(ix.MaxX, hi) || !same(ix.MaxY, hi) {
					t.Errorf("Intersection(%v, %v) = %v, want min %v max %v", a, b, ix, lo, hi)
				}
			}
		}
	}
}

func TestContains(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	if !a.Contains(Rect{1, 1, 2, 2}) {
		t.Error("inner rect should be contained")
	}
	if !a.Contains(a) {
		t.Error("rect contains itself")
	}
	if a.Contains(Rect{1, 1, 5, 2}) {
		t.Error("overhanging rect must not be contained")
	}
}

func TestMinDistKnownValues(t *testing.T) {
	r := Rect{1, 1, 2, 2}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{1.5, 1.5}, 0},              // inside
		{Point{0, 1.5}, 1},                // left
		{Point{3, 1.5}, 1},                // right
		{Point{1.5, 0}, 1},                // below
		{Point{0, 0}, math.Sqrt2},         // corner
		{Point{3, 3}, math.Sqrt2},         // opposite corner
		{Point{1, 1}, 0},                  // on boundary
		{Point{2.5, 2.5}, math.Sqrt(0.5)}, // diagonal offset
	}
	for _, c := range cases {
		if got := MinDist(c.p, r); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDist(%v,%v) = %v, want %v", c.p, r, got, c.want)
		}
	}
}

func TestRectMinDistKnownValues(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	cases := []struct {
		b    Rect
		want float64
	}{
		{Rect{0.5, 0.5, 2, 2}, 0}, // overlap
		{Rect{2, 0, 3, 1}, 1},     // side by side
		{Rect{2, 2, 3, 3}, math.Sqrt2},
		{Rect{1, 1, 2, 2}, 0}, // touching corner
	}
	for _, c := range cases {
		if got := RectMinDist(a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RectMinDist(%v,%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := RectMinDist(c.b, a); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RectMinDist not symmetric for %v", c.b)
		}
	}
}

func TestSubtract(t *testing.T) {
	r := Rect{0, 0, 4, 4}
	// Full coverage -> empty remainder.
	if got := r.Subtract(Rect{-1, -1, 5, 5}); len(got) != 0 {
		t.Errorf("covered remainder = %v", got)
	}
	// Disjoint -> r itself.
	if got := r.Subtract(Rect{10, 10, 11, 11}); len(got) != 1 || got[0] != r {
		t.Errorf("disjoint remainder = %v", got)
	}
	// Center hole -> 4 pieces that tile r minus the hole.
	hole := Rect{1, 1, 2, 2}
	parts := r.Subtract(hole)
	if len(parts) != 4 {
		t.Fatalf("center hole pieces = %d, want 4", len(parts))
	}
	var area float64
	for _, p := range parts {
		if !p.Valid() {
			t.Errorf("invalid piece %v", p)
		}
		if !r.Contains(p) {
			t.Errorf("piece %v outside r", p)
		}
		if p.OverlapArea(hole) > 1e-12 {
			t.Errorf("piece %v overlaps hole", p)
		}
		area += p.Area()
	}
	if want := r.Area() - hole.Area(); math.Abs(area-want) > 1e-9 {
		t.Errorf("pieces area = %v, want %v", area, want)
	}
}

// Property: Union contains both inputs and is the smallest such rect
// (its corners come from the inputs).
func TestUnionProperty(t *testing.T) {
	r := rnd(1)
	f := func() bool {
		a, b := randRect(r), randRect(r)
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			return false
		}
		return u.Area() >= a.Area() && u.Area() >= b.Area()
	}
	if err := quick.Check(func(struct{}) bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: MinDist(p, r) <= Dist(p, q) for every q in r; verified against
// random sample points inside r.
func TestMinMaxDistEnvelopeProperty(t *testing.T) {
	r := rnd(2)
	f := func() bool {
		rect := randRect(r)
		p := randPoint(r)
		lo := MinDist(p, rect)
		for i := 0; i < 16; i++ {
			q := Point{
				rect.MinX + r.Float64()*rect.Width(),
				rect.MinY + r.Float64()*rect.Height(),
			}
			d := Dist(p, q)
			if d < lo-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(struct{}) bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: RectMinDist lower-bounds the distance between any contained points.
func TestRectMinDistLowerBoundProperty(t *testing.T) {
	r := rnd(3)
	f := func() bool {
		a, b := randRect(r), randRect(r)
		lo := RectMinDist(a, b)
		for i := 0; i < 8; i++ {
			pa := Point{a.MinX + r.Float64()*a.Width(), a.MinY + r.Float64()*a.Height()}
			pb := Point{b.MinX + r.Float64()*b.Width(), b.MinY + r.Float64()*b.Height()}
			if Dist(pa, pb) < lo-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(struct{}) bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Subtract pieces are disjoint from s, inside r, and their area
// plus the overlap equals the area of r.
func TestSubtractProperty(t *testing.T) {
	r := rnd(4)
	f := func() bool {
		a, b := randRect(r), randRect(r)
		parts := a.Subtract(b)
		var area float64
		for _, p := range parts {
			if !p.Valid() || !a.Contains(p) {
				return false
			}
			if p.OverlapArea(b) > 1e-9 {
				return false
			}
			area += p.Area()
		}
		// Pairwise disjoint.
		for i := 0; i < len(parts); i++ {
			for j := i + 1; j < len(parts); j++ {
				if parts[i].OverlapArea(parts[j]) > 1e-12 {
					return false
				}
			}
		}
		return math.Abs(area+a.OverlapArea(b)-a.Area()) < 1e-9
	}
	if err := quick.Check(func(struct{}) bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Intersects is symmetric and consistent with Intersection.
func TestIntersectsConsistencyProperty(t *testing.T) {
	r := rnd(5)
	f := func() bool {
		a, b := randRect(r), randRect(r)
		i1 := a.Intersects(b)
		i2 := b.Intersects(a)
		_, ok := a.Intersection(b)
		return i1 == i2 && i1 == ok
	}
	if err := quick.Check(func(struct{}) bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEnlargement(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	if got := a.Enlargement(Rect{0.2, 0.2, 0.8, 0.8}); got != 0 {
		t.Errorf("contained enlargement = %v, want 0", got)
	}
	if got := a.Enlargement(Rect{0, 0, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("enlargement = %v, want 1", got)
	}
}

func TestStringers(t *testing.T) {
	if s := (Rect{0, 0, 1, 1}).String(); s == "" {
		t.Error("empty Rect string")
	}
	if s := (Point{1, 2}).String(); s == "" {
		t.Error("empty Point string")
	}
}

// FuzzRectMinDistMatchesHypot holds RectMinDist to math.Hypot of the two
// axis gaps bit for bit, subnormal, huge and infinite coordinates included,
// and RectMinDistWithin to the same distance and the same verdict.
func FuzzRectMinDistMatchesHypot(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 2.0, 3.0, 4.0, 1.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 1.5)
	f.Add(0.0, 0.0, 5e-324, 1.0, 1e-323, 0.5, 1.0, 1.0, 0.0)
	f.Add(-1e308, 0.0, 1e308, 1.0, 0.0, 2.0, 1.0, 3.0, 1.0)
	f.Add(math.Inf(-1), 0.0, 0.0, 1.0, 1.0, math.Inf(1), 2.0, math.Inf(1), math.Inf(1))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy, d float64) {
		r := Rect{math.Min(ax, bx), math.Min(ay, by), math.Max(ax, bx), math.Max(ay, by)}
		s := Rect{math.Min(cx, dx), math.Min(cy, dy), math.Max(cx, dx), math.Max(cy, dy)}
		want := math.Hypot(gapDist(r.MinX, r.MaxX, s.MinX, s.MaxX), gapDist(r.MinY, r.MaxY, s.MinY, s.MaxY))
		if got := RectMinDist(r, s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("RectMinDist(%v, %v) = %v (%#x), Hypot of the gaps = %v (%#x)",
				r, s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		got, ok := RectMinDistWithin(r, s, d)
		if ok != (want <= d) {
			t.Fatalf("RectMinDistWithin(%v, %v, %v) = %v, distance %v", r, s, d, ok, want)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("RectMinDistWithin(%v, %v, %v) = %v, distance %v", r, s, d, got, want)
		}
	})
}
