// Package dataset provides the synthetic stand-ins for the paper's two
// evaluation datasets (rtreeportal.org Tiger data, unavailable offline):
//
//   - NE: 123,593 postal zones of New York, Philadelphia and Boston —
//     modeled as small rectangles drawn from Gaussian clusters (urban
//     centers) plus a uniform background.
//   - RD: 594,103 railroad/road segments of the US, Canada and Mexico —
//     modeled as thin elongated rectangles along random-walk polylines.
//
// Both are normalized to the unit square. Object payload sizes follow the
// paper's Zipf distribution (skew theta = 0.8) with a 10 KB mean. What the
// caching experiments are sensitive to — spatial skew, density, size
// distribution — is preserved; README.md "Substitutions" states the argument.
package dataset

import (
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Object is one spatial data object: identifier, bounding rectangle, and
// payload size in bytes.
type Object struct {
	ID   rtree.ObjectID
	MBR  geom.Rect
	Size int
}

// Dataset is an immutable collection of objects with ids 1..N.
type Dataset struct {
	Name       string
	Objects    []Object
	TotalBytes int64
}

// Len returns the number of objects.
func (d *Dataset) Len() int { return len(d.Objects) }

// SizeOf returns the payload size of an object (0 for unknown ids).
func (d *Dataset) SizeOf(id rtree.ObjectID) int {
	if id < 1 || int(id) > len(d.Objects) {
		return 0
	}
	return d.Objects[id-1].Size
}

// Items converts the dataset to R-tree bulk-load items.
func (d *Dataset) Items() []rtree.Item {
	items := make([]rtree.Item, len(d.Objects))
	for i, o := range d.Objects {
		items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
	}
	return items
}

// BuildTree bulk-loads an R*-tree over the dataset.
func (d *Dataset) BuildTree(p rtree.Params, fill float64) *rtree.Tree {
	return rtree.BulkLoad(p, d.Items(), fill)
}

// Params configures synthetic generation.
type Params struct {
	N    int
	Seed int64
	// AvgObjectBytes is the mean payload size (paper: 10 KB).
	AvgObjectBytes int
	// ZipfTheta is the size-distribution skew (paper: 0.8).
	ZipfTheta float64
	// Clusters is the number of urban clusters for NE-like data.
	Clusters int
}

func (p Params) normalized(defaultN int) Params {
	if p.N <= 0 {
		p.N = defaultN
	}
	if p.AvgObjectBytes <= 0 {
		p.AvgObjectBytes = 10 * 1024
	}
	if p.ZipfTheta <= 0 {
		p.ZipfTheta = 0.8
	}
	if p.Clusters <= 0 {
		p.Clusters = 64
	}
	return p
}

// NECardinality and RDCardinality are the paper's dataset sizes.
const (
	NECardinality = 123_593
	RDCardinality = 594_103
)

// GenerateNE builds the NE-like clustered zone dataset.
func GenerateNE(p Params) *Dataset {
	p = p.normalized(NECardinality)
	rng := rand.New(rand.NewSource(p.Seed))
	d := &Dataset{Name: "NE", Objects: make([]Object, 0, p.N)}

	type cluster struct {
		center geom.Point
		sigma  float64
		weight float64
	}
	clusters := make([]cluster, p.Clusters)
	totalW := 0.0
	for i := range clusters {
		clusters[i] = cluster{
			center: geom.Pt(rng.Float64(), rng.Float64()),
			sigma:  0.005 + rng.Float64()*0.04,
			weight: math.Pow(rng.Float64(), 2) + 0.05, // few dominant cities
		}
		totalW += clusters[i].weight
	}

	sizes := zipfSizes(rng, p.N, p.AvgObjectBytes, p.ZipfTheta)
	for i := 0; i < p.N; i++ {
		var c geom.Point
		if rng.Float64() < 0.85 { // clustered
			pick := rng.Float64() * totalW
			for _, cl := range clusters {
				pick -= cl.weight
				if pick <= 0 {
					c = geom.Pt(
						clamp(cl.center.X+rng.NormFloat64()*cl.sigma),
						clamp(cl.center.Y+rng.NormFloat64()*cl.sigma),
					)
					break
				}
			}
		} else { // rural background
			c = geom.Pt(rng.Float64(), rng.Float64())
		}
		// Postal zones are small area patches.
		w := 1e-4 + rng.Float64()*4e-4
		h := 1e-4 + rng.Float64()*4e-4
		mbr, _ := geom.RectFromCenter(c, w, h).Clip(geom.R(0, 0, 1, 1))
		d.Objects = append(d.Objects, Object{ID: rtree.ObjectID(i + 1), MBR: mbr, Size: sizes[i]})
		d.TotalBytes += int64(sizes[i])
	}
	return d
}

// GenerateRD builds the RD-like road-segment dataset: random-walk polylines
// whose segments become thin elongated rectangles.
func GenerateRD(p Params) *Dataset {
	p = p.normalized(RDCardinality)
	rng := rand.New(rand.NewSource(p.Seed))
	d := &Dataset{Name: "RD", Objects: make([]Object, 0, p.N)}
	sizes := zipfSizes(rng, p.N, p.AvgObjectBytes, p.ZipfTheta)

	id := 0
	for id < p.N {
		// One road: a random walk of segments.
		pos := geom.Pt(rng.Float64(), rng.Float64())
		heading := rng.Float64() * 2 * math.Pi
		segs := 20 + rng.Intn(180)
		for s := 0; s < segs && id < p.N; s++ {
			length := 5e-4 + rng.Float64()*3e-3
			heading += (rng.Float64() - 0.5) * math.Pi / 4
			next := geom.Pt(
				clamp(pos.X+length*math.Cos(heading)),
				clamp(pos.Y+length*math.Sin(heading)),
			)
			mbr := geom.R(
				math.Min(pos.X, next.X), math.Min(pos.Y, next.Y),
				math.Max(pos.X, next.X), math.Max(pos.Y, next.Y),
			)
			d.Objects = append(d.Objects, Object{ID: rtree.ObjectID(id + 1), MBR: mbr, Size: sizes[id]})
			d.TotalBytes += int64(sizes[id])
			id++
			pos = next
		}
	}
	return d
}

// zipfSizes draws n payload sizes from a discrete Zipf distribution over 100
// size classes (P(class c) proportional to c^-theta, size proportional to
// c), scaled so the mean matches avg.
func zipfSizes(rng *rand.Rand, n, avg int, theta float64) []int {
	const classes = 100
	weights := make([]float64, classes)
	var wSum, expectation float64
	for c := 1; c <= classes; c++ {
		w := math.Pow(float64(c), -theta)
		weights[c-1] = w
		wSum += w
		expectation += w * float64(c)
	}
	expectation /= wSum
	unit := float64(avg) / expectation

	sizes := make([]int, n)
	for i := range sizes {
		pick := rng.Float64() * wSum
		class := classes
		for c, w := range weights {
			pick -= w
			if pick <= 0 {
				class = c + 1
				break
			}
		}
		s := int(unit * float64(class))
		if s < 256 {
			s = 256
		}
		sizes[i] = s
	}
	return sizes
}

func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Save writes the dataset to a gob file.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(d); err != nil {
		return fmt.Errorf("dataset: encode %s: %w", path, err)
	}
	return nil
}

// Load reads a dataset from a gob file.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	var d Dataset
	if err := gob.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decode %s: %w", path, err)
	}
	return &d, nil
}
