package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Tree image: an exact, self-contained serialization of one tree version
// used by durable-shard checkpoints (internal/wal, docs/DURABILITY.md).
// Exactness is the whole point — the proactive-caching contract promises
// clients that NodeIDs are never reused and that (ID, Gen) identifies page
// content, so a restored shard must resume with the identical id span and
// identical generation counters a crashed one would have had. The image
// therefore records deleted ids (as gaps) and stores coordinates as float64
// bits: the in-memory tree holds full-precision rectangles and replayed
// updates match them exactly (the delete contract).
//
// Version 1 images carry a free-list section between the span and the live
// count, where builds that recycled the entry storage of deleted pages kept
// the ids awaiting reuse. It never influenced ids or content; the writer
// emits it empty and the reader validates and drops whatever it finds there.

const imageVersion = 1

var errImage = errors.New("rtree: malformed tree image")

// AppendImage appends an exact serialization of the tree to dst and returns
// the extended slice. The tree must be quiescent for the duration of the
// call (the snapshot writer serializes its published trees).
func (t *Tree) AppendImage(dst []byte) []byte {
	b := append(dst, imageVersion)
	b = binary.AppendUvarint(b, uint64(t.params.MaxEntries))
	b = binary.AppendUvarint(b, uint64(t.params.MinEntries))
	b = binary.AppendUvarint(b, uint64(t.params.ReinsertCount))
	b = binary.AppendUvarint(b, uint64(t.root))
	b = binary.AppendUvarint(b, uint64(t.height))
	b = binary.AppendUvarint(b, uint64(t.size))
	b = binary.AppendUvarint(b, uint64(len(t.nodes)))
	b = binary.AppendUvarint(b, 0) // free-list section, always empty
	b = binary.AppendUvarint(b, uint64(t.live))
	for _, n := range t.nodes {
		if n == nil {
			continue // deleted id or sentinel: reconstructed as a nil slot
		}
		b = binary.AppendUvarint(b, uint64(n.ID))
		b = binary.AppendUvarint(b, uint64(n.Level))
		b = binary.AppendUvarint(b, uint64(n.Parent))
		b = binary.AppendUvarint(b, uint64(n.Gen))
		b = binary.AppendUvarint(b, uint64(len(n.Entries)))
		for _, e := range n.Entries {
			b = binary.AppendUvarint(b, uint64(e.Child))
			b = binary.AppendUvarint(b, uint64(e.Obj))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.MBR.MinX))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.MBR.MinY))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.MBR.MaxX))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.MBR.MaxY))
		}
	}
	return b
}

// imgDec is a sticky-error decoder over an image body; like the wire codec
// it never panics and bounds every allocation by the input size.
type imgDec struct {
	b   []byte
	err error
}

func (d *imgDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{errImage}, args...)...)
	}
}

func (d *imgDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *imgDec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads a collection length, bounded by minBytes per element of
// remaining input.
func (d *imgDec) count(minBytes int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(len(d.b))/uint64(minBytes) {
		d.fail("count %d exceeds %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

// ReadImage reconstructs a tree from an AppendImage serialization. Malformed
// input (truncation, corruption, internal inconsistency) returns an error;
// decoding never panics.
func ReadImage(body []byte) (*Tree, error) {
	d := &imgDec{b: body}
	if len(body) < 1 {
		return nil, fmt.Errorf("%w: empty image", errImage)
	}
	if v := body[0]; v != imageVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", errImage, v)
	}
	d.b = body[1:]

	t := &Tree{stamp: new(stamp)}
	t.params.MaxEntries = int(d.uvarint())
	t.params.MinEntries = int(d.uvarint())
	t.params.ReinsertCount = int(d.uvarint())
	t.root = NodeID(d.uvarint())
	t.height = int(d.uvarint())
	t.size = int(d.uvarint())
	span := d.uvarint()
	for i, nfree := 0, d.count(1); i < nfree && d.err == nil; i++ {
		if id := d.uvarint(); id >= span {
			d.fail("free id %d out of span %d", id, span)
		}
	}
	live := d.count(5) // id + level + parent + gen + count, one byte each min
	if d.err != nil {
		return nil, d.err
	}
	// NodeIDs are never reused, so the span only has to cover the sentinel
	// plus every live node, and stay under the id-width ceiling so a corrupt
	// header cannot demand an absurd allocation.
	const maxImageSpan = 1 << 26
	if span < 1+uint64(live) || span > maxImageSpan {
		return nil, fmt.Errorf("%w: implausible span %d for %d live nodes",
			errImage, span, live)
	}
	t.live = live
	t.nodes = make([]*Node, span)
	for i := 0; i < live && d.err == nil; i++ {
		id := NodeID(d.uvarint())
		if d.err != nil {
			break
		}
		if uint64(id) >= span || id == InvalidNode {
			d.fail("node id %d out of span %d", id, span)
			break
		}
		if t.nodes[id] != nil {
			d.fail("duplicate node id %d", id)
			break
		}
		n := &Node{ID: id, owner: t.stamp}
		t.nodes[id] = n
		n.Level = int(d.uvarint())
		n.Parent = NodeID(d.uvarint())
		n.Gen = uint32(d.uvarint())
		ecount := d.count(2 + 32) // child + obj + four float64
		if ecount > 0 {
			n.Entries = make([]Entry, 0, ecount)
			for j := 0; j < ecount && d.err == nil; j++ {
				e := Entry{
					Child: NodeID(d.uvarint()),
					Obj:   ObjectID(d.uvarint()),
				}
				e.MBR = geom.Rect{MinX: d.f64(), MinY: d.f64(), MaxX: d.f64(), MaxY: d.f64()}
				if e.Child != InvalidNode && uint64(e.Child) >= span {
					d.fail("entry child %d out of span %d", e.Child, span)
				}
				n.Entries = append(n.Entries, e)
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errImage, len(d.b))
	}
	if uint64(t.root) >= span {
		return nil, fmt.Errorf("%w: root %d out of span %d", errImage, t.root, span)
	}
	if t.nodes[t.root] == nil { // also rejects InvalidNode: every tree has a root page
		return nil, fmt.Errorf("%w: root %d is not a live node", errImage, t.root)
	}
	// A descent follows every entry of an intermediate page without a
	// liveness check, so a dangling child must not get past the decoder.
	for _, n := range t.nodes {
		if n == nil || n.Level == 0 {
			continue
		}
		for _, e := range n.Entries {
			if t.nodes[e.Child] == nil {
				return nil, fmt.Errorf("%w: node %d references missing child %d", errImage, n.ID, e.Child)
			}
		}
	}
	return t, nil
}
