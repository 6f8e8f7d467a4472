package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
)

// The binary codec is the wire format, the only thing that crosses a
// socket: a hand-rolled, versioned, length-prefixed encoding of every
// protocol message, deliberately shaped after the paper's byte-size model:
// coordinates travel as float32 (SizeModel prices 20-byte entries of four
// float32 coordinates plus a pointer), identifiers and counts as varints,
// and partition-tree codes as packed bits. Priority keys of handed-over
// queue elements are not shipped at all — the server recomputes them from
// the MBRs (Server.rekey treats client keys as untrusted anyway).
//
// Stream layout (see docs/WIRE.md for the full specification):
//
//	preamble  "PRW" <version>            once per direction
//	frame     length:uint32le            bytes after the length field
//	          type:byte                  1=request 2=response 3=error
//	          id:uvarint                 request correlation id
//	          body                       message-specific encoding
//
// Frames are self-delimiting, so a connection can carry many requests in
// flight: the client tags each request with a fresh id and the server may
// answer out of order (see BinaryClientConn and NetServer).

// ProtoVersion is the binary protocol version carried in the handshake
// preamble. Peers with different versions do not talk to each other: the
// server closes the connection and Dial reports ErrProtocolMismatch.
const ProtoVersion = 1

// handshakeMagic is the per-direction stream preamble: it opens every
// connection and pins the protocol version. Byte 0 is 0xF8 for wire
// compatibility with existing captures and the goldens under testdata.
// Bytes 5..8 are reserved and zero; a server refuses any other value,
// including byte 5 = 1, the retired edge-proxy role. Servers ack with the
// same preamble; clients check only bytes 0..4 of the ack.
var handshakeMagic = [9]byte{0xF8, 'P', 'R', 'W', ProtoVersion, 0, 0, 0, 0}

// Frame types.
const (
	frameRequest  byte = 1
	frameResponse byte = 2
	frameError    byte = 3
)

// MaxFrameBytes is the hard cap on one frame's payload; readFrame rejects
// anything larger before allocating, so a corrupt or hostile length prefix
// cannot balloon memory.
const MaxFrameBytes = 16 << 20

// frameChunk bounds how much readFrame allocates ahead of data actually
// arriving: large frames are read in chunks, so a lying length prefix on a
// short stream over-allocates at most one chunk.
const frameChunk = 64 << 10

// maxCodeBits caps the length of a partition-tree code on the wire; real
// codes are bounded by the partition-tree depth (about log2 of the node
// fanout, well under 64).
const maxCodeBits = 512

// ErrDecode wraps every malformed-message error produced by the binary
// decoder. Decoding never panics and never allocates more than a small
// multiple of the input size, no matter the bytes.
var ErrDecode = errors.New("wire: malformed binary message")

// Request flag bits.
const (
	reqNoIndex byte = 1 << iota
	reqCatalog
	reqHasFMR
	reqHasUpdates
	reqHasBound
	// reqReplicaReserved once marked a replication-stream message between
	// two servers of one shard. It stays reserved so later flags keep their
	// positions; the decoder ignores it, as it ignores bits 6-7.
	reqReplicaReserved
)

// Query field-presence bits (zero-valued fields are elided).
const (
	qfWindow byte = 1 << iota
	qfCenter
	qfK
	qfJoinWindow
	qfDist
)

// Queued-element flag bits.
const (
	elemPair byte = 1 << iota
	elemDeferred
)

// Response flag bits.
const (
	respFlushAll byte = 1 << iota
	respHasRoot
	respHasUpdates
)

// Cut-element flag bits.
const (
	ceSuper byte = 1 << iota
	ceChild
)

// Minimum encoded sizes, used to bound slice pre-allocation against the
// remaining input before trusting a decoded count.
const (
	minRefBytes     = 1 + 16 + 1           // kind + rect + id
	minElemBytes    = 1 + minRefBytes      // flags + single ref
	minRectBytes    = 16                   // four float32
	minObjRepBytes  = 1 + 16 + 1 + 1       // id + rect + size + flags
	minNodeRepBytes = 1 + 1 + 1            // id + level + count
	minCutElemBytes = 1 + 1 + minRectBytes // flags + code length + rect
	minIDBytes      = 1
	minPairBytes    = 2
	minUpdateBytes  = 1 + 1 + minRectBytes // kind + object id + one rect
)

// appendF32 encodes a coordinate as IEEE-754 float32, little endian. The
// quantization to float32 is deliberate: it is exactly what the paper's
// size model assumes (20-byte entries of four float32 coordinates), and all
// experiment coordinates live in the unit square where float32 resolution
// is ~1e-7.
func appendF32(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
}

// f32ceil quantizes a value to the smallest float32 not below it. The kNN
// pruning bound must never round DOWN on the wire: a shard pruning at a
// bound half an ulp under the router's true k-th-best distance could drop
// a genuine nearest neighbor. Rounding up only ever under-prunes.
func f32ceil(v float64) float64 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return float64(f)
}

func appendRect(b []byte, r geom.Rect) []byte {
	b = appendF32(b, r.MinX)
	b = appendF32(b, r.MinY)
	b = appendF32(b, r.MaxX)
	return appendF32(b, r.MaxY)
}

func appendPoint(b []byte, p geom.Point) []byte {
	return appendF32(appendF32(b, p.X), p.Y)
}

// appendCode packs a partition-tree code ('0'/'1' string) as a uvarint bit
// count followed by the bits, LSB first, eight characters to the byte.
func appendCode(b []byte, c bpt.Code) []byte {
	b = binary.AppendUvarint(b, uint64(len(c)))
	for ; len(c) >= 8; c = c[8:] {
		b = append(b, codeBit[c[0]]|codeBit[c[1]]<<1|codeBit[c[2]]<<2|codeBit[c[3]]<<3|
			codeBit[c[4]]<<4|codeBit[c[5]]<<5|codeBit[c[6]]<<6|codeBit[c[7]]<<7)
	}
	if len(c) > 0 {
		var cur byte
		for i := 0; i < len(c); i++ {
			cur |= codeBit[c[i]] << i
		}
		b = append(b, cur)
	}
	return b
}

// codeBit maps a code character to its bit: '1' is one, anything else zero.
// codeChars[b] is the eight code characters byte b packs, LSB first.
// codeLen[:n] stands in for an n-character code while DecodeResponse gathers
// the characters of a node's codes.
var codeBit = [256]byte{'1': 1}
var codeLen = bpt.Code(strings.Repeat("0", maxCodeBits))
var codeChars = func() (t [256][8]byte) {
	for b := range t {
		for i := range t[b] {
			t[b][i] = '0' + byte(b>>i&1)
		}
	}
	return t
}()

func appendQuery(b []byte, q query.Query) []byte {
	b = append(b, byte(q.Kind))
	var p byte
	if q.Window != (geom.Rect{}) {
		p |= qfWindow
	}
	if q.Center != (geom.Point{}) {
		p |= qfCenter
	}
	if q.K != 0 {
		p |= qfK
	}
	if q.JoinWindow != (geom.Rect{}) {
		p |= qfJoinWindow
	}
	if q.Dist != 0 {
		p |= qfDist
	}
	b = append(b, p)
	if p&qfWindow != 0 {
		b = appendRect(b, q.Window)
	}
	if p&qfCenter != 0 {
		b = appendPoint(b, q.Center)
	}
	if p&qfK != 0 {
		b = binary.AppendVarint(b, int64(q.K))
	}
	if p&qfJoinWindow != 0 {
		b = appendRect(b, q.JoinWindow)
	}
	if p&qfDist != 0 {
		b = appendF32(b, q.Dist)
	}
	return b
}

func appendRef(b []byte, r query.Ref) []byte {
	b = append(b, byte(r.Kind))
	b = appendRect(b, r.MBR)
	switch r.Kind {
	case query.RefSuper:
		b = binary.AppendUvarint(b, uint64(r.Node))
		b = appendCode(b, r.Code)
	case query.RefObject:
		b = binary.AppendUvarint(b, uint64(r.Obj))
	default: // RefNode (unknown kinds encode like nodes and fail on decode)
		b = binary.AppendUvarint(b, uint64(r.Node))
	}
	return b
}

// EncodeRequest appends the binary body of req to dst and returns the
// extended slice. Queue-element priority keys are intentionally not encoded:
// the server rekeys every handed-over element from its MBR.
func EncodeRequest(dst []byte, req *Request) []byte {
	b := binary.AppendUvarint(dst, uint64(req.Client))
	var fl byte
	if req.NoIndex {
		fl |= reqNoIndex
	}
	if req.Catalog {
		fl |= reqCatalog
	}
	if req.HasFMR {
		fl |= reqHasFMR
	}
	if len(req.Updates) > 0 {
		fl |= reqHasUpdates
	}
	if req.Bound > 0 {
		fl |= reqHasBound
	}
	b = append(b, fl)
	b = binary.AppendUvarint(b, req.Epoch)
	b = appendQuery(b, req.Q)
	b = binary.AppendUvarint(b, uint64(len(req.H)))
	for _, qe := range req.H {
		var ef byte
		if qe.Elem.Pair {
			ef |= elemPair
		}
		if qe.Deferred {
			ef |= elemDeferred
		}
		b = append(b, ef)
		b = appendRef(b, qe.Elem.A)
		if qe.Elem.Pair {
			b = appendRef(b, qe.Elem.B)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(req.CachedIDs)))
	for _, id := range req.CachedIDs {
		b = binary.AppendUvarint(b, uint64(id))
	}
	b = binary.AppendUvarint(b, uint64(len(req.SemWindows)))
	for _, w := range req.SemWindows {
		b = appendRect(b, w)
	}
	if req.HasFMR {
		b = appendF32(b, req.FMR)
	}
	// The updates section is appended only when present (flagged), so
	// query-request encodings are byte-identical to protocol version 1
	// streams (the golden files pin this).
	if len(req.Updates) > 0 {
		b = binary.AppendUvarint(b, uint64(len(req.Updates)))
		for _, u := range req.Updates {
			b = append(b, byte(u.Kind))
			b = binary.AppendUvarint(b, uint64(u.Obj))
			switch u.Kind {
			case UpdateInsert:
				b = appendRect(b, u.To)
				b = binary.AppendVarint(b, int64(u.Size))
			case UpdateMove:
				b = appendRect(b, u.From)
				b = appendRect(b, u.To)
			default: // UpdateDelete and unknown kinds ship one rectangle
				b = appendRect(b, u.From)
			}
		}
	}
	// The shard-routing bound is appended last and only when flagged, so
	// every pre-cluster request encodes byte-identically to protocol
	// version 1 streams (the golden files pin this). It quantizes upward
	// (f32ceil), unlike geometry: a bound must never tighten in transit.
	if req.Bound > 0 {
		b = appendF32(b, f32ceil(req.Bound))
	}
	return b
}

// EncodeResponse appends the binary body of resp to dst and returns the
// extended slice.
func EncodeResponse(dst []byte, resp *Response) []byte {
	var fl byte
	if resp.FlushAll {
		fl |= respFlushAll
	}
	hasRoot := resp.RootID != rtree.InvalidNode || resp.RootMBR != (geom.Rect{})
	if hasRoot {
		fl |= respHasRoot
	}
	if len(resp.UpdateResults) > 0 {
		fl |= respHasUpdates
	}
	b := append(dst, fl)
	b = binary.AppendVarint(b, int64(resp.K))
	b = binary.AppendUvarint(b, resp.Epoch)
	if hasRoot {
		b = binary.AppendUvarint(b, uint64(resp.RootID))
		b = appendRect(b, resp.RootMBR)
	}
	b = binary.AppendUvarint(b, uint64(len(resp.Objects)))
	for _, o := range resp.Objects {
		b = binary.AppendUvarint(b, uint64(o.ID))
		b = appendRect(b, o.MBR)
		b = binary.AppendVarint(b, int64(o.Size))
		var of byte
		if o.Payload {
			of = 1
		}
		b = append(b, of)
	}
	b = binary.AppendUvarint(b, uint64(len(resp.Pairs)))
	for _, p := range resp.Pairs {
		b = binary.AppendUvarint(b, uint64(p[0]))
		b = binary.AppendUvarint(b, uint64(p[1]))
	}
	b = binary.AppendUvarint(b, uint64(len(resp.Index)))
	for _, rep := range resp.Index {
		b = binary.AppendUvarint(b, uint64(rep.ID))
		b = binary.AppendVarint(b, int64(rep.Level))
		b = binary.AppendUvarint(b, uint64(len(rep.Elems)))
		for _, e := range rep.Elems {
			var ef byte
			if e.Super {
				ef |= ceSuper
			} else if e.Child != rtree.InvalidNode {
				ef |= ceChild
			}
			b = append(b, ef)
			b = appendCode(b, e.Code)
			b = appendRect(b, e.MBR)
			switch {
			case e.Super:
				// The node id lives on the enclosing NodeRep.
			case e.Child != rtree.InvalidNode:
				b = binary.AppendUvarint(b, uint64(e.Child))
			default:
				b = binary.AppendUvarint(b, uint64(e.Obj))
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(len(resp.InvalidNodes)))
	for _, id := range resp.InvalidNodes {
		b = binary.AppendUvarint(b, uint64(id))
	}
	b = binary.AppendUvarint(b, uint64(len(resp.InvalidObjs)))
	for _, id := range resp.InvalidObjs {
		b = binary.AppendUvarint(b, uint64(id))
	}
	if len(resp.UpdateResults) > 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.UpdateResults)))
		for _, ok := range resp.UpdateResults {
			var v byte
			if ok {
				v = 1
			}
			b = append(b, v)
		}
	}
	return b
}

// bdec is a bounds-checked, panic-free decoder over one message body. After
// the first error every accessor returns a zero value and the error sticks.
type bdec struct {
	b   []byte
	err error
}

func (d *bdec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrDecode}, args...)...)
	}
}

func (d *bdec) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *bdec) uvarint() uint64 {
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

func (d *bdec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *bdec) f32() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail("truncated float32")
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(d.b))
	d.b = d.b[4:]
	return float64(v)
}

func (d *bdec) rect() geom.Rect {
	if d.err != nil || len(d.b) < minRectBytes {
		return geom.Rect{MinX: d.f32(), MinY: d.f32(), MaxX: d.f32(), MaxY: d.f32()}
	}
	b := d.b[:minRectBytes] // one bounds check for the four coordinates
	d.b = d.b[minRectBytes:]
	f := func(i int) float64 { return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i:]))) }
	return geom.Rect{MinX: f(0), MinY: f(4), MaxX: f(8), MaxY: f(12)}
}

func (d *bdec) point() geom.Point {
	return geom.Point{X: d.f32(), Y: d.f32()}
}

// code reads one partition-tree code and appends its characters to dst, a
// byte of input at a time; padding bits in the last byte are ignored.
func (d *bdec) code(dst []byte) []byte {
	n := d.uvarint()
	if d.err != nil {
		return dst
	}
	if n > maxCodeBits {
		d.fail("code of %d bits exceeds limit %d", n, maxCodeBits)
		return dst
	}
	nb := (int(n) + 7) / 8
	if nb > len(d.b) {
		d.fail("truncated code")
		return dst
	}
	for _, b := range d.b[:n/8] {
		dst = append(dst, codeChars[b][:]...)
	}
	if rem := n % 8; rem > 0 {
		dst = append(dst, codeChars[d.b[nb-1]][:rem]...)
	}
	d.b = d.b[nb:]
	return dst
}

// count reads a collection length and rejects it unless minBytes per element
// still fit in the remaining input — a decoded count can therefore never
// force an allocation larger than the bytes actually received.
func (d *bdec) count(minBytes int) int {
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

func (d *bdec) query() query.Query {
	var q query.Query
	q.Kind = query.Kind(d.u8())
	p := d.u8()
	if p&qfWindow != 0 {
		q.Window = d.rect()
	}
	if p&qfCenter != 0 {
		q.Center = d.point()
	}
	if p&qfK != 0 {
		q.K = int(d.varint())
	}
	if p&qfJoinWindow != 0 {
		q.JoinWindow = d.rect()
	}
	if p&qfDist != 0 {
		q.Dist = d.f32()
	}
	return q
}

func (d *bdec) ref() query.Ref {
	kind := query.RefKind(d.u8())
	mbr := d.rect()
	switch kind {
	case query.RefNode:
		return query.NodeRef(rtree.NodeID(d.uvarint()), mbr)
	case query.RefSuper:
		n := rtree.NodeID(d.uvarint())
		var chars [maxCodeBits]byte
		return query.SuperRef(n, bpt.Code(d.code(chars[:0])), mbr)
	case query.RefObject:
		return query.ObjectRef(rtree.ObjectID(d.uvarint()), mbr)
	default:
		d.fail("unknown ref kind %d", kind)
		return query.Ref{}
	}
}

// done returns the accumulated decode error, treating unconsumed trailing
// bytes as an error so a desynchronized stream cannot pass silently.
func (d *bdec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(d.b))
	}
	return nil
}

// DecodeRequest parses a binary request body. Malformed input returns an
// error wrapping ErrDecode; it never panics. Priority keys of H come back
// zero (the server rekeys).
func DecodeRequest(body []byte) (*Request, error) {
	d := &bdec{b: body}
	req := &Request{}
	req.Client = ClientID(d.uvarint())
	fl := d.u8()
	req.NoIndex = fl&reqNoIndex != 0
	req.Catalog = fl&reqCatalog != 0
	req.HasFMR = fl&reqHasFMR != 0
	req.Epoch = d.uvarint()
	req.Q = d.query()
	if n := d.count(minElemBytes); n > 0 {
		req.H = make([]query.QueuedElem, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			ef := d.u8()
			a := d.ref()
			var e query.Elem
			if ef&elemPair != 0 {
				e = query.PairOf(a, d.ref())
			} else {
				e = query.Single(a)
			}
			req.H = append(req.H, query.QueuedElem{Elem: e, Deferred: ef&elemDeferred != 0})
		}
	}
	if n := d.count(minIDBytes); n > 0 {
		req.CachedIDs = make([]rtree.ObjectID, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			req.CachedIDs = append(req.CachedIDs, rtree.ObjectID(d.uvarint()))
		}
	}
	if n := d.count(minRectBytes); n > 0 {
		req.SemWindows = make([]geom.Rect, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			req.SemWindows = append(req.SemWindows, d.rect())
		}
	}
	if req.HasFMR {
		req.FMR = d.f32()
	}
	if fl&reqHasUpdates != 0 {
		if n := d.count(minUpdateBytes); n > 0 {
			req.Updates = make([]UpdateOp, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				u := UpdateOp{Kind: UpdateKind(d.u8()), Obj: rtree.ObjectID(d.uvarint())}
				switch u.Kind {
				case UpdateInsert:
					u.To = d.rect()
					u.Size = int(d.varint())
				case UpdateMove:
					u.From = d.rect()
					u.To = d.rect()
				case UpdateDelete:
					u.From = d.rect()
				default:
					d.fail("unknown update kind %d", u.Kind)
				}
				req.Updates = append(req.Updates, u)
			}
		}
	}
	if fl&reqHasBound != 0 {
		req.Bound = d.f32()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeResponse parses a binary response body. Malformed input returns an
// error wrapping ErrDecode; it never panics.
func DecodeResponse(body []byte) (*Response, error) {
	d := &bdec{b: body}
	resp := &Response{}
	fl := d.u8()
	resp.FlushAll = fl&respFlushAll != 0
	resp.K = int(d.varint())
	resp.Epoch = d.uvarint()
	if fl&respHasRoot != 0 {
		resp.RootID = rtree.NodeID(d.uvarint())
		resp.RootMBR = d.rect()
	}
	if n := d.count(minObjRepBytes); n > 0 {
		resp.Objects = make([]ObjectRep, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			o := ObjectRep{
				ID:   rtree.ObjectID(d.uvarint()),
				MBR:  d.rect(),
				Size: int(d.varint()),
			}
			o.Payload = d.u8()&1 != 0
			resp.Objects = append(resp.Objects, o)
		}
	}
	if n := d.count(minPairBytes); n > 0 {
		resp.Pairs = make([][2]rtree.ObjectID, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			resp.Pairs = append(resp.Pairs, [2]rtree.ObjectID{
				rtree.ObjectID(d.uvarint()), rtree.ObjectID(d.uvarint()),
			})
		}
	}
	if n := d.count(minNodeRepBytes); n > 0 {
		resp.Index = make([]NodeRep, 0, n)
		var stack [8 * maxCodeBits]byte // a node's code characters seldom need more
		chars := stack[:0]
		for i := 0; i < n && d.err == nil; i++ {
			rep := NodeRep{
				ID:    rtree.NodeID(d.uvarint()),
				Level: int(d.varint()),
			}
			if ne := d.count(minCutElemBytes); ne > 0 {
				rep.Elems = make([]CutElem, 0, ne)
				chars = chars[:0]
				for j := 0; j < ne && d.err == nil; j++ {
					ef := d.u8()
					start := len(chars)
					chars = d.code(chars)
					e := CutElem{Code: codeLen[:len(chars)-start], MBR: d.rect()}
					switch {
					case ef&ceSuper != 0:
						e.Super = true
					case ef&ceChild != 0:
						e.Child = rtree.NodeID(d.uvarint())
					default:
						e.Obj = rtree.ObjectID(d.uvarint())
					}
					rep.Elems = append(rep.Elems, e)
				}
				// One string holds the node's codes and each element's Code
				// is a slice of it: one allocation per node, not per element.
				codes := bpt.Code(chars)
				for j := range rep.Elems {
					n := len(rep.Elems[j].Code)
					rep.Elems[j].Code, codes = codes[:n], codes[n:]
				}
			}
			resp.Index = append(resp.Index, rep)
		}
	}
	if n := d.count(minIDBytes); n > 0 {
		resp.InvalidNodes = make([]rtree.NodeID, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			resp.InvalidNodes = append(resp.InvalidNodes, rtree.NodeID(d.uvarint()))
		}
	}
	if n := d.count(minIDBytes); n > 0 {
		resp.InvalidObjs = make([]rtree.ObjectID, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			resp.InvalidObjs = append(resp.InvalidObjs, rtree.ObjectID(d.uvarint()))
		}
	}
	if fl&respHasUpdates != 0 {
		if n := d.count(1); n > 0 {
			resp.UpdateResults = make([]bool, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				resp.UpdateResults = append(resp.UpdateResults, d.u8()&1 != 0)
			}
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return resp, nil
}

// sniffBinary reports whether the stream opens with the binary handshake
// preamble, consuming it when present. Only the exact current preamble is
// accepted (any other version, a nonzero role byte or reserved byte is
// not); both serving paths (NetServer.serveConn, rejectConn) close a
// connection that opens with anything else.
func sniffBinary(br *bufio.Reader) (bool, error) {
	first, err := br.Peek(len(handshakeMagic))
	if err != nil {
		return false, err
	}
	if !bytes.Equal(first, handshakeMagic[:]) {
		return false, nil
	}
	_, err = br.Discard(len(handshakeMagic))
	return true, err
}

// writeFrame emits one length-prefixed frame and flushes, so the message
// leaves the process immediately (responses are awaited by a live client).
// The header is built in the writer's spare buffer: a local array handed to
// Write would escape and cost an allocation per frame.
func writeFrame(bw *bufio.Writer, typ byte, id uint64, body []byte) error {
	head := append(bw.AvailableBuffer(), 0, 0, 0, 0, typ)
	head = binary.AppendUvarint(head, id)
	binary.LittleEndian.PutUint32(head, uint32(len(head)-4+len(body)))
	if _, err := bw.Write(head); err != nil {
		return err
	}
	if _, err := bw.Write(body); err != nil {
		return err
	}
	return bw.Flush()
}

// readFrame reads one frame into *buf, the connection's frame buffer; body
// aliases it and is valid until the next call. The length prefix is checked
// against MaxFrameBytes before any allocation, and the buffer grows in chunks
// so a lying prefix on a truncated stream cannot over-allocate.
func readFrame(r io.Reader, buf *[]byte) (typ byte, id uint64, body []byte, err error) {
	if *buf, err = readCapped(r, (*buf)[:0], 4); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(*buf)
	if n < 2 {
		return 0, 0, nil, fmt.Errorf("%w: frame of %d bytes", ErrDecode, n)
	}
	if n > MaxFrameBytes {
		return 0, 0, nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrDecode, n, MaxFrameBytes)
	}
	if *buf, err = readCapped(r, (*buf)[:0], int(n)); err != nil {
		return 0, 0, nil, err
	}
	typ = (*buf)[0]
	id, vn := binary.Uvarint((*buf)[1:])
	if vn <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: bad frame id", ErrDecode)
	}
	return typ, id, (*buf)[1+vn:], nil
}

// readCapped appends exactly n bytes from r to buf, allocating at most
// frameChunk ahead of the data that has actually arrived.
func readCapped(r io.Reader, buf []byte, n int) ([]byte, error) {
	for end := len(buf) + n; len(buf) < end; {
		have, next := len(buf), end
		if next > cap(buf) {
			next = min(end, have+frameChunk)
			buf = slices.Grow(buf, next-have)
		}
		buf = buf[:next]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return buf[:have], err
		}
	}
	return buf, nil
}
