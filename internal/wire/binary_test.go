package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
)

// q32 quantizes a coordinate the way the wire does (float32).
func q32(v float64) float64 { return float64(float32(v)) }

func q32r(r geom.Rect) geom.Rect {
	return geom.Rect{MinX: q32(r.MinX), MinY: q32(r.MinY), MaxX: q32(r.MaxX), MaxY: q32(r.MaxY)}
}

func q32p(p geom.Point) geom.Point { return geom.Point{X: q32(p.X), Y: q32(p.Y)} }

func q32ref(r query.Ref) query.Ref {
	r.MBR = q32r(r.MBR)
	return r
}

// canonRequest maps a request to what the binary codec preserves: float32
// geometry, zeroed H priority keys (the server rekeys), and empty slices
// normalized to nil.
func canonRequest(req *Request) *Request {
	out := *req
	out.Q.Window = q32r(req.Q.Window)
	out.Q.Center = q32p(req.Q.Center)
	out.Q.JoinWindow = q32r(req.Q.JoinWindow)
	out.Q.Dist = q32(req.Q.Dist)
	out.FMR = 0
	if req.HasFMR {
		out.FMR = q32(req.FMR)
	}
	out.Bound = 0
	if req.Bound > 0 {
		out.Bound = f32ceil(req.Bound) // the bound quantizes upward, never down
	}
	out.H = nil
	for _, qe := range req.H {
		qe.Key = 0
		qe.Elem.A = q32ref(qe.Elem.A)
		if qe.Elem.Pair {
			qe.Elem.B = q32ref(qe.Elem.B)
		}
		out.H = append(out.H, qe)
	}
	out.CachedIDs = append([]rtree.ObjectID(nil), req.CachedIDs...)
	out.SemWindows = nil
	for _, w := range req.SemWindows {
		out.SemWindows = append(out.SemWindows, q32r(w))
	}
	out.Updates = nil
	for _, u := range req.Updates {
		u.From = q32r(u.From)
		u.To = q32r(u.To)
		// The codec ships only the rectangles the kind uses.
		switch u.Kind {
		case UpdateInsert:
			u.From = geom.Rect{}
		case UpdateDelete:
			u.To = geom.Rect{}
			u.Size = 0
		case UpdateMove:
			u.Size = 0
		}
		out.Updates = append(out.Updates, u)
	}
	return &out
}

// canonResponse maps a response to what the binary codec preserves: float32
// geometry and, for super cut elements, no child/object ids (the node id
// lives on the enclosing NodeRep).
func canonResponse(resp *Response) *Response {
	out := *resp
	out.RootMBR = q32r(resp.RootMBR)
	out.Objects = nil
	for _, o := range resp.Objects {
		o.MBR = q32r(o.MBR)
		out.Objects = append(out.Objects, o)
	}
	out.Pairs = append([][2]rtree.ObjectID(nil), resp.Pairs...)
	out.Index = nil
	for _, rep := range resp.Index {
		cp := NodeRep{ID: rep.ID, Level: rep.Level}
		for _, e := range rep.Elems {
			e.MBR = q32r(e.MBR)
			if e.Super {
				e.Child, e.Obj = rtree.InvalidNode, 0
			} else if e.Child != rtree.InvalidNode {
				e.Obj = 0
			}
			cp.Elems = append(cp.Elems, e)
		}
		out.Index = append(out.Index, cp)
	}
	out.InvalidNodes = append([]rtree.NodeID(nil), resp.InvalidNodes...)
	out.InvalidObjs = append([]rtree.ObjectID(nil), resp.InvalidObjs...)
	return &out
}

// testRequests returns hand-built messages covering every request shape.
// Coordinates are float32-exact so round trips compare bit-for-bit.
func testRequests() map[string]*Request {
	return map[string]*Request{
		"catalog": {Client: 7, Catalog: true, Epoch: 42},
		"range-fresh": {
			Client: 1,
			Q:      query.NewRange(geom.R(0.25, 0.25, 0.75, 0.5)),
		},
		"knn-remainder": {
			Client: 9,
			Q:      query.NewKNN(geom.Pt(0.5, 0.5), 4),
			Epoch:  3,
			H: []query.QueuedElem{
				{Elem: query.Single(query.NodeRef(12, geom.R(0, 0, 0.5, 0.5)))},
				{Elem: query.Single(query.SuperRef(12, bpt.Code("011"), geom.R(0.25, 0, 0.5, 0.25)))},
				{Elem: query.Single(query.ObjectRef(991, geom.R(0.5, 0.5, 0.5, 0.5))), Deferred: true},
			},
			HasFMR: true,
			FMR:    0.25,
		},
		"join-remainder": {
			Client: 3,
			Q:      query.NewJoin(geom.R(0, 0, 1, 1), 0.125),
			H: []query.QueuedElem{
				{Elem: query.PairOf(
					query.NodeRef(4, geom.R(0, 0, 0.25, 0.25)),
					query.NodeRef(8, geom.R(0.25, 0.25, 0.5, 0.5)),
				)},
			},
		},
		"page-baseline": {
			Client:    2,
			Q:         query.NewRange(geom.R(0, 0, 0.25, 0.25)),
			CachedIDs: []rtree.ObjectID{5, 9, 1024, 70000},
			NoIndex:   true,
		},
		"sem-baseline": {
			Client:     2,
			Q:          query.NewRange(geom.R(0, 0, 0.5, 0.5)),
			SemWindows: []geom.Rect{geom.R(0, 0, 0.25, 0.5), geom.R(0.25, 0, 0.5, 0.125)},
			NoIndex:    true,
		},
		"knn-bound": {
			Client: 5,
			Q:      query.NewKNN(geom.Pt(0.25, 0.75), 8),
			Epoch:  12,
			Bound:  0.125,
		},
		"update-batch": {
			Client: 11,
			Epoch:  64,
			Updates: []UpdateOp{
				{Kind: UpdateInsert, Obj: 90001, To: geom.R(0.5, 0.5, 0.625, 0.625), Size: 2048},
				{Kind: UpdateDelete, Obj: 42, From: geom.R(0, 0, 0.125, 0.125)},
				{Kind: UpdateMove, Obj: 7, From: geom.R(0.25, 0.25, 0.375, 0.375), To: geom.R(0.75, 0.75, 0.875, 0.875)},
			},
		},
	}
}

// testResponses returns hand-built messages covering every response shape.
func testResponses() map[string]*Response {
	return map[string]*Response{
		"catalog": {RootID: 1, RootMBR: geom.R(0, 0, 1, 1), Epoch: 9},
		"apro": {
			K:     2,
			Epoch: 17,
			Objects: []ObjectRep{
				{ID: 101, MBR: geom.R(0.5, 0.5, 0.5, 0.5), Size: 900, Payload: true},
				{ID: 102, MBR: geom.R(0.25, 0.5, 0.375, 0.625), Size: 4096, Payload: false},
				{ID: 70001, MBR: geom.R(0, 0, 0.125, 0.125), Size: 64, Payload: true},
			},
			Pairs: [][2]rtree.ObjectID{{101, 102}},
			Index: []NodeRep{
				{ID: 1, Level: 2, Elems: []CutElem{
					{Code: "0", MBR: geom.R(0, 0, 0.5, 1), Super: true},
					{Code: "10", MBR: geom.R(0.5, 0, 1, 0.5), Child: 7},
					{Code: "11", MBR: geom.R(0.5, 0.5, 1, 1), Child: 8},
				}},
				{ID: 8, Level: 1, Elems: []CutElem{
					{Code: "000", MBR: geom.R(0.5, 0.5, 0.625, 0.625), Obj: 101},
					{Code: "001", MBR: geom.R(0.625, 0.625, 0.75, 0.75), Obj: 102},
					{Code: "01", MBR: geom.R(0.75, 0.5, 1, 0.75), Super: true},
				}},
			},
			RootID:       1,
			RootMBR:      geom.R(0, 0, 1, 1),
			InvalidNodes: []rtree.NodeID{3, 9},
			InvalidObjs:  []rtree.ObjectID{55},
		},
		"flush-all": {Epoch: 1000, FlushAll: true},
		"empty":     {},
		"update-ack": {
			Epoch:         128,
			RootID:        1,
			RootMBR:       geom.R(0, 0, 1, 1),
			InvalidObjs:   []rtree.ObjectID{42},
			UpdateResults: []bool{true, false, true},
		},
	}
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	for name, req := range testRequests() {
		enc := EncodeRequest(nil, req)
		got, err := DecodeRequest(enc)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if want := canonRequest(req); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip mangled\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	for name, resp := range testResponses() {
		enc := EncodeResponse(nil, resp)
		got, err := DecodeResponse(enc)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if want := canonResponse(resp); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip mangled\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestBinaryQuickRoundTrip feeds the codec the same randomized messages as
// the gob property test: after canonicalization (float32 geometry, zeroed
// keys, super elements stripped of ids) the round trip must be exact.
func TestBinaryQuickRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		req := randRequest(r)
		gotReq, err := DecodeRequest(EncodeRequest(nil, req))
		if err != nil {
			t.Fatalf("seed %d: decode request: %v", seed, err)
		}
		if want := canonRequest(req); !reflect.DeepEqual(gotReq, want) {
			t.Fatalf("seed %d: request mangled\n got %+v\nwant %+v", seed, gotReq, want)
		}
		resp := randResponse(r)
		gotResp, err := DecodeResponse(EncodeResponse(nil, resp))
		if err != nil {
			t.Fatalf("seed %d: decode response: %v", seed, err)
		}
		if want := canonResponse(resp); !reflect.DeepEqual(gotResp, want) {
			t.Fatalf("seed %d: response mangled\n got %+v\nwant %+v", seed, gotResp, want)
		}
	}
}

// TestBinaryQuantizesToFloat32 documents the deliberate float32 quantization
// of coordinates (the paper's size model prices four-float32 entries).
func TestBinaryQuantizesToFloat32(t *testing.T) {
	v := 0.1 // not float32-representable
	req := &Request{Q: query.NewRange(geom.R(v, v, 1, 1))}
	got, err := DecodeRequest(EncodeRequest(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Q.Window.MinX == v {
		t.Fatal("expected float32 quantization, got exact float64")
	}
	if got.Q.Window.MinX != float64(float32(v)) {
		t.Fatalf("MinX = %v, want %v", got.Q.Window.MinX, float64(float32(v)))
	}
}

// TestBinaryBoundNeverRoundsDown: the shard-routing kNN bound must survive
// quantization without tightening — a wire-rounded-down bound would let a
// shard prune a genuine nearest neighbor half an ulp inside it.
func TestBinaryBoundNeverRoundsDown(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 5000; i++ {
		v := r.Float64() * r.Float64() // bias toward small distances
		if v == 0 {
			continue
		}
		req := &Request{Q: query.NewKNN(geom.Pt(0.5, 0.5), 3), Bound: v}
		got, err := DecodeRequest(EncodeRequest(nil, req))
		if err != nil {
			t.Fatal(err)
		}
		if got.Bound < v {
			t.Fatalf("bound %v rounded down to %v on the wire", v, got.Bound)
		}
		if got.Bound != f32ceil(v) {
			t.Fatalf("bound %v decoded as %v, want %v", v, got.Bound, f32ceil(v))
		}
	}
}

// TestDecodeTruncated: every strict prefix of a valid body must fail with a
// decode error — never panic, never succeed (trailing-byte accounting makes
// the full body the only valid parse).
func TestDecodeTruncated(t *testing.T) {
	for name, req := range testRequests() {
		enc := EncodeRequest(nil, req)
		for i := 0; i < len(enc); i++ {
			if _, err := DecodeRequest(enc[:i]); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded cleanly", name, i, len(enc))
			}
		}
	}
	for name, resp := range testResponses() {
		enc := EncodeResponse(nil, resp)
		for i := 0; i < len(enc); i++ {
			if _, err := DecodeResponse(enc[:i]); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded cleanly", name, i, len(enc))
			}
		}
	}
}

// TestDecodeRejectsLyingCounts: a tiny body claiming a gigantic collection
// must error out before allocating for it.
func TestDecodeRejectsLyingCounts(t *testing.T) {
	// client=1, flags=0, epoch=0, kind=1, presence=0, then H count 2^40.
	body := []byte{1, 0, 0, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := DecodeRequest(body); err == nil {
		t.Fatal("lying H count decoded cleanly")
	}
	// Same for a response object count.
	body = []byte{0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := DecodeResponse(body); err == nil {
		t.Fatal("lying object count decoded cleanly")
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	enc := EncodeRequest(nil, &Request{Client: 1, Catalog: true})
	if _, err := DecodeRequest(append(enc, 0xff)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRejectsOversizedCode(t *testing.T) {
	// A super ref whose code claims more bits than maxCodeBits allows.
	b := []byte{1, 0, 0, 1, 0, 1} // header + H count 1
	b = append(b, 0)              // elem flags
	b = append(b, byte(query.RefSuper))
	b = appendRect(b, geom.R(0, 0, 1, 1))
	b = append(b, 5)          // node id
	b = append(b, 0xFF, 0x7F) // code length 16383 bits
	if _, err := DecodeRequest(b); err == nil || !strings.Contains(err.Error(), "code") {
		t.Fatalf("oversized code: err = %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	body := EncodeRequest(nil, testRequests()["knn-remainder"])
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, frameRequest, 123456, body); err != nil {
		t.Fatal(err)
	}
	typ, id, got, err := readFrame(bytes.NewReader(buf.Bytes()), new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameRequest || id != 123456 || !bytes.Equal(got, body) {
		t.Fatalf("frame mangled: typ=%d id=%d len=%d", typ, id, len(got))
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	head := []byte{0xff, 0xff, 0xff, 0xff} // ~4 GiB frame
	if _, _, _, err := readFrame(bytes.NewReader(head), new([]byte)); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	head = []byte{1, 0, 0, 0} // 1-byte frame cannot hold type + id
	if _, _, _, err := readFrame(bytes.NewReader(head), new([]byte)); err == nil {
		t.Fatal("undersized frame length accepted")
	}
}

// TestReadFrameTruncatedLargeFrame: a frame header promising megabytes on a
// stream that ends early must error after chunked reads, not allocate the
// whole claimed size up front (readCapped grows with the data).
func TestReadFrameTruncatedLargeFrame(t *testing.T) {
	var buf bytes.Buffer
	head := []byte{0, 0, 0x80, 0} // 8 MiB claim
	buf.Write(head)
	buf.Write(make([]byte, 1000)) // only 1000 bytes follow
	var frame []byte
	if _, _, _, err := readFrame(bytes.NewReader(buf.Bytes()), &frame); err == nil {
		t.Fatal("truncated large frame accepted")
	}
	if cap(frame) > 2*frameChunk {
		t.Fatalf("1000 bytes arrived and the frame buffer grew to %d", cap(frame))
	}
}

// TestReadFrameReusesBuffer: a connection reads every frame into the one
// buffer it owns. Once that holds the largest frame seen, reading allocates
// nothing, and a smaller frame after a larger one carries none of its bytes.
func TestReadFrameReusesBuffer(t *testing.T) {
	bodies := [][]byte{
		bytes.Repeat([]byte{0xAB}, 3*frameChunk+17), // grown chunk by chunk
		[]byte("short"),
		bytes.Repeat([]byte{0xCD}, 2*frameChunk),
		{},
	}
	var stream bytes.Buffer
	bw := bufio.NewWriter(&stream)
	for i, body := range bodies {
		if err := writeFrame(bw, frameResponse, uint64(i+1), body); err != nil {
			t.Fatal(err)
		}
	}
	var frame []byte
	read := func() {
		r := bytes.NewReader(stream.Bytes())
		for i, want := range bodies {
			typ, id, got, err := readFrame(r, &frame)
			if err != nil || typ != frameResponse || id != uint64(i+1) || !bytes.Equal(got, want) {
				t.Fatalf("frame %d: typ=%d id=%d len=%d err=%v", i, typ, id, len(got), err)
			}
		}
	}
	read()
	if allocs := testing.AllocsPerRun(10, read); allocs > 1 { // the bytes.Reader
		t.Fatalf("reading into a warm frame buffer allocates %.0f times per pass", allocs)
	}
}

// TestDecodeResponseAllocBudget pins what decoding costs in allocations: the
// Response, one slice per collection the message carries, and two per index
// node — its elements and the one string its codes share. The checked-in
// golden carries all five collections, so the fixed part is six.
func TestDecodeResponseAllocBudget(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "resp_apro.bin"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	nodes, elems := len(resp.Index), 0
	for _, rep := range resp.Index {
		elems += len(rep.Elems)
	}
	if nodes < 2 || elems <= nodes {
		t.Fatalf("golden has %d nodes and %d cut elements; the budget needs several elements per node", nodes, elems)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResponse(body); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(6 + 2*nodes); allocs > budget {
		t.Fatalf("DecodeResponse allocates %.0f times for %d nodes with %d elements, budget %.0f", allocs, nodes, elems, budget)
	}
}

// cutResponse encodes a response whose one index node holds one object
// element per code.
func cutResponse(codes ...bpt.Code) []byte {
	rep := NodeRep{ID: 3, Level: 1}
	for i, c := range codes {
		rep.Elems = append(rep.Elems, CutElem{Code: c, MBR: geom.R(0, 0, 1, 1), Obj: rtree.ObjectID(i + 1)})
	}
	return EncodeResponse(nil, &Response{Index: []NodeRep{rep}})
}

// TestDecodeCodePaddingAndLimits: a node's codes decode into one shared
// string; every length around a byte boundary must still come out exact,
// padding bits must still be ignored, and every malformed code must still be
// refused without an allocation sized by what it claims.
func TestDecodeCodePaddingAndLimits(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	var codes []bpt.Code
	for _, n := range []int{0, 7, 8, 9, 64, 200, 1, 15, 16, 17, maxCodeBits} {
		c := make([]byte, n)
		for i := range c {
			c[i] = '0' + byte(rnd.Intn(2))
		}
		codes = append(codes, bpt.Code(c))
	}
	body := cutResponse(codes...)
	resp, err := DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range resp.Index[0].Elems {
		if e.Code != codes[i] {
			t.Fatalf("code %d of %d bits came back as %q, sent %q", i, len(codes[i]), e.Code, codes[i])
		}
	}
	// Response, Index, the node's elements, the string its codes share; the
	// characters are gathered on the decoder's stack.
	if allocs := testing.AllocsPerRun(20, func() { _, _ = DecodeResponse(body) }); allocs > 4 {
		t.Fatalf("a one-node response allocates %.0f times, want 4", allocs)
	}
	// More characters in one node than that stack buffer holds.
	long := make([]bpt.Code, 40)
	for i := range long {
		long[i] = bpt.Code(strings.Repeat("1", i) + strings.Repeat("01", (maxCodeBits-i)/2))
	}
	if resp, err = DecodeResponse(cutResponse(long...)); err != nil {
		t.Fatal(err)
	}
	for i, e := range resp.Index[0].Elems {
		if e.Code != long[i] {
			t.Fatalf("code %d of a %d-code node came back as %q, sent %q", i, len(long), e.Code, long[i])
		}
	}

	// Padding: the last byte of a 9-bit code has seven unused bits. Set them.
	nine := cutResponse("101010101")
	at := bytes.Index(nine, []byte{9, 0b01010101, 0b1}) // bit count, eight bits, the ninth
	if at < 0 {
		t.Fatal("9-bit code not found in its encoding")
	}
	nine[at+2] |= 0b11111110
	if resp, err = DecodeResponse(nine); err != nil || resp.Index[0].Elems[0].Code != "101010101" {
		t.Fatalf("set padding bits changed the decode: %v, %+v", err, resp)
	}

	refused := func(name string, body []byte) {
		t.Helper()
		got := ^uint64(0)
		for try := 0; try < 3; try++ { // the least of three: other goroutines allocate too
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeResponse(body)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("%s: err = %v, want ErrDecode", name, err)
			}
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		// Elements and code characters are both bounded by the bytes present
		// (count, maxCodeBits); the error text is the constant.
		if limit := uint64(16*len(body) + 2048); got > limit {
			t.Fatalf("%s: refusing %d bytes allocated %d", name, len(body), got)
		}
	}

	// 513 bits: one more than the limit, with the bytes to back it.
	over := cutResponse(bpt.Code(strings.Repeat("1", maxCodeBits)))
	at = bytes.Index(over, binary.AppendUvarint(nil, maxCodeBits))
	over[at]++ // 512 = 0x80 0x04 -> 513 = 0x81 0x04
	refused("513-bit code", append(over, 0xFF))

	// Truncated mid-node: cut inside the second element's code bytes.
	two := cutResponse(bpt.Code(strings.Repeat("10", 40)), bpt.Code(strings.Repeat("01", 40)))
	whole := len(two)
	refused("code truncated mid-node", two[:whole-3-minRectBytes-5])

	// A lying element count: the node claims far more elements than the bytes
	// left could hold.
	lie := cutResponse("0", "1")
	at = bytes.Index(lie, []byte{3, 2, 2}) // node id, level (zigzag 1), element count
	if at < 0 {
		t.Fatal("node header not found in its encoding")
	}
	lie[at+2] = 0x7F
	refused("lying element count", lie)

	// A count the bytes could hold, of elements that are not there.
	pad := append(cutResponse("0", "1"), bytes.Repeat([]byte{0xFF}, 64*minCutElemBytes)...)
	at = bytes.Index(pad, []byte{3, 2, 2})
	pad[at+2] = 60
	refused("count beyond the elements present", pad)
}
