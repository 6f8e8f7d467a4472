package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/wire"
)

// Layers a span can belong to, outermost first. A span's parent is the layer
// one step out (the WAL's is the apply span of whichever batch it committed,
// which group commit makes many-to-one, so WAL spans carry no request).
const (
	layerClient    uint8 = iota + 1 // repro.Client.Query (mobile-tour only)
	layerTransport                  // client-side wire.Transport.RoundTrip
	layerRoute                      // cluster.Router.RoundTrip behind the NetServer
	layerShard                      // one shard call: Server.Execute / ExecuteUpdates
	layerWAL                        // BatchLog.Append or Checkpoint on a writer goroutine
)

var layerNames = [...]string{"", "core.client", "wire.transport", "cluster.route", "server.shard", "wal"}

// Request kinds.
const (
	kindQuery uint8 = iota
	kindUpdate
	kindCatalog
	kindCheckpoint // layerWAL only
)

// span is one fixed-size trace record. a and b are layer-specific counts:
// shard query spans carry visited nodes and result objects, shard update
// spans the operations acked, transport spans len(req.H), WAL spans the
// operations and bytes logged.
type span struct {
	req        uint64 // client<<32 | sequence; 0 for WAL spans
	start, end int64  // nanoseconds since tracer.base
	a, b       int32
	layer      uint8
	kind       uint8
	shard      uint8
}

func (s span) interval() interval { return interval{s.start, s.end} }
func (s span) dur() int64         { return s.end - s.start }

// tracedIDs bounds the client ids the tracer can attribute (ids 1..7).
const tracedIDs = 8

// tracer records spans into a preallocated slice. It is safe for concurrent
// use: writers claim a slot with one atomic add.
type tracer struct {
	base    time.Time
	on      atomic.Bool
	n       atomic.Int64
	dropped atomic.Int64
	spans   []span
	mem     []byte // the mapping behind spans
	// Size-model bytes of the query answers the clients received, for
	// server.index_bytes_frac.
	indexBytes, respBytes atomic.Int64
	// cur is the request each client has outstanding. The loop is closed
	// with one request in flight per client, so the client id every
	// (sub-)request carries identifies the request it belongs to.
	cur [tracedIDs]atomic.Uint64
}

// newTracer maps room for capacity spans outside the Go heap: 120 MB of live
// heap would double the collector's target and the traced pass would run
// with a fraction of the production stack's GC cycles.
func newTracer(capacity int) (*tracer, error) {
	t := &tracer{base: time.Now()}
	if capacity == 0 {
		return t, nil
	}
	mem, err := syscall.Mmap(-1, 0, capacity*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("span buffer: %w", err)
	}
	t.mem = mem
	t.spans = unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capacity) // span holds no pointers
	return t, nil
}

// free unmaps the span buffer; spans returned by recorded die with it.
func (t *tracer) free() {
	if t.mem != nil {
		syscall.Munmap(t.mem)
		t.mem, t.spans = nil, nil
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(client int, seq uint64) {
	t.cur[client].Store(uint64(client)<<32 | seq&0xffffffff)
}

func (t *tracer) current(client wire.ClientID) uint64 {
	return t.cur[client%tracedIDs].Load()
}

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

// recorded returns the spans written so far, sorted by request then layer
// then start, which is the order the analysis walks them in.
func (t *tracer) recorded() []span {
	out := t.spans[:min(t.n.Load(), int64(len(t.spans)))]
	slices.SortFunc(out, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.req, b.req), cmp.Compare(a.layer, b.layer), cmp.Compare(a.start, b.start))
	})
	return out
}

// wrapTransport records a layerTransport span around every round trip.
func (t *tracer) wrapTransport(client int, inner wire.Transport) wire.Transport {
	return wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		kind := requestKind(req)
		start := t.now()
		resp, err := inner.RoundTrip(req)
		t.add(span{req: t.cur[client].Load(), layer: layerTransport, kind: kind,
			start: start, end: t.now(), a: int32(len(req.H))})
		if err == nil && kind == kindQuery && t.on.Load() {
			m := wire.DefaultSizeModel()
			t.indexBytes.Add(int64(m.IndexBytes(resp)))
			t.respBytes.Add(int64(m.ResponseBytes(resp)))
		}
		return resp, err
	})
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	kinds := [...]string{"query", "update", "catalog", "checkpoint"}
	for _, s := range spans {
		parent := ""
		if s.layer > layerClient && s.layer < layerWAL {
			parent = layerNames[s.layer-1]
		} else if s.layer == layerWAL {
			parent = layerNames[layerShard]
		}
		fmt.Fprintf(w, `{"req":%d,"layer":%q,"parent":%q,"kind":%q,"shard":%d,"start_ns":%d,"end_ns":%d,"a":%d,"b":%d}`+"\n",
			s.req, layerNames[s.layer], parent, kinds[s.kind], s.shard, s.start, s.end, s.a, s.b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
