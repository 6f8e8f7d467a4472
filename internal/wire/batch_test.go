package wire

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// pipeServe runs a NetServer connection handler over one end of an
// in-memory pipe. net.Pipe is unbuffered, so a client that writes the
// handshake preamble and several frames in a single Write hands the server
// all of them in its first buffered read — the batch drain is deterministic,
// unlike over loopback TCP.
func pipeServe(t *testing.T, cfg ServeConfig, handle Handler) (net.Conn, *NetServer) {
	t.Helper()
	c1, c2 := net.Pipe()
	srv := NewNetServer(handle, cfg)
	if !srv.track(c2) {
		t.Fatal("track refused")
	}
	go srv.serveConn(c2)
	t.Cleanup(func() {
		c1.Close()
		srv.Close()
	})
	return c1, srv
}

// TestBatchDrainGroupsBufferedFrames pipelines a burst of requests in one
// write and checks that the server hands them to the batch handler as one
// run, answers each with its own correlation id, and counts the batch.
func TestBatchDrainGroupsBufferedFrames(t *testing.T) {
	const burst = 8
	var (
		mu     sync.Mutex
		widths []int
	)
	cfg := ServeConfig{
		HandleBatch: func(reqs []*Request) ([]*Response, []error) {
			mu.Lock()
			widths = append(widths, len(reqs))
			mu.Unlock()
			resps := make([]*Response, len(reqs))
			for i, req := range reqs {
				resps[i] = &Response{Epoch: req.Epoch}
			}
			return resps, nil
		},
	}
	client, srv := pipeServe(t, cfg, echoHandler)

	// One write: preamble plus the whole burst.
	buf := append([]byte(nil), handshakeMagic[:]...)
	for i := 0; i < burst; i++ {
		body := EncodeRequest(nil, &Request{Epoch: uint64(100 + i), Catalog: true})
		var head [4 + 1 + binary.MaxVarintLen64]byte
		n := 5 + binary.PutUvarint(head[5:], uint64(i+1))
		head[4] = frameRequest
		binary.LittleEndian.PutUint32(head[:4], uint32(n-4+len(body)))
		buf = append(buf, head[:n]...)
		buf = append(buf, body...)
	}
	writeErr := make(chan error, 1)
	go func() {
		_, err := client.Write(buf)
		writeErr <- err
	}()

	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	var ack [len(handshakeMagic)]byte
	if _, err := readFull(br, ack[:]); err != nil {
		t.Fatalf("handshake ack: %v", err)
	}
	got := map[uint64]uint64{} // correlation id -> epoch
	for i := 0; i < burst; i++ {
		typ, id, body, err := readFrame(br, new([]byte))
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if typ != frameResponse {
			t.Fatalf("response %d: frame type %d", i, typ)
		}
		resp, err := DecodeResponse(body)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		got[id] = resp.Epoch
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("client write: %v", err)
	}
	for i := 0; i < burst; i++ {
		if got[uint64(i+1)] != uint64(100+i) {
			t.Errorf("id %d answered with epoch %d, want %d", i+1, got[uint64(i+1)], 100+i)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(widths) != 1 || widths[0] != burst {
		t.Errorf("batch widths = %v, want one batch of %d", widths, burst)
	}
	snap := srv.Stats().Snapshot()
	if snap.Batches != 1 {
		t.Errorf("batches = %d, want 1", snap.Batches)
	}
	if snap.Requests != burst {
		t.Errorf("requests = %d, want %d", snap.Requests, burst)
	}
}

// TestBatchDrainRespectsPipelineCap verifies that MaxPipeline bounds a
// drained batch: a burst larger than the cap is split, never exceeding the
// configured in-flight limit per connection.
func TestBatchDrainRespectsPipelineCap(t *testing.T) {
	const burst = 6
	var (
		mu     sync.Mutex
		widths []int
	)
	cfg := ServeConfig{
		MaxPipeline: 3,
		HandleBatch: func(reqs []*Request) ([]*Response, []error) {
			mu.Lock()
			widths = append(widths, len(reqs))
			mu.Unlock()
			resps := make([]*Response, len(reqs))
			for i, req := range reqs {
				resps[i] = &Response{Epoch: req.Epoch}
			}
			return resps, nil
		},
	}
	client, _ := pipeServe(t, cfg, echoHandler)

	buf := append([]byte(nil), handshakeMagic[:]...)
	for i := 0; i < burst; i++ {
		body := EncodeRequest(nil, &Request{Epoch: uint64(i), Catalog: true})
		var head [4 + 1 + binary.MaxVarintLen64]byte
		n := 5 + binary.PutUvarint(head[5:], uint64(i+1))
		head[4] = frameRequest
		binary.LittleEndian.PutUint32(head[:4], uint32(n-4+len(body)))
		buf = append(buf, head[:n]...)
		buf = append(buf, body...)
	}
	go client.Write(buf)

	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	var ack [len(handshakeMagic)]byte
	if _, err := readFull(br, ack[:]); err != nil {
		t.Fatalf("handshake ack: %v", err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < burst; i++ {
		typ, id, _, err := readFrame(br, new([]byte))
		if err != nil || typ != frameResponse {
			t.Fatalf("response %d: type %d err %v", i, typ, err)
		}
		seen[id] = true
	}
	if len(seen) != burst {
		t.Fatalf("got %d distinct responses, want %d", len(seen), burst)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, w := range widths {
		if w > 3 {
			t.Errorf("batch of %d exceeds MaxPipeline 3", w)
		}
	}
}

// readFull is io.ReadFull over the test's buffered reader (avoids importing
// io for one call site).
func readFull(br *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := br.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
