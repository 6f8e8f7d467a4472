package wire

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// pipeServe runs a NetServer connection handler over one end of an
// in-memory pipe. net.Pipe is unbuffered, so a client that writes the
// handshake preamble and several frames in a single Write hands the server
// all of them in its first buffered read — the burst is deterministic,
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

// sendBurst writes the preamble and n catalog requests in one Write — request
// i under correlation id i+1 with epoch epoch0+i — reads the handshake ack,
// and returns the reader the responses arrive on.
func sendBurst(t *testing.T, client net.Conn, n int, epoch0 uint64) *bufio.Reader {
	t.Helper()
	buf := append([]byte(nil), handshakeMagic[:]...)
	for i := 0; i < n; i++ {
		body := EncodeRequest(nil, &Request{Epoch: epoch0 + uint64(i), Catalog: true})
		var head [4 + 1 + binary.MaxVarintLen64]byte
		hn := 5 + binary.PutUvarint(head[5:], uint64(i+1))
		head[4] = frameRequest
		binary.LittleEndian.PutUint32(head[:4], uint32(hn-4+len(body)))
		buf = append(buf, head[:hn]...)
		buf = append(buf, body...)
	}
	go client.Write(buf)

	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	var ack [len(handshakeMagic)]byte
	if _, err := io.ReadFull(br, ack[:]); err != nil {
		t.Fatalf("handshake ack: %v", err)
	}
	return br
}

// TestBurstAnsweredPerRequest pipelines a burst of requests in one write and
// checks that each is answered under its own correlation id with its own
// epoch, and that every one is counted.
func TestBurstAnsweredPerRequest(t *testing.T) {
	const burst = 8
	client, srv := pipeServe(t, ServeConfig{}, echoHandler)
	br := sendBurst(t, client, burst, 100)

	got := map[uint64]uint64{} // correlation id -> epoch
	for i := 0; i < burst; i++ {
		typ, id, body, err := readFrame(br, new([]byte))
		if err != nil || typ != frameResponse {
			t.Fatalf("response %d: type %d err %v", i, typ, err)
		}
		resp, err := DecodeResponse(body)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		got[id] = resp.Epoch
	}
	for i := 0; i < burst; i++ {
		if got[uint64(i+1)] != uint64(100+i) {
			t.Errorf("id %d answered with epoch %d, want %d", i+1, got[uint64(i+1)], 100+i)
		}
	}
	if n := srv.Stats().Snapshot().Requests; n != burst {
		t.Errorf("requests = %d, want %d", n, burst)
	}
}

// TestBurstRespectsPipelineCap sends a burst twice MaxPipeline long to a
// handler that holds each request briefly, and checks that no more than
// MaxPipeline requests ever execute at once on the connection while every
// one is still answered.
func TestBurstRespectsPipelineCap(t *testing.T) {
	const burst, limit = 6, 3
	var running, peak atomic.Int64
	slow := func(req *Request) (*Response, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		running.Add(-1)
		return echoHandler(req)
	}
	client, _ := pipeServe(t, ServeConfig{MaxPipeline: limit, MaxInflight: -1}, slow)
	br := sendBurst(t, client, burst, 0)

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
	if p := peak.Load(); p > limit {
		t.Errorf("peak concurrent executions = %d, exceeds MaxPipeline %d", p, limit)
	}
}
