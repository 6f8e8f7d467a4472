package wire

import (
	"bufio"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func dialBinary(t *testing.T, addr string) *BinaryClientConn {
	t.Helper()
	bc, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	return bc
}

func TestBinaryRoundTripNetServer(t *testing.T) {
	srv, addr := startServer(t, ServeConfig{}, echoHandler)
	bc := dialBinary(t, addr)
	resp, err := bc.RoundTrip(&Request{Epoch: 99, Catalog: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 99 {
		t.Fatalf("epoch = %d, want 99", resp.Epoch)
	}
	snap := srv.Stats().Snapshot()
	if snap.Requests != 1 {
		t.Errorf("requests = %d, want 1", snap.Requests)
	}
	if snap.BytesIn == 0 || snap.BytesOut == 0 {
		t.Errorf("byte counters not populated: in=%d out=%d", snap.BytesIn, snap.BytesOut)
	}
}

// TestPipelinedClientsCorrelateResponses is the pipelined counterpart of
// TestNetServerConcurrentClients: several clients, each with one connection
// shared by several goroutines, many requests in flight at once. The
// handler's response echoes the request epoch, so any mis-correlated
// response is caught. Run under -race this exercises the whole pipelined
// path: concurrent frame writes, out-of-order completion, response routing.
func TestPipelinedClientsCorrelateResponses(t *testing.T) {
	// Stagger handler latency by epoch parity so completion order actually
	// scrambles relative to issue order.
	srv, addr := startServer(t, ServeConfig{}, func(req *Request) (*Response, error) {
		if req.Epoch%3 == 0 {
			time.Sleep(time.Duration(req.Epoch%5) * time.Millisecond)
		}
		return &Response{Epoch: req.Epoch}, nil
	})

	const clients, workers, perWorker = 4, 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients*workers)
	for c := 0; c < clients; c++ {
		bc := dialBinary(t, addr)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(c, w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					epoch := uint64(c*1_000_000 + w*1_000 + i)
					resp, err := bc.RoundTrip(&Request{Epoch: epoch, Catalog: true})
					if err != nil {
						errs <- err
						return
					}
					if resp.Epoch != epoch {
						t.Errorf("client %d worker %d: got epoch %d, want %d", c, w, resp.Epoch, epoch)
						return
					}
				}
			}(c, w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := srv.Stats().Snapshot()
	if want := int64(clients * workers * perWorker); snap.Requests != want {
		t.Errorf("requests = %d, want %d", snap.Requests, want)
	}
	if snap.TotalConns != clients {
		t.Errorf("total conns = %d, want %d (one pipelined conn per client)", snap.TotalConns, clients)
	}
}

// TestOutOfOrderCompletion proves responses really overtake each other on
// one connection: a slow request issued first must finish after a fast
// request issued second.
func TestOutOfOrderCompletion(t *testing.T) {
	slowArrived := make(chan struct{})
	release := make(chan struct{})
	_, addr := startServer(t, ServeConfig{}, func(req *Request) (*Response, error) {
		if req.Epoch == 1 {
			close(slowArrived)
			<-release
		}
		return &Response{Epoch: req.Epoch}, nil
	})
	bc := dialBinary(t, addr)

	slowDone := make(chan error, 1)
	go func() {
		_, err := bc.RoundTrip(&Request{Epoch: 1})
		slowDone <- err
	}()
	<-slowArrived

	// The slow request is parked inside its handler; a second request on
	// the same connection must complete around it.
	if _, err := bc.RoundTrip(&Request{Epoch: 2}); err != nil {
		t.Fatalf("fast request behind a parked one: %v", err)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow request finished before release (err=%v)", err)
	default:
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow request: %v", err)
	}
}

// TestMaxPipelineBackpressure: with MaxPipeline 1 the server stops reading
// past one in-flight request, but every request still completes once the
// pipeline drains.
func TestMaxPipelineBackpressure(t *testing.T) {
	_, addr := startServer(t, ServeConfig{MaxPipeline: 1}, func(req *Request) (*Response, error) {
		time.Sleep(time.Millisecond)
		return &Response{Epoch: req.Epoch}, nil
	})
	bc := dialBinary(t, addr)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := bc.RoundTrip(&Request{Epoch: uint64(i)})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if resp.Epoch != uint64(i) {
				t.Errorf("request %d: got epoch %d", i, resp.Epoch)
			}
		}(i)
	}
	wg.Wait()
}

func TestBinaryConnLimitReject(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv, addr := startServer(t, ServeConfig{MaxConns: 1}, func(req *Request) (*Response, error) {
		<-block
		return &Response{}, nil
	})
	first := dialBinary(t, addr)
	go func() { _, _ = first.RoundTrip(&Request{Catalog: true}) }()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().ActiveConns.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first connection never became active")
		}
		time.Sleep(time.Millisecond)
	}

	// The handshake itself succeeds (the reject path acks the preamble so
	// it can deliver a structured error) and the first round trip carries
	// the connection-scoped rejection.
	bc, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("handshake with full server: %v", err)
	}
	defer bc.Close()
	if _, err := bc.RoundTrip(&Request{Catalog: true}); err == nil ||
		!strings.Contains(err.Error(), "connection limit") {
		t.Fatalf("round trip on full server = %v, want connection limit rejection", err)
	}
	if got := srv.Stats().RejectedConns.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

func TestBinaryIdleTimeout(t *testing.T) {
	_, addr := startServer(t, ServeConfig{ReadTimeout: 50 * time.Millisecond}, echoHandler)
	bc := dialBinary(t, addr)
	if _, err := bc.RoundTrip(&Request{Catalog: true}); err != nil {
		t.Fatalf("warm request: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	if _, err := bc.RoundTrip(&Request{Catalog: true}); err == nil {
		t.Fatal("request after idle timeout should fail: server must have hung up")
	}
}

// TestBinaryInflightSurvivesIdleTimeout: a connection waiting on a slow
// handler is busy, not idle — the read deadline must not reap it while a
// request is in flight.
func TestBinaryInflightSurvivesIdleTimeout(t *testing.T) {
	_, addr := startServer(t, ServeConfig{ReadTimeout: 50 * time.Millisecond}, func(req *Request) (*Response, error) {
		time.Sleep(250 * time.Millisecond) // several idle timeouts long
		return &Response{Epoch: req.Epoch}, nil
	})
	bc := dialBinary(t, addr)
	resp, err := bc.RoundTrip(&Request{Epoch: 5})
	if err != nil {
		t.Fatalf("slow request reaped by idle timeout: %v", err)
	}
	if resp.Epoch != 5 {
		t.Fatalf("epoch = %d, want 5", resp.Epoch)
	}
}

// TestBinaryShutdownDrains: a request parked in its handler is answered
// before Shutdown returns, and no new connection is served meanwhile.
func TestBinaryShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv, addr := startServer(t, ServeConfig{}, func(req *Request) (*Response, error) {
		if !req.Catalog {
			close(started)
			<-release
		}
		return &Response{Epoch: req.Epoch}, nil
	})
	bc := dialBinary(t, addr)
	if _, err := bc.RoundTrip(&Request{Catalog: true}); err != nil {
		t.Fatal(err)
	}
	inflight := make(chan error, 1)
	go func() {
		resp, err := bc.RoundTrip(&Request{Epoch: 42})
		if err == nil && resp.Epoch != 42 {
			t.Errorf("drained response epoch = %d, want 42", resp.Epoch)
		}
		inflight <- err
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	// Accept may race with the listener close; what matters is that a
	// round trip on a new connection cannot succeed while draining.
	if late, err := Dial(addr, time.Second); err == nil {
		if _, err := late.RoundTrip(&Request{Catalog: true}); err == nil {
			t.Error("round trip on a new connection succeeded during shutdown")
		}
		late.Close()
	}
	release <- struct{}{}
	if err := <-inflight; err != nil {
		t.Errorf("in-flight pipelined request was not drained: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestBinaryDecodeErrorKeepsConnAlive: a garbage request body inside a
// well-formed frame yields an error frame for that id, and the connection
// keeps serving.
func TestBinaryDecodeErrorKeepsConnAlive(t *testing.T) {
	_, addr := startServer(t, ServeConfig{}, echoHandler)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if _, err := bw.Write(handshakeMagic[:]); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var ack [len(handshakeMagic)]byte
	if _, err := io.ReadFull(br, ack[:]); err != nil {
		t.Fatal(err)
	}

	if err := writeFrame(bw, frameRequest, 1, []byte{0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	typ, id, _, err := readFrame(br, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameError || id != 1 {
		t.Fatalf("garbage body: got frame type %d id %d, want error frame id 1", typ, id)
	}

	if err := writeFrame(bw, frameRequest, 2, EncodeRequest(nil, &Request{Epoch: 8, Catalog: true})); err != nil {
		t.Fatal(err)
	}
	typ, id, body, err := readFrame(br, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(body)
	if err != nil || typ != frameResponse || id != 2 || resp.Epoch != 8 {
		t.Fatalf("connection did not survive decode error: typ=%d id=%d err=%v", typ, id, err)
	}
}
