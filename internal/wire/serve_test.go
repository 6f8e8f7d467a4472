package wire

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoHandler answers with the request's epoch, so tests can match
// responses to requests.
func echoHandler(req *Request) (*Response, error) {
	return &Response{Epoch: req.Epoch}, nil
}

func startServer(t *testing.T, cfg ServeConfig, handle Handler) (*NetServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewNetServer(handle, cfg)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func TestNetServerConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, ServeConfig{}, echoHandler)
	const clients, perClient = 10, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bc, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer bc.Close()
			for i := 0; i < perClient; i++ {
				epoch := uint64(c*1000 + i)
				resp, err := bc.RoundTrip(&Request{Client: ClientID(c), Epoch: epoch, Catalog: true})
				if err != nil {
					errs <- err
					return
				}
				if resp.Epoch != epoch {
					t.Errorf("client %d: got epoch %d, want %d", c, resp.Epoch, epoch)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := srv.Stats().Snapshot()
	if snap.Requests != clients*perClient {
		t.Errorf("requests = %d, want %d", snap.Requests, clients*perClient)
	}
	if snap.TotalConns != clients {
		t.Errorf("total conns = %d, want %d", snap.TotalConns, clients)
	}
}

func TestNetServerShutdownTimeoutForcesClose(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	srv, addr := startServer(t, ServeConfig{}, func(req *Request) (*Response, error) {
		close(started)
		<-release
		return &Response{}, nil
	})
	bc := dialBinary(t, addr)
	go func() { _, _ = bc.RoundTrip(&Request{}) }()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown = %v, want deadline exceeded", err)
	}
}

// TestNonPreambleOpenerIsClosed: a connection that does not open with the
// handshake preamble is closed without reaching the handler, counted in
// Errors, and gives its connection token back.
func TestNonPreambleOpenerIsClosed(t *testing.T) {
	badRole, edgeRole, badVersion := handshakeMagic, handshakeMagic, handshakeMagic
	badRole[5] = 7
	edgeRole[5] = 1
	badVersion[4] = 2
	for _, tc := range []struct {
		name   string
		opener []byte
	}{
		{"http probe", []byte("GET / HTTP/1.1\r\n\r\n")},
		{"nine zero bytes", make([]byte, 9)},
		{"role byte 7", badRole[:]},
		{"retired edge role 1", edgeRole[:]},
		{"version 2", badVersion[:]},
		{"4 bytes then silence", handshakeMagic[:4]}, // reaped by ReadTimeout
	} {
		t.Run(tc.name, func(t *testing.T) {
			var handled atomic.Int64
			srv, addr := startServer(t, ServeConfig{MaxConns: 1, ReadTimeout: 100 * time.Millisecond},
				func(req *Request) (*Response, error) {
					handled.Add(1)
					return echoHandler(req)
				})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.opener); err != nil {
				t.Fatal(err)
			}
			// The server says nothing and hangs up: EOF, or a reset when it
			// closed with the opener's tail unread — never data, never a
			// timeout of ours.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 64)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read after opener = %d bytes, err %v; want the connection closed", n, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for srv.Stats().ActiveConns.Load() != 0 {
				if time.Now().After(deadline) {
					t.Fatal("ActiveConns never returned to 0")
				}
				time.Sleep(time.Millisecond)
			}
			if got := srv.Stats().Errors.Load(); got != 1 {
				t.Errorf("Errors = %d, want 1", got)
			}
			// MaxConns is 1: a valid client is served only if the token of
			// the closed connection was released.
			bc := dialBinary(t, addr)
			if resp, err := bc.RoundTrip(&Request{Epoch: 3, Catalog: true}); err != nil || resp.Epoch != 3 {
				t.Fatalf("valid client after a closed opener: resp %+v, err %v", resp, err)
			}
			if got := handled.Load(); got != 1 {
				t.Errorf("handler ran %d times, want 1 (the valid client only)", got)
			}
		})
	}
}
