package repro

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// badPeers accept a connection, read the client's preamble, and then never
// complete the handshake; each holds the connection until the test ends
// unless hanging up is its point.
var badPeers = []struct {
	name   string
	answer func(net.Conn)
	want   error
	fast   bool // fails without waiting out the dial's deadline
}{
	{"hangs up", func(c net.Conn) { c.Close() }, wire.ErrProtocolMismatch, true},
	{"acks version 2", func(c net.Conn) {
		_, _ = c.Write([]byte{0xF8, 'P', 'R', 'W', 2, 0, 0, 0, 0})
	}, wire.ErrProtocolMismatch, true},
	{"stays silent", func(net.Conn) {}, os.ErrDeadlineExceeded, false},
}

// listenBadPeer serves answer on addr until the test ends.
func listenBadPeer(t *testing.T, addr string, answer func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var preamble [9]byte
				if _, err := io.ReadFull(c, preamble[:]); err != nil {
					return
				}
				answer(c)
				<-done
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDialReportsHandshakeFailure: a peer that never shakes hands fails
// the dial, with the handshake's own error and inside the dial's bound,
// through every dialer: wire.Dial, repro.Dial, and the redial of a
// cluster.Dial router whose shard was replaced by such a peer.
func TestDialReportsHandshakeFailure(t *testing.T) {
	const bound = 200 * time.Millisecond
	check := func(t *testing.T, what string, want error, start time.Time, tr Transport, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s returned (%T, nil) for a peer that never shook hands", what, tr)
		}
		if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", what, err, want)
		}
		if d := time.Since(start); d > 10*bound {
			t.Errorf("%s took %v", what, d)
		}
	}
	for _, bp := range badPeers {
		t.Run(bp.name, func(t *testing.T) {
			addr := listenBadPeer(t, "127.0.0.1:0", bp.answer)
			start := time.Now()
			bc, err := wire.Dial(addr, wire.RoleClient, bound)
			check(t, "wire.Dial", bp.want, start, bc, err)
			if bp.fast { // repro.Dial's bound is 10 s
				start = time.Now()
				tr, err := Dial(addr)
				check(t, "repro.Dial", bp.want, start, tr, err)
			}

			// A live shard, a router dialed to it, then the bad peer takes
			// over the shard's address: every redial must fail, so the
			// router keeps reporting the shard down.
			srv := NewServer(testObjects()[:300], ServerConfig{})
			defer srv.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ns := srv.NetServer(ServeOptions{})
			go func() { _ = ns.Serve(ln) }()
			router, err := cluster.Dial([]string{ln.Addr().String()}, cluster.Config{
				HandshakeTimeout: bound,
				FailThreshold:    1,
				RetryBackoff:     time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			req := &wire.Request{Client: 1, Q: NewKNN(Pt(0.5, 0.5), 2)}
			if _, err := router.RoundTrip(req); err != nil {
				t.Fatalf("query through the live shard: %v", err)
			}
			ns.Close()
			listenBadPeer(t, ln.Addr().String(), bp.answer)
			if _, err := router.RoundTrip(req); err == nil {
				t.Error("query succeeded with the shard replaced by a peer that never shakes hands")
			}
			if n := router.Stats().Snapshot().PerShard[0].Redials; n != 0 {
				t.Errorf("router counted %d successful redials to a peer that never shook hands", n)
			}
		})
	}
}
