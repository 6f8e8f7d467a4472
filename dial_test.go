package repro

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

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

// listenBadPeer serves answer on a loopback port until the test ends.
func listenBadPeer(t *testing.T, answer func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
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
// through every dialer: wire.Dial and repro.Dial.
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
			addr := listenBadPeer(t, bp.answer)
			start := time.Now()
			bc, err := wire.Dial(addr, bound)
			check(t, "wire.Dial", bp.want, start, bc, err)
			if bp.fast { // repro.Dial's bound is 10 s
				start = time.Now()
				tr, err := Dial(addr)
				check(t, "repro.Dial", bp.want, start, tr, err)
			}
		})
	}
}
