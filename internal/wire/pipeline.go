package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ErrProtocolMismatch is returned by Dial and NewBinaryClientConn when the
// peer does not answer the handshake with a matching preamble: it hung up,
// is not a server of this protocol, or speaks another version.
var ErrProtocolMismatch = errors.New("wire: peer does not speak the binary protocol")

// Dial connects to a NetServer: TCP connect, preamble announcing role, and
// the server's ack, all under one deadline of timeout from now, which is
// cleared on success. A handshake failure is returned as it is and the
// socket closed.
func Dial(addr string, role byte, timeout time.Duration) (*BinaryClientConn, error) {
	deadline := time.Now().Add(timeout)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	_ = conn.SetDeadline(deadline)
	bc, err := NewBinaryClientConn(conn, role)
	if err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return bc, nil
}

// BinaryClientConn is a pipelined Transport over the binary protocol: any
// number of goroutines may call RoundTrip concurrently on one connection,
// each request is tagged with a fresh correlation id, and responses are
// matched back to their callers regardless of the order the server answers
// in. This is the request pipelining the paper's transmission-cost model
// rewards: one connection, many queries in flight, no head-of-line
// round-trip wait between them.
type BinaryClientConn struct {
	rw io.ReadWriter

	wmu    sync.Mutex // serializes frame writes and id assignment
	bw     *bufio.Writer
	nextID uint64
	body   []byte // request encode buffer, reused under wmu

	pmu     sync.Mutex // guards pending, waiters and connErr
	pending map[uint64]chan frameResult
	waiters []chan frameResult // free waiter channels, each empty
	connErr error
}

type frameResult struct {
	resp *Response
	err  error
}

// NewBinaryClientConn performs the binary handshake on rw, announcing role
// in the preamble (RoleClient, or RoleEdge for an edge proxy's upstream
// pool; servers ack with the plain client preamble either way), and starts
// the response reader. It returns ErrProtocolMismatch (wrapped) when the
// peer answers with anything but the expected preamble.
func NewBinaryClientConn(rw io.ReadWriter, role byte) (*BinaryClientConn, error) {
	preamble := handshakePreamble(role)
	bw := bufio.NewWriter(rw)
	if _, err := bw.Write(preamble[:]); err != nil {
		return nil, fmt.Errorf("wire: handshake send: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("wire: handshake send: %w", err)
	}
	br := bufio.NewReader(rw)
	var ack [len(handshakeMagic)]byte
	if _, err := io.ReadFull(br, ack[:]); err != nil {
		return nil, fmt.Errorf("%w: reading preamble ack: %w", ErrProtocolMismatch, err)
	}
	if !bytes.Equal(ack[:4], handshakeMagic[:4]) {
		return nil, fmt.Errorf("%w: bad preamble % x", ErrProtocolMismatch, ack)
	}
	if ack[4] != ProtoVersion {
		return nil, fmt.Errorf("%w: peer speaks version %d, want %d", ErrProtocolMismatch, ack[4], ProtoVersion)
	}
	c := &BinaryClientConn{
		rw:      rw,
		bw:      bw,
		pending: make(map[uint64]chan frameResult),
	}
	go c.readLoop(br)
	return c, nil
}

// RoundTrip implements Transport. Concurrent calls do not serialize on the
// round trip: each caller's request is framed and flushed immediately, and
// the caller only blocks until its own response arrives.
//
// A waiter channel receives exactly one value per registration — from
// deliver or from fail, whichever removes its id from pending — so once that
// value is read the channel is empty and goes back on the free list.
func (c *BinaryClientConn) RoundTrip(req *Request) (*Response, error) {
	c.wmu.Lock()
	c.pmu.Lock()
	if err := c.connErr; err != nil {
		c.pmu.Unlock()
		c.wmu.Unlock()
		return nil, err
	}
	var ch chan frameResult
	if n := len(c.waiters); n > 0 {
		ch = c.waiters[n-1]
		c.waiters = c.waiters[:n-1]
	} else {
		ch = make(chan frameResult, 1)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.pmu.Unlock()
	c.body = EncodeRequest(c.body[:0], req)
	err := writeFrame(c.bw, frameRequest, id, c.body)
	c.wmu.Unlock()
	if err != nil {
		// ch may still be receiving its value from fail: it is dropped,
		// not recycled.
		err = fmt.Errorf("wire: send request: %w", err)
		c.fail(err)
		return nil, err
	}

	res := <-ch
	c.pmu.Lock()
	c.waiters = append(c.waiters, ch)
	c.pmu.Unlock()
	return res.resp, res.err
}

// Close tears down the transport; if the underlying stream is an io.Closer
// (a net.Conn is) it is closed, which also stops the read loop. In-flight
// round trips fail with the close error.
func (c *BinaryClientConn) Close() error {
	c.fail(errors.New("wire: connection closed"))
	if cl, ok := c.rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// readLoop receives frames and correlates them to waiting callers by id.
func (c *BinaryClientConn) readLoop(br *bufio.Reader) {
	// One buffer serves every frame: a decoded Response owns its slices and
	// strings, and an error frame's text is formatted at once.
	var frame []byte
	for {
		typ, id, body, err := readFrame(br, &frame)
		if err != nil {
			c.fail(fmt.Errorf("wire: read response: %w", err))
			return
		}
		switch typ {
		case frameResponse:
			resp, derr := DecodeResponse(body)
			if derr != nil {
				// The frame boundary held, so the stream is still in
				// sync; only this request is poisoned.
				c.deliver(id, frameResult{err: fmt.Errorf("wire: decode response: %w", derr)})
				continue
			}
			c.deliver(id, frameResult{resp: resp})
		case frameError:
			msg := fmt.Errorf("wire: server error: %s", body)
			if id == 0 {
				// Connection-scoped error (e.g. the server is at its
				// connection limit): fatal for every request on this conn.
				c.fail(msg)
				return
			}
			c.deliver(id, frameResult{err: msg})
		default:
			c.fail(fmt.Errorf("wire: unexpected frame type %d", typ))
			return
		}
	}
}

// deliver hands a result to the caller waiting on id; a response for an
// unknown id is a protocol violation and poisons the connection.
func (c *BinaryClientConn) deliver(id uint64, res frameResult) {
	c.pmu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.pmu.Unlock()
	if !ok {
		c.fail(fmt.Errorf("wire: response for unknown request id %d", id))
		return
	}
	ch <- res
}

// fail marks the connection broken and unblocks every pending caller. The
// first error wins; later calls are no-ops.
func (c *BinaryClientConn) fail(err error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.connErr != nil {
		return
	}
	c.connErr = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- frameResult{err: err}
	}
}
