package wire

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// NetServer runs the wire protocol on a listener with the concerns a real
// deployment needs: a goroutine per connection behind a connection limit, a
// bounded pool of concurrently executing requests (so a burst of thousands
// of connections cannot stampede the query engine), per-request read
// deadlines that reap idle connections, live serving statistics, and a
// graceful Shutdown that stops accepting, lets in-flight requests finish,
// and then closes everything.
//
// A connection must open with the binary handshake preamble and then gets
// framed, pipelined, out-of-order service (many requests in flight per
// connection, responses correlated by id); anything else is closed. The
// connection's goroutine only reads frames: each request executes on a
// worker goroutine that outlives it and parks for the next one, so a
// request starts on a stack an earlier request already grew (docs/PERF.md,
// "Dispatch path").

// Handler processes one request on the server side.
type Handler func(*Request) (*Response, error)

// Defaults applied by NewNetServer when a ServeConfig field is zero.
const (
	// DefaultMaxConns bounds concurrently open client connections.
	DefaultMaxConns = 4096
	// DefaultReadTimeout reaps connections idle for this long between
	// requests.
	DefaultReadTimeout = 5 * time.Minute
	// DefaultMaxPipeline bounds requests in flight on one binary
	// connection before the server stops reading further frames from it
	// (natural backpressure against a client that pipelines faster than
	// the server answers).
	DefaultMaxPipeline = 64
)

// Accept retry backoff, as net/http.Server uses: a transient accept error
// (EMFILE, ENFILE, ECONNABORTED) is retried after acceptBackoffMin, doubling
// on each consecutive failure up to acceptBackoffMax.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// ErrServerClosed is returned by NetServer.Serve after Shutdown or Close.
var ErrServerClosed = errors.New("wire: server closed")

// respBodyPool recycles binary response encode buffers: a frame body is
// dead as soon as writeFrame copies it into the connection's bufio writer.
var respBodyPool = sync.Pool{New: func() any { return new([]byte) }}

// ServeConfig parameterizes a NetServer.
type ServeConfig struct {
	// MaxConns is the maximum number of concurrently open connections;
	// connections beyond it are sent an error frame and closed.
	// Default DefaultMaxConns. Negative means unlimited.
	MaxConns int
	// MaxInflight bounds requests executing at once across all
	// connections, and how many idle request workers stay parked between
	// requests. Default 4*GOMAXPROCS. Negative means unlimited, with
	// 4*GOMAXPROCS workers kept parked.
	MaxInflight int
	// MaxPipeline bounds requests in flight on one binary connection;
	// when reached the server stops reading frames from that connection
	// until a response is written. Default DefaultMaxPipeline. Negative
	// means unlimited.
	MaxPipeline int
	// ReadTimeout is how long a connection may sit idle between requests
	// before it is closed. Default DefaultReadTimeout. Negative disables
	// the deadline.
	ReadTimeout time.Duration
	// Stats receives serving counters; nil allocates a private one.
	Stats *metrics.ServerStats
	// Release, when set, is called with each response after its bytes are
	// on the wire, letting a pooling handler (server.ReleaseResponse)
	// recycle response memory. The server must not touch a response after
	// releasing it.
	Release func(*Response)
}

// NetServer is a concurrent wire-protocol server. Create one with
// NewNetServer; Serve blocks until the listener is closed or Shutdown/Close is
// called.
type NetServer struct {
	handle  Handler
	cfg     ServeConfig
	stats   *metrics.ServerStats
	sem     chan struct{} // in-flight request tokens; nil = unlimited
	connSem chan struct{} // connection tokens; nil = unlimited

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool
	wg       sync.WaitGroup // live connection handlers

	workers workerPool
}

// NewNetServer builds a server around a request handler.
func NewNetServer(handle Handler, cfg ServeConfig) *NetServer {
	if cfg.MaxConns == 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxPipeline == 0 {
		cfg.MaxPipeline = DefaultMaxPipeline
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	s := &NetServer{
		handle: handle,
		cfg:    cfg,
		stats:  cfg.Stats,
		conns:  make(map[net.Conn]struct{}),
	}
	if s.stats == nil {
		s.stats = &metrics.ServerStats{}
	}
	s.workers.maxIdle = cfg.MaxInflight
	if cfg.MaxInflight < 0 {
		s.workers.maxIdle = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.MaxConns > 0 {
		s.connSem = make(chan struct{}, cfg.MaxConns)
	}
	return s
}

// Stats returns the server's counters (live; snapshot before printing).
func (s *NetServer) Stats() *metrics.ServerStats { return s.stats }

// Serve accepts connections on ln until the listener is closed or the server
// is shut down, in which case it returns ErrServerClosed. Any other accept
// error (running out of file descriptors, a connection aborted before it
// was accepted) is counted in Errors and retried after a backoff.
func (s *NetServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.shuttingDown() {
				return ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			s.stats.Errors.Add(1)
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.stats.TotalConns.Add(1)

		if s.connSem != nil {
			select {
			case s.connSem <- struct{}{}:
			default:
				s.stats.RejectedConns.Add(1)
				go rejectConn(conn)
				continue
			}
		}
		if !s.track(conn) {
			if s.connSem != nil {
				<-s.connSem
			}
			conn.Close()
			continue
		}
		go s.serveConn(conn)
	}
}

// rejectConn tells a client that opened with the preamble that the server
// is full, then hangs up; any other opener is just closed.
func rejectConn(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReaderSize(conn, len(handshakeMagic))
	if isBinary, err := sniffBinary(br); err != nil || !isBinary {
		return
	}
	bw := bufio.NewWriter(conn)
	if _, err := bw.Write(handshakeMagic[:]); err != nil {
		return
	}
	// Error frame id 0 is connection-scoped: the client fails every
	// round trip on this connection with the message.
	_ = writeFrame(bw, frameError, 0, []byte("server at connection limit"))
}

// track registers a live connection; it refuses during shutdown. The
// WaitGroup increment happens under the same lock that Shutdown takes to
// set the flag, so Shutdown can never observe a tracked-but-uncounted
// connection.
func (s *NetServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *NetServer) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *NetServer) shuttingDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdown
}

// countingConn counts bytes crossing the socket into the serving stats,
// underneath any buffering.
type countingConn struct {
	net.Conn
	stats *metrics.ServerStats
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.stats.BytesIn.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.stats.BytesOut.Add(int64(n))
	return n, err
}

// serveConn reads the handshake preamble under the read deadline and runs
// the request loop. A connection that opens with anything else — an HTTP
// probe, a port scanner, an unknown role or version — is counted in
// Errors and closed without decoding a byte of it; one that sends nothing
// at all is closed quietly.
func (s *NetServer) serveConn(conn net.Conn) {
	s.stats.ActiveConns.Add(1)
	defer func() {
		s.untrack(conn)
		conn.Close()
		if s.connSem != nil {
			<-s.connSem
		}
		s.stats.ActiveConns.Add(-1)
		s.wg.Done()
	}()

	cc := countingConn{Conn: conn, stats: s.stats}
	br := bufio.NewReader(cc)
	if s.cfg.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}
	isBinary, err := sniffBinary(br)
	if err != nil || !isBinary {
		if br.Buffered() > 0 {
			s.stats.Errors.Add(1)
		}
		return
	}
	s.serveBinary(conn, cc, br)
}

// serveBinary is the pipelined request loop: frames are read as fast as they
// arrive (up to MaxPipeline in flight), each request executes on a worker
// goroutine gated by the shared in-flight limit, and responses are written
// in completion order tagged with the request's correlation id.
func (s *NetServer) serveBinary(conn net.Conn, cc countingConn, br *bufio.Reader) {
	bw := bufio.NewWriter(cc)
	if _, err := bw.Write(handshakeMagic[:]); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	var (
		wmu         sync.Mutex
		workers     sync.WaitGroup
		inflight    atomic.Int64
		writeFailed atomic.Bool
	)
	// Let in-flight handlers finish and their responses drain before
	// serveConn's deferred Close tears the connection down.
	defer workers.Wait()

	var pipeSem chan struct{}
	if s.cfg.MaxPipeline > 0 {
		pipeSem = make(chan struct{}, s.cfg.MaxPipeline)
	}

	writeResp := func(typ byte, id uint64, body []byte) bool {
		wmu.Lock()
		defer wmu.Unlock()
		if writeFailed.Load() {
			return false
		}
		if s.cfg.ReadTimeout > 0 {
			// Bound how long a stalled client can wedge response writers.
			_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		if err := writeFrame(bw, typ, id, body); err != nil {
			writeFailed.Store(true)
			return false
		}
		return true
	}

	var frame []byte // the connection's: DecodeRequest copies whatever it keeps
	for {
		if s.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		if s.shuttingDown() || writeFailed.Load() {
			return
		}
		// Idle wait: Peek consumes nothing, so a deadline here leaves the
		// stream intact and the loop can keep waiting while responses for
		// pipelined requests are still in flight. Once a frame has begun
		// to arrive it must complete within the read timeout.
		if _, err := br.Peek(1); err != nil {
			if isTimeout(err) && inflight.Load() > 0 && !s.shuttingDown() {
				continue
			}
			return
		}
		typ, id, body, err := readFrame(br, &frame)
		if err != nil {
			return
		}
		if typ != frameRequest {
			writeResp(frameError, 0, []byte("unexpected frame type"))
			return
		}
		req, err := DecodeRequest(body)
		if err != nil {
			// Frame boundaries held; the stream is still in sync.
			s.stats.Errors.Add(1)
			if !writeResp(frameError, id, []byte(err.Error())) {
				return
			}
			continue
		}

		if pipeSem != nil {
			pipeSem <- struct{}{}
		}
		workers.Add(1)
		inflight.Add(1)
		s.workers.run(func() {
			defer func() {
				inflight.Add(-1)
				workers.Done()
				if pipeSem != nil {
					<-pipeSem
				}
			}()
			if s.sem != nil {
				s.sem <- struct{}{}
			}
			start := time.Now()
			resp, err := s.handle(req)
			s.stats.Latency.Observe(time.Since(start))
			if s.sem != nil {
				<-s.sem
			}
			s.stats.Requests.Add(1)
			if err != nil {
				s.stats.Errors.Add(1)
				writeResp(frameError, id, []byte(err.Error()))
				return
			}
			// Encode into a pooled buffer, hand the response back to the
			// application, write the frame.
			body := respBodyPool.Get().(*[]byte)
			*body = EncodeResponse((*body)[:0], resp)
			if s.cfg.Release != nil {
				s.cfg.Release(resp)
			}
			writeResp(frameResponse, id, *body)
			respBodyPool.Put(body)
		})
	}
}

// workerPool runs request closures on goroutines that park between
// requests. A fresh goroutine starts on a 2 KB stack, which a handler as
// deep as a query's Execute grows by copying on every call; a parked worker
// keeps the stack its last request grew. The pool admits nothing: the in-flight limit and the
// pipeline cap are taken inside and around the closure, so run never blocks
// and never refuses.
type workerPool struct {
	maxIdle int // parked workers kept; a worker beyond it exits

	mu     sync.Mutex
	idle   []chan func() // parked workers, most recently parked last
	closed bool
}

// run hands f to the most recently parked worker, or starts a goroutine for
// it when none is parked.
func (p *workerPool) run(f func()) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		w <- f
		return
	}
	p.mu.Unlock()
	go p.work(f)
}

// work runs f, then parks for the next closure until the pool is closed or
// already keeps maxIdle parked workers.
func (p *workerPool) work(f func()) {
	next := make(chan func(), 1)
	for {
		f()
		p.mu.Lock()
		if p.closed || len(p.idle) >= p.maxIdle {
			p.mu.Unlock()
			return
		}
		p.idle = append(p.idle, next)
		p.mu.Unlock()
		if f = <-next; f == nil {
			return
		}
	}
}

// close stops every parked worker; a worker still running a request exits
// once it is done instead of parking.
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, w := range idle {
		close(w)
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Shutdown gracefully stops the server: it closes the listener, nudges idle
// connections awake, waits for in-flight requests to be answered, and then
// closes the remaining connections. If ctx expires first, lingering
// connections are force-closed and ctx.Err() is returned.
func (s *NetServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	if s.ln != nil {
		s.ln.Close()
	}
	// Interrupt reads blocked waiting for the next request. A connection
	// mid-request keeps running: its handler finishes and the response is
	// written before the loop notices the shutdown flag.
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.workers.close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-close the sockets and give up: a handler stuck in
		// user code cannot be interrupted, so waiting further could
		// block forever (same contract as net/http.Server.Shutdown).
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// Close immediately closes the listener and every connection without
// waiting for in-flight requests.
func (s *NetServer) Close() error {
	s.mu.Lock()
	s.shutdown = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.workers.close()
	return err
}
