package wire

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// parked reports how many workers are waiting for a request.
func (p *workerPool) parked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// eventually polls cond until it holds or a second has passed.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("after 1s: %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBurstParksBoundedWorkers runs a 64-request burst on 64 concurrent
// workers with the in-flight limit off. Afterwards at most 4×GOMAXPROCS of
// them stay parked, and the next request runs on one of those instead of a
// fresh goroutine.
func TestBurstParksBoundedWorkers(t *testing.T) {
	const burst = 64
	maxIdle := 4 * runtime.GOMAXPROCS(0)
	if maxIdle >= burst {
		t.Skipf("GOMAXPROCS %d parks the whole burst", runtime.GOMAXPROCS(0))
	}
	var (
		srv          *NetServer
		arrived      atomic.Int64
		all          = make(chan struct{})
		parkedDuring atomic.Int64
	)
	srv, addr := startServer(t, ServeConfig{MaxInflight: -1}, func(req *Request) (*Response, error) {
		if req.Catalog {
			parkedDuring.Store(int64(srv.workers.parked()))
			return &Response{Epoch: req.Epoch}, nil
		}
		if arrived.Add(1) == burst {
			close(all)
		}
		<-all // every request of the burst holds its own worker
		return &Response{Epoch: req.Epoch}, nil
	})
	bc := dialBinary(t, addr)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if resp, err := bc.RoundTrip(&Request{Epoch: uint64(i)}); err != nil || resp.Epoch != uint64(i) {
				t.Errorf("request %d: resp %v, err %v", i, resp, err)
			}
		}(i)
	}
	wg.Wait()
	eventually(t, "the burst's workers did not settle", func() bool { return srv.workers.parked() == maxIdle })

	if _, err := bc.RoundTrip(&Request{Catalog: true}); err != nil {
		t.Fatal(err)
	}
	if got := parkedDuring.Load(); got != int64(maxIdle-1) {
		t.Errorf("%d workers parked while a request ran, want %d: it did not take a parked worker", got, maxIdle-1)
	}
	eventually(t, "the worker did not park again", func() bool { return srv.workers.parked() == maxIdle })
}

// TestStopReleasesWorkers: once Shutdown or Close has returned and the
// client is gone, every goroutine the server started, parked workers
// included, exits.
func TestStopReleasesWorkers(t *testing.T) {
	for _, stop := range []struct {
		name string
		fn   func(*NetServer) error
	}{
		{"Shutdown", func(s *NetServer) error { return s.Shutdown(context.Background()) }},
		{"Close", (*NetServer).Close},
	} {
		t.Run(stop.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewNetServer(echoHandler, ServeConfig{})
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()
			bc, err := Dial(ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if _, err := bc.RoundTrip(&Request{Epoch: uint64(i)}); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
			eventually(t, "no worker parked", func() bool { return srv.workers.parked() > 0 })
			if err := stop.fn(srv); err != nil {
				t.Fatal(err)
			}
			if err := <-served; err != ErrServerClosed {
				t.Fatalf("Serve returned %v, want ErrServerClosed", err)
			}
			bc.Close()
			eventually(t, "goroutines outlived the server", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// failingListener fails its first fails accepts with EMFILE, the error a
// process out of file descriptors gets, then accepts normally.
type failingListener struct {
	net.Listener
	fails int
}

func (l *failingListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestAcceptErrorRetried: running out of file descriptors is transient; the
// server counts each failed accept, backs off and keeps accepting.
func TestAcceptErrorRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewNetServer(echoHandler, ServeConfig{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(&failingListener{Listener: ln, fails: 2}) }()
	defer srv.Close()

	bc, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial after two failed accepts: %v", err)
	}
	defer bc.Close()
	if resp, err := bc.RoundTrip(&Request{Epoch: 5}); err != nil || resp.Epoch != 5 {
		t.Fatalf("round trip: resp %v, err %v", resp, err)
	}
	if got := srv.Stats().Snapshot().Errors; got != 2 {
		t.Errorf("errors = %d, want 2 (one per failed accept)", got)
	}
	srv.Close()
	if err := <-served; err != ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestRoundTripAllocBudget pins what one warm round trip over loopback
// allocates, client and server together, against a handler that returns a
// prebuilt response: the decoded Request and the closure that carries it to
// a worker on the server, the decoded Response on the client. The waiter
// channel and the request encode buffer belong to the connection, and a
// frame header is built in the writer's buffer, so none of them costs an
// allocation once the connection is warm (11 allocations before they did).
func TestRoundTripAllocBudget(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "req_range-fresh.bin"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	static := &Response{Epoch: 7}
	_, addr := startServer(t, ServeConfig{}, func(*Request) (*Response, error) { return static, nil })
	bc := dialBinary(t, addr)
	for i := 0; i < 10; i++ {
		if _, err := bc.RoundTrip(req); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := bc.RoundTrip(req); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 3
	if allocs > budget {
		t.Fatalf("a warm round trip allocates %.1f times, budget %d", allocs, budget)
	}
}

// deepStack recurses through frames of about 1 KB each.
//
//go:noinline
func deepStack(n int) int {
	var pad [1000]byte
	pad[n%len(pad)] = byte(n)
	if n == 0 {
		return int(pad[0])
	}
	return deepStack(n-1) + int(pad[(n*7)%len(pad)])
}

// BenchmarkServeDeepHandler times serial round trips on one loopback
// connection to a handler that needs about 32 KB of stack, the depth a
// query's Execute reaches. A request that starts on a fresh goroutine pays
// for growing its stack to that depth.
func BenchmarkServeDeepHandler(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewNetServer(func(req *Request) (*Response, error) {
		return &Response{Epoch: uint64(deepStack(32))}, nil
	}, ServeConfig{})
	go srv.Serve(ln)
	defer srv.Close()
	bc, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer bc.Close()
	req := &Request{Catalog: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.RoundTrip(req); err != nil {
			b.Fatal(err)
		}
	}
}
