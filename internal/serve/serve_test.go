package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// start binds a loopback listener and serves cfg on it, counting ingest
// under "read"/"shed", on the wall clock unless cfg brings its own, and
// echoing every command's first field unless cfg brings its own dispatch. The listener is shut down at test end unless
// the test already stopped it.
func start(t *testing.T, cfg Config) (*Listener, *obs.Group) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counts := obs.NewRegistry().Group("serve_test_total", "test ingest counts", "event", "read", "shed")
	cfg.Counters, cfg.Read, cfg.Shed = counts, "read", "shed"
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Datagram == nil {
		cfg.Datagram = func([]byte) {}
	}
	if cfg.Command == nil {
		cfg.Command = func(fields []string) (any, bool) { return fields[0], false }
	}
	l.Serve(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		l.Shutdown(ctx, func() {})
	})
	return l, counts
}

// send fires datagrams at the listener's ingest socket.
func send(t *testing.T, l *Listener, payloads ...string) {
	t.Helper()
	conn, err := net.Dial("udp", l.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, p := range payloads {
		if _, err := conn.Write([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// client is one query connection with a line reader.
type client struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dial(t *testing.T, l *Listener) *client {
	t.Helper()
	conn, err := net.Dial("tcp", l.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &client{conn: conn, rd: bufio.NewReader(conn)}
}

func (c *client) send(t *testing.T, line string) {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatal(err)
	}
}

func (c *client) line(t *testing.T) string {
	t.Helper()
	line, err := c.rd.ReadString('\n')
	if err != nil {
		t.Fatalf("reading a reply line: %v (got %q)", err, line)
	}
	return line
}

// expectEOF fails unless the listener has closed the connection with
// nothing more to read.
func (c *client) expectEOF(t *testing.T) {
	t.Helper()
	if line, err := c.rd.ReadString('\n'); !errors.Is(err, io.EOF) || line != "" {
		t.Fatalf("read %q, %v; want the listener to have hung up", line, err)
	}
}

func openConns(l *Listener) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// liveConns counts the listener's connections not yet closed.
func liveConns(l *Listener) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	live := 0
	for conn := range l.conns {
		rc, err := conn.(*net.TCPConn).SyscallConn()
		if err == nil && rc.Control(func(uintptr) {}) == nil {
			live++
		}
	}
	return live
}

// TestIngestShedsOldestWhileWorkerHeld: with the worker held and a queue
// of four, ten datagrams shed the six oldest, and the worker then sees
// the four newest in arrival order.
func TestIngestShedsOldestWhileWorkerHeld(t *testing.T) {
	hold := make(chan struct{})
	got := make(chan string, 10)
	l, counts := start(t, Config{QueueDepth: 4, Hold: hold, Datagram: func(pkt []byte) { got <- string(pkt) }})
	var sent []string
	for i := 0; i < 10; i++ {
		sent = append(sent, fmt.Sprintf("d%d", i))
	}
	send(t, l, sent...)
	waitFor(t, "ten datagrams read", func() bool { return counts.Get("read") == 10 })
	if shed := counts.Get("shed"); shed != 6 {
		t.Fatalf("shed = %d, want 6", shed)
	}
	close(hold)
	for _, want := range sent[6:] {
		if d := <-got; d != want {
			t.Fatalf("worker saw %q, want %q (the newest four, in order)", d, want)
		}
	}
}

// TestIngestFlushesOnShutdownDropsOnKill: datagrams already queued when
// the listener stops reach the tier on Shutdown and are lost on Kill. The
// flush runs while the ingest socket is still open, so a tier that writes
// through it (the gateway forwards from it) can send every flushed
// datagram on.
func TestIngestFlushesOnShutdownDropsOnKill(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sinkAddr := sink.LocalAddr().(*net.UDPAddr)
	for _, kill := range []bool{false, true} {
		hold := make(chan struct{})
		var handled, forwarded atomic.Int64
		var l *Listener
		l, counts := start(t, Config{Hold: hold, Datagram: func(pkt []byte) {
			handled.Add(1)
			if _, err := l.WriteToUDP(pkt, sinkAddr); err == nil {
				forwarded.Add(1)
			}
		}})
		send(t, l, "a", "b", "c", "d", "e")
		waitFor(t, "five datagrams read", func() bool { return counts.Get("read") == 5 })
		stopped := make(chan error, 1)
		go func() {
			if kill {
				stopped <- l.Kill(func() {})
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			stopped <- l.Shutdown(ctx, func() {})
		}()
		<-l.Done()
		close(hold)
		if err := <-stopped; err != nil {
			t.Fatalf("kill=%v: %v", kill, err)
		}
		want := int64(5)
		if kill {
			want = 0
		}
		if got := handled.Load(); got != want {
			t.Fatalf("kill=%v: %d queued datagrams handled, want %d", kill, got, want)
		}
		if got := forwarded.Load(); got != want {
			t.Fatalf("kill=%v: %d of %d flushed datagrams written back through the ingest socket", kill, got, want)
		}
	}
}

// TestIdleReadDeadline: every command read is armed at Now+IdleTimeout,
// and a connection left idle that long is closed.
func TestIdleReadDeadline(t *testing.T) {
	const idle = 500 * time.Millisecond
	t0 := time.Now()
	var mu sync.Mutex
	var deadlines []time.Time
	l, _ := start(t, Config{
		IdleTimeout: idle,
		Now:         func() time.Time { return t0 },
		SetReadDeadline: func(conn net.Conn, dl time.Time) error {
			mu.Lock()
			deadlines = append(deadlines, dl)
			mu.Unlock()
			return conn.SetReadDeadline(dl)
		},
	})
	c := dial(t, l)
	c.send(t, "PING")
	if got := c.line(t); got != "\"PING\"\n" {
		t.Fatalf("reply %q", got)
	}
	c.expectEOF(t)
	if waited := time.Since(t0); waited < idle {
		t.Fatalf("idle connection closed after %v, before its %v deadline", waited, idle)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(deadlines) != 2 {
		t.Fatalf("%d read deadlines armed, want 2 (one per command read)", len(deadlines))
	}
	for i, dl := range deadlines {
		if !dl.Equal(t0.Add(idle)) {
			t.Fatalf("read deadline %d = %v, want Now+IdleTimeout = %v", i, dl, t0.Add(idle))
		}
	}
}

// TestShutdownNudgesIdleConn: an idle connection does not hold the drain
// for its hour-long idle deadline; Shutdown wakes its read and the
// connection closes without a reply.
func TestShutdownNudgesIdleConn(t *testing.T) {
	var armed atomic.Int64
	l, _ := start(t, Config{
		IdleTimeout: time.Hour,
		SetReadDeadline: func(conn net.Conn, dl time.Time) error {
			armed.Add(1)
			return conn.SetReadDeadline(dl)
		},
	})
	c := dial(t, l)
	c.send(t, "PING")
	c.line(t)
	// The second arm is the read after the reply: the handler is idle.
	waitFor(t, "the handler to wait for its next command", func() bool { return armed.Load() == 2 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	began := time.Now()
	if err := l.Shutdown(ctx, func() { t.Error("abort ran on a clean drain") }); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > time.Second {
		t.Fatalf("drain took %v with one idle connection", took)
	}
	c.expectEOF(t)
}

// blockInWrite connects a client that never reads, with a 4 KiB receive
// buffer, and sends commands until the handler stops answering: it is
// then parked writing a reply. served counts the commands answered.
func blockInWrite(t *testing.T, l *Listener, served *atomic.Int64) *client {
	t.Helper()
	c := dial(t, l)
	if err := c.conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	c.send(t, strings.Repeat("GO\n", 200))
	for last := int64(-1); ; {
		time.Sleep(100 * time.Millisecond)
		n := served.Load()
		if n == last && n > 0 {
			return c
		}
		last = n
	}
}

// TestReplyWriteDeadline: a peer that leaves replies unread for
// IdleTimeout is dropped, so it cannot park its handler or the drain.
func TestReplyWriteDeadline(t *testing.T) {
	big := strings.Repeat("x", 64<<10)
	var served atomic.Int64
	l, _ := start(t, Config{
		IdleTimeout: 300 * time.Millisecond,
		Command: func([]string) (any, bool) {
			served.Add(1)
			return big, false
		},
	})
	blockInWrite(t, l, &served)
	waitFor(t, "the handler to drop the unread connection", func() bool { return openConns(l) == 0 })
	if n := served.Load(); n >= 200 {
		t.Fatalf("all %d commands answered; the client read nothing, so the handler should have given up", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := l.Shutdown(ctx, func() {}); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownForceClosesAfterAbort: when the drain's ctx ends with a
// handler still parked (here in a write whose deadline is an hour away),
// abort runs while the connection is still open, then the connection is
// closed, which frees the handler.
func TestShutdownForceClosesAfterAbort(t *testing.T) {
	big := strings.Repeat("x", 64<<10)
	var served atomic.Int64
	l, _ := start(t, Config{
		IdleTimeout: time.Hour,
		Command: func([]string) (any, bool) {
			served.Add(1)
			return big, false
		},
	})
	blockInWrite(t, l, &served)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	openAtAbort := -1
	err := l.Shutdown(ctx, func() { openAtAbort = liveConns(l) })
	if err == nil || !strings.Contains(err.Error(), "drain cut short") || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the drain cut short by the deadline", err)
	}
	if openAtAbort != 1 {
		t.Fatalf("abort saw %d open connections, want 1: it must run before the forced close", openAtAbort)
	}
	if n := openConns(l); n != 0 {
		t.Fatalf("%d connections open after Shutdown", n)
	}
}

// TestShuttingDownLine: once shutdown has begun, a connection about to
// read its next command — after answering one in flight, or having just
// read a line — answers {"error":"shutting down"} and hangs up.
func TestShuttingDownLine(t *testing.T) {
	const drainLine = "{\"error\":\"shutting down\"}\n"
	hold := make(chan struct{})
	entered, release := make(chan struct{}), make(chan struct{})
	l, _ := start(t, Config{
		IdleTimeout: time.Hour,
		Hold:        hold, // holds the drain before its nudge
		Command: func(fields []string) (any, bool) {
			if fields[0] == "SLOW" {
				close(entered)
				<-release
			}
			return fields[0], false
		},
	})
	inFlight, idle := dial(t, l), dial(t, l)
	idle.send(t, "PING")
	idle.line(t)
	inFlight.send(t, "SLOW")
	<-entered

	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		stopped <- l.Shutdown(ctx, func() {})
	}()
	<-l.Done()

	idle.send(t, "PING")
	if got := idle.line(t); got != drainLine {
		t.Fatalf("line read during shutdown answered %q, want %q", got, drainLine)
	}
	idle.expectEOF(t)

	close(release)
	if got := inFlight.line(t); got != "\"SLOW\"\n" {
		t.Fatalf("in-flight command answered %q", got)
	}
	if got := inFlight.line(t); got != drainLine {
		t.Fatalf("after its in-flight reply got %q, want %q", got, drainLine)
	}
	inFlight.expectEOF(t)

	close(hold)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
}

// TestShutdownAndKillOnce: a stopped listener refuses a second stop.
func TestShutdownAndKillOnce(t *testing.T) {
	l, _ := start(t, Config{})
	if err := l.Kill(func() {}); err != nil {
		t.Fatal(err)
	}
	if err := l.Kill(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Kill = %v, want ErrClosed", err)
	}
	if err := l.Shutdown(context.Background(), func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Shutdown after Kill = %v, want ErrClosed", err)
	}
}
