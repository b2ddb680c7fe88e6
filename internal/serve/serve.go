// Package serve is the listener both serving tiers run on: the sicschedd
// shard and the sicgw gateway each bind one UDP ingest socket and one TCP
// query socket, and this package owns both sockets, their goroutines and
// the shutdown drain. A tier supplies a datagram handler, a command
// dispatch and the counters to count ingest under; the package registers
// no metrics of its own.
//
// Ingest: one reader pulls datagrams off the socket into a bounded queue
// that sheds the oldest datagram when full (fresher reports are worth
// strictly more than stale ones), and one worker hands them to the tier in
// arrival order. Shutdown flushes what is queued; Kill drops it.
//
// Queries: one goroutine per connection reads newline-delimited commands
// and writes one JSON reply line per command. Every read is armed with the
// idle deadline now+IdleTimeout, and so is every reply write: a peer that
// leaves a reply unread that long is as dead as one that sends nothing.
// Once shutdown begins, idle connections are nudged out of their reads and
// a connection that would read another command is answered
// {"error":"shutting down"} and closed. When the drain's ctx ends first,
// the tier's abort runs and then every connection is closed.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrorReply is the error shape of every query reply on both tiers, so an
// AP can talk to a gateway or a bare shard with one parser. RetryAfterMS is
// set only on overload shedding.
type ErrorReply struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// shuttingDown is the drain line, boxed once so writing it allocates
// nothing.
var shuttingDown any = ErrorReply{Error: "shutting down"}

// ErrClosed is returned by Shutdown and Kill on a listener already stopped.
var ErrClosed = errors.New("already shut down")

// Config is what a tier plugs into its listener.
type Config struct {
	// QueueDepth bounds the ingest queue; a full queue sheds its oldest
	// datagram to admit the newest.
	QueueDepth int
	// IdleTimeout bounds every command read and every reply write on a
	// query connection.
	IdleTimeout time.Duration
	// Datagram handles one ingested datagram, on the worker goroutine.
	Datagram func(pkt []byte)
	// Command answers one command line, split into its (never empty)
	// fields. A nil reply writes nothing; quit hangs up after the reply.
	Command func(fields []string) (reply any, quit bool)
	// Counters counts ingest under the tier's own event names: Read for
	// every datagram read off the socket, Shed for every datagram the full
	// queue dropped.
	Counters   *obs.Group
	Read, Shed string

	// Now is the tier's clock for every deadline.
	Now func() time.Time
	// SetReadDeadline applies a read deadline to a query connection.
	// Default: the connection's own. A test hook paired with Now.
	SetReadDeadline func(net.Conn, time.Time) error
	// Hold, when non-nil, keeps the ingest worker from taking its first
	// datagram until closed — a test hook to fill the queue
	// deterministically.
	Hold <-chan struct{}
}

// Listener is one tier's pair of sockets. Bind with Listen, start with
// Serve, stop with Shutdown or Kill.
type Listener struct {
	cfg Config
	udp *net.UDPConn
	tcp net.Listener

	queue   chan []byte
	done    chan struct{} // closed when Shutdown or Kill begins
	closing atomic.Bool
	killed  atomic.Bool // Kill: drop the queue instead of flushing it

	reader   sync.WaitGroup // the ingest reader
	wg       sync.WaitGroup // worker, acceptor
	handlers sync.WaitGroup // connection handlers and Go'd work

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Listen binds the UDP ingest and TCP query sockets. The listener serves
// nothing until Serve; Close releases a listener that never served.
func Listen(udpAddr, tcpAddr string) (*Listener, error) {
	uaddr, err := net.ResolveUDPAddr("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("resolving UDP addr: %w", err)
	}
	udp, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, fmt.Errorf("binding UDP: %w", err)
	}
	tcp, err := net.Listen("tcp", tcpAddr)
	if err != nil {
		udp.Close()
		return nil, fmt.Errorf("binding TCP: %w", err)
	}
	return &Listener{
		udp:   udp,
		tcp:   tcp,
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Serve starts the reader, the ingest worker and the acceptor.
func (l *Listener) Serve(cfg Config) {
	if cfg.SetReadDeadline == nil {
		cfg.SetReadDeadline = func(conn net.Conn, t time.Time) error { return conn.SetReadDeadline(t) }
	}
	l.cfg = cfg
	l.queue = make(chan []byte, cfg.QueueDepth)
	l.reader.Add(1)
	l.wg.Add(2)
	go l.read()
	go l.work()
	go l.accept()
}

// Close releases the sockets of a listener that never served.
func (l *Listener) Close() {
	l.udp.Close()
	l.tcp.Close()
}

// UDPAddr returns the bound ingest address.
func (l *Listener) UDPAddr() net.Addr { return l.udp.LocalAddr() }

// TCPAddr returns the bound query address.
func (l *Listener) TCPAddr() net.Addr { return l.tcp.Addr() }

// WriteToUDP sends one datagram from the ingest socket.
func (l *Listener) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	return l.udp.WriteToUDP(b, addr)
}

// Done is closed when Shutdown or Kill begins.
func (l *Listener) Done() <-chan struct{} { return l.done }

// Go runs f on a goroutine that the drain waits for like a connection
// handler: Shutdown returns only after f does, so f must return once Done
// is closed or the abort has run. Call it before Shutdown begins, or from
// a function already run by Go.
func (l *Listener) Go(f func()) {
	l.handlers.Add(1)
	go func() {
		defer l.handlers.Done()
		f()
	}()
}

// read pulls datagrams off the socket into the bounded queue, shedding
// oldest-first under pressure so a burst can never grow memory without
// bound.
func (l *Listener) read() {
	defer l.reader.Done()
	buf := make([]byte, 512)
	for {
		n, _, err := l.udp.ReadFromUDP(buf)
		if err != nil {
			if l.closing.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		l.cfg.Counters.Inc(l.cfg.Read)
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		select {
		case l.queue <- pkt:
		default:
			// Queue full: drop the oldest queued datagram to admit the new
			// one. Two non-blocking steps; if the worker races us and makes
			// room, so much the better.
			select {
			case <-l.queue:
				l.cfg.Counters.Inc(l.cfg.Shed)
			default:
			}
			select {
			case l.queue <- pkt:
			default:
				l.cfg.Counters.Inc(l.cfg.Shed)
			}
		}
	}
}

// work hands queued datagrams to the tier. Once shutdown begins it flushes
// what is already queued and exits; once killed it handles nothing more.
func (l *Listener) work() {
	defer l.wg.Done()
	if l.cfg.Hold != nil {
		<-l.cfg.Hold
	}
	for {
		select {
		case pkt := <-l.queue:
			if l.killed.Load() {
				return
			}
			l.cfg.Datagram(pkt)
		case <-l.done:
			for !l.killed.Load() {
				select {
				case pkt := <-l.queue:
					l.cfg.Datagram(pkt)
				default:
					return
				}
			}
			return
		}
	}
}

// accept accepts query connections, one handler each.
func (l *Listener) accept() {
	defer l.wg.Done()
	for {
		conn, err := l.tcp.Accept()
		if err != nil {
			if l.closing.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		l.mu.Lock()
		if l.closing.Load() {
			l.mu.Unlock()
			conn.Close()
			continue
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.handlers.Add(1)
		go l.serveConn(conn)
	}
}

// serveConn answers newline-delimited commands on one connection until
// the peer hangs up, goes idle, stops reading replies, quits, or shutdown
// begins.
func (l *Listener) serveConn(conn net.Conn) {
	defer l.handlers.Done()
	defer l.dropConn(conn)
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), 4096)
	for {
		reply, quit := shuttingDown, true
		if l.armReadDeadline(conn) {
			if !sc.Scan() {
				return
			}
			if !l.closing.Load() {
				fields := strings.Fields(sc.Text())
				if len(fields) == 0 {
					continue
				}
				reply, quit = l.cfg.Command(fields)
			}
		}
		if reply != nil {
			if conn.SetWriteDeadline(l.cfg.Now().Add(l.cfg.IdleTimeout)) != nil || enc.Encode(reply) != nil {
				return
			}
		}
		if quit {
			return
		}
	}
}

// armReadDeadline sets the idle read deadline for the next command, unless
// shutdown has begun. It runs under mu, like Shutdown's nudge, so a handler
// returning from a command can never overwrite the nudge and block the
// drain on an idle read. A conn that cannot arm its deadline reports false
// too: it must not be read from unarmed.
func (l *Listener) armReadDeadline(conn net.Conn) bool {
	dl := l.cfg.Now().Add(l.cfg.IdleTimeout)
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.closing.Load() && l.cfg.SetReadDeadline(conn, dl) == nil
}

func (l *Listener) dropConn(conn net.Conn) {
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
	conn.Close()
}

// closeConns severs every open query connection.
func (l *Listener) closeConns() {
	l.mu.Lock()
	for conn := range l.conns {
		conn.Close()
	}
	l.mu.Unlock()
}

// stop marks the listener closing and stops its goroutines in order: the
// reader first, woken by a read deadline, so nothing more joins the queue;
// then the worker, which flushes the queue (unless killed) while the
// ingest socket is still open, since a tier may write through it; and the
// acceptor. The ingest socket closes last. It reports false when the
// listener had already been stopped.
func (l *Listener) stop() bool {
	if l.closing.Swap(true) {
		return false
	}
	if l.udp.SetReadDeadline(time.Unix(1, 0)) != nil {
		l.udp.Close() // the only other way to wake the reader
	}
	l.reader.Wait()
	l.tcp.Close()
	close(l.done)
	l.wg.Wait()
	l.udp.Close()
	return true
}

// Shutdown stops the listener gracefully: ingest stops, the queued
// datagrams are flushed to the tier, the sockets close, commands in
// flight are answered, and idle connections are released. If ctx ends
// before the handlers have returned, abort runs (it must make in-flight
// commands return) and then every connection is closed; Shutdown still
// waits for the handlers and reports the drain cut short.
func (l *Listener) Shutdown(ctx context.Context, abort func()) error {
	if !l.stop() {
		return ErrClosed
	}
	// Nudge idle handlers out of their blocking reads; handlers mid-command
	// are not reading and will write their reply first.
	now := l.cfg.Now()
	l.mu.Lock()
	for conn := range l.conns {
		if err := l.cfg.SetReadDeadline(conn, now); err != nil {
			// The nudge did not land, so the idle read it was meant to wake
			// may never return; close outright rather than hang the drain.
			conn.Close()
		}
	}
	l.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		l.handlers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		abort()
		l.closeConns()
		<-drained
		return fmt.Errorf("drain cut short: %w", ctx.Err())
	}
}

// Kill stops the listener abruptly, modelling a crash: ingest stops,
// queued datagrams are dropped, the sockets close, every connection is
// severed mid-stream, abort runs, and Kill returns once the handlers
// have.
func (l *Listener) Kill(abort func()) error {
	l.killed.Store(true)
	if !l.stop() {
		return ErrClosed
	}
	l.closeConns()
	abort()
	l.handlers.Wait()
	return nil
}
