package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
)

const (
	// replyBufSize is a shard connection's initial reply buffer: a SCHED
	// reply for a full AP fits, so the steady state reads in place.
	replyBufSize = 4 << 10
	// maxReplyLine caps one shard reply line.
	maxReplyLine = 1 << 20
)

// shuttingDown opens the line a draining daemon writes before it hangs up
// on a connection that had a command in flight — after that command's
// reply, so the line can sit unread behind a connection already pooled.
var shuttingDown = []byte(`{"error":"shutting down"`)

// shardConn is one query connection to a shard with its reply scanner. It
// is used by one round trip at a time: checked out of its shard's idle
// pool, or freshly dialled, and checked back in only after a complete,
// decoded reply.
type shardConn struct {
	conn net.Conn
	sc   *bufio.Scanner
}

// dialShard opens a new query connection to sh.
func (s *Server) dialShard(ctx context.Context, sh *shardState) (*shardConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", sh.addr.TCP)
	if err != nil {
		return nil, err
	}
	s.tierEvents.Inc("shard_dial")
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, replyBufSize), maxReplyLine)
	return &shardConn{conn: conn, sc: sc}, nil
}

// exchange writes line and reads one reply line, both under deadline dl.
// The reply is valid until the next exchange on c. hungUp reports that the
// shard had closed the connection before any reply byte arrived: a
// scanner hands back any partial line as a final token, so a failed Scan
// saw no byte of this reply.
func (c *shardConn) exchange(dl time.Time, line string) (reply []byte, hungUp bool, err error) {
	if err := c.conn.SetDeadline(dl); err != nil {
		return nil, false, err
	}
	if _, err := c.conn.Write([]byte(line)); err != nil {
		return nil, peerClosed(err), err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, peerClosed(err), err
		}
		return nil, true, fmt.Errorf("gateway: %s closed before replying", c.conn.RemoteAddr())
	}
	return c.sc.Bytes(), false, nil
}

// peerClosed reports whether err means the other end had closed the
// connection: EOF, or the reset or broken pipe of writing into it. A
// timeout is never one.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// roundTrip writes one command line to sh and decodes the one-line JSON
// reply into out (discarded when out is nil), all under timeout. It runs
// over a connection from sh's idle pool, or a fresh dial when none is
// idle, and pools the connection again only after a complete, decoded
// reply; any error, timeout or "shutting down" reply closes it. A pooled
// connection the shard had already closed (kill, restart, idle timeout)
// gets exactly one fresh dial inside the same deadline; a timeout never
// does, since the shard may still be working on the command.
func (s *Server) roundTrip(ctx context.Context, sh *shardState, line string, timeout time.Duration, out any) error {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	dl, _ := rctx.Deadline()
	c := sh.checkout()
	reused := c != nil
	if !reused {
		var err error
		if c, err = s.dialShard(rctx, sh); err != nil {
			return err
		}
	}
	reply, hungUp, err := c.exchange(dl, line)
	if hungUp && reused {
		c.conn.Close()
		s.tierEvents.Inc("shard_redial")
		if c, err = s.dialShard(rctx, sh); err != nil {
			return err
		}
		reply, _, err = c.exchange(dl, line)
	}
	if err == nil && bytes.HasPrefix(reply, shuttingDown) {
		err = fmt.Errorf("gateway: shard %s is shutting down", sh.addr.Name)
	}
	if err == nil && out != nil {
		err = json.Unmarshal(reply, out)
	}
	if err != nil {
		c.conn.Close()
		return err
	}
	sh.checkin(c, s.cfg.MaxInflight)
	return nil
}

// checkout pops the most recently pooled idle connection to sh, or returns
// nil when none is idle. Last in, first out: the warmest connection is the
// one least likely to have met the shard's idle timeout.
func (sh *shardState) checkout() *shardConn {
	sh.poolMu.Lock()
	defer sh.poolMu.Unlock()
	n := len(sh.idle)
	if n == 0 {
		return nil
	}
	c := sh.idle[n-1]
	sh.idle[n-1] = nil
	sh.idle = sh.idle[:n-1]
	return c
}

// checkin pools c for the next round trip to sh, or closes it when
// maxIdle connections are already idle or Shutdown has closed the pool.
func (sh *shardState) checkin(c *shardConn, maxIdle int) {
	sh.poolMu.Lock()
	pooled := !sh.poolClosed && len(sh.idle) < maxIdle
	if pooled {
		sh.idle = append(sh.idle, c)
	}
	sh.poolMu.Unlock()
	if !pooled {
		c.conn.Close()
	}
}

// closePool closes sh's idle connections and makes every later checkin
// close its connection instead of pooling it.
func (sh *shardState) closePool() {
	sh.poolMu.Lock()
	idle := sh.idle
	sh.idle, sh.poolClosed = nil, true
	sh.poolMu.Unlock()
	for _, c := range idle {
		c.conn.Close()
	}
}
