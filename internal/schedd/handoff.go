package schedd

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/serve"
	"repro/internal/session"
)

// Handoff transfers one station's session to the peer daemon at addr
// (host:port of its query listener). Attempts carry a per-attempt deadline
// and retry under capped exponential backoff with jitter; the transfer ID
// makes retries idempotent at the peer, so a reply lost on the wire cannot
// double-install the session. On success the session and the station's
// table entry are removed locally. When every attempt fails the session
// stays local and the error is returned: the station simply starts cold at
// the peer, which is the designed degradation, and the abandonment is
// counted.
func (s *Server) Handoff(ctx context.Context, station uint32, addr string) (uint64, error) {
	st, ok := s.sessions.Get(station)
	if !ok {
		return 0, fmt.Errorf("schedd: no session for station %d", station)
	}
	transfer := s.transferBase ^ s.transferSeq.Add(1)
	line := "HANDOFF " + base64.StdEncoding.EncodeToString(session.EncodeHandoff(transfer, st)) + "\n"

	backoff := s.cfg.HandoffBackoff
	var lastErr error
	for attempt := 0; attempt < s.cfg.HandoffAttempts; attempt++ {
		if attempt > 0 {
			s.sessionEvents.Inc("handoff_retry")
			if err := s.sleep(ctx, s.withJitter(backoff)); err != nil {
				lastErr = err
				break
			}
			if backoff *= 2; backoff > s.cfg.HandoffMaxBackoff {
				backoff = s.cfg.HandoffMaxBackoff
			}
		}
		if err := s.handoffAttempt(ctx, addr, line, transfer); err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		// Acknowledged: the peer owns the session now.
		s.sessions.Remove(station, transfer, s.cfg.now())
		s.table.remove(st.AP, station)
		s.sessionEvents.Inc("handoff_ok")
		return transfer, nil
	}
	s.sessionEvents.Inc("handoff_abandoned")
	return transfer, fmt.Errorf("schedd: handoff of station %d to %s abandoned after %d attempts: %w",
		station, addr, s.cfg.HandoffAttempts, lastErr)
}

// handoffAttempt makes one round trip: dial, send the HANDOFF line, read
// the one-line JSON reply, verify the transfer echo. A reply marked
// applied=false is still success — it means a previous attempt landed and
// the peer deduplicated this one.
func (s *Server) handoffAttempt(ctx context.Context, addr, line string, transfer uint64) error {
	actx, cancel := context.WithTimeout(ctx, s.cfg.HandoffTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(actx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	//lint:allow closecheck read side already saw the reply or the error; close is best-effort
	defer conn.Close()
	dl, ok := actx.Deadline()
	if !ok {
		dl = s.cfg.now().Add(s.cfg.HandoffTimeout)
	}
	if err := conn.SetDeadline(dl); err != nil {
		return fmt.Errorf("deadline %s: %w", addr, err)
	}
	if _, err := conn.Write([]byte(line)); err != nil {
		return fmt.Errorf("send %s: %w", addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), 4096)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("reply %s: %w", addr, err)
		}
		return fmt.Errorf("reply %s: connection closed", addr)
	}
	var resp struct {
		serve.ErrorReply
		handoffResponse
	}
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		return fmt.Errorf("reply %s: %w", addr, err)
	}
	if resp.Error != "" {
		return fmt.Errorf("peer %s rejected handoff: %s", addr, resp.Error)
	}
	if want := fmt.Sprintf("%016x", transfer); resp.Transfer != want {
		return fmt.Errorf("peer %s acked transfer %s, want %s", addr, resp.Transfer, want)
	}
	return nil
}

// withJitter spreads d over [0.5d, 1.5d) so synchronized failures do not
// retry in lockstep.
func (s *Server) withJitter(d time.Duration) time.Duration {
	s.jitterMu.Lock()
	f := 0.5 + s.jitter.Float64()
	s.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// sleep waits d or until ctx is done, whichever comes first.
func (s *Server) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
