package schedd

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock. No background ticking: time moves
// only when the test says so, making every duration the daemon computes
// exact.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// newFakeClock starts far in the future so any time that leaks in from the
// real clock is immediately recognisable by its year.
func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2030, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestInjectedClockDrivesAllTimeReads is the regression test for the clock
// bypasses: the daemon installed cfg.now but read time.Now directly for the
// idle read deadline, the query latency and the shutdown nudge. With every
// read routed through the injected clock, a fake clock must see exact
// daemon time arithmetic: a 50 ms solver stall reports elapsed_ms == 50, a
// 5 s advance reports uptime accordingly, and every read deadline is
// derived from fake time (year 2030), not the wall clock.
func TestInjectedClockDrivesAllTimeReads(t *testing.T) {
	fc := newFakeClock()
	var mu sync.Mutex
	var deadlines []time.Time
	cfg := Config{
		now: fc.Now,
		slowLevel: func(_ context.Context, l Level) {
			if l == LevelBlossom {
				fc.Advance(50 * time.Millisecond)
			}
		},
		setReadDeadline: func(conn net.Conn, dl time.Time) error {
			mu.Lock()
			deadlines = append(deadlines, dl)
			mu.Unlock()
			// Bridge to a real deadline with the same remaining duration, so
			// the kernel still enforces what the fake deadline means.
			return conn.SetReadDeadline(time.Now().Add(dl.Sub(fc.Now())))
		},
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sendReports(t, s,
		Report{AP: 1, Station: 1, Seq: 1, SNRMilliDB: 30_000},
		Report{AP: 1, Station: 2, Seq: 1, SNRMilliDB: 20_000},
	)
	waitCounter(t, s, "reports_ok", 2)

	c := dialQuery(t, s)
	defer c.close()
	resp := c.roundTrip(t, "SCHED 1")
	if e, ok := resp["error"]; ok {
		t.Fatalf("SCHED failed: %v", e)
	}
	// The blossom stall advanced the fake clock exactly 50 ms between the
	// query's start and end reads. The old code read the wall clock here and
	// would report ~0.
	if got := resp["elapsed_ms"].(float64); got != 50 {
		t.Errorf("elapsed_ms = %v, want exactly 50", got)
	}

	fc.Advance(5 * time.Second)
	h := c.roundTrip(t, "HEALTH")
	// 50 ms from the stall plus the 5 s advance, measured from the fake
	// start time. The old code mixed time.Since into fake arithmetic.
	if got := h["uptime_ms"].(float64); got != 5050 {
		t.Errorf("uptime_ms = %v, want exactly 5050", got)
	}

	mu.Lock()
	if len(deadlines) == 0 {
		t.Fatal("setReadDeadline hook never invoked")
	}
	for i, dl := range deadlines {
		if dl.Year() != 2030 {
			t.Errorf("deadline %d = %v derived from the wall clock, want fake time", i, dl)
		}
	}
	mu.Unlock()

	shutdown(t, s)
	// The drain nudge must be "fake now", not wall now: an idle handler is
	// kicked out of its read immediately in daemon time.
	mu.Lock()
	last := deadlines[len(deadlines)-1]
	mu.Unlock()
	if !last.Equal(fc.Now()) {
		t.Errorf("shutdown nudge deadline = %v, want %v", last, fc.Now())
	}
}
