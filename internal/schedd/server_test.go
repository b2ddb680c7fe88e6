package schedd

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// waitGoroutinesBack polls until the goroutine count returns to (near) the
// recorded baseline, failing the test if daemon goroutines leaked.
func waitGoroutinesBack(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.Gosched(); runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// testClient wraps one TCP query connection.
type testClient struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dialQuery(t *testing.T, s *Server) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	return &testClient{conn: conn, rd: bufio.NewReader(conn)}
}

func (c *testClient) close() { c.conn.Close() }

// roundTrip sends one command line and decodes the one-line JSON reply into
// a generic map.
func (c *testClient) roundTrip(t *testing.T, cmd string) map[string]any {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", cmd); err != nil {
		t.Fatal(err)
	}
	line, err := c.rd.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading reply to %q: %v", cmd, err)
	}
	var out map[string]any
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatalf("bad JSON reply %q: %v", line, err)
	}
	return out
}

// sendReports marshals and fires reports at the daemon's UDP socket.
func sendReports(t *testing.T, s *Server, reports ...Report) {
	t.Helper()
	conn, err := net.Dial("udp", s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, r := range reports {
		buf, err := r.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
}

// waitCounter polls until the named counter reaches want.
func waitCounter(t *testing.T, s *Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := s.Counters().Get(name); got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter %s = %d, want >= %d (all: %s)", name, s.Counters().Get(name), want, s.Counters())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerEndToEnd: reports in over UDP, a schedule out over TCP, health
// counters that add up.
func TestServerEndToEnd(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sendReports(t, s,
		Report{AP: 7, Station: 1, Seq: 1, SNRMilliDB: 30_000},
		Report{AP: 7, Station: 2, Seq: 1, SNRMilliDB: 15_000},
		Report{AP: 7, Station: 3, Seq: 1, SNRMilliDB: 28_000},
		Report{AP: 7, Station: 4, Seq: 1, SNRMilliDB: 14_000},
	)
	waitCounter(t, s, "reports_ok", 4)

	c := dialQuery(t, s)
	defer c.close()
	resp := c.roundTrip(t, "SCHED 7")
	if resp["error"] != nil {
		t.Fatalf("query error: %v", resp["error"])
	}
	if resp["level"] != "blossom" {
		t.Fatalf("level = %v, want blossom", resp["level"])
	}
	if n := resp["clients"].(float64); n != 4 {
		t.Fatalf("clients = %v, want 4", n)
	}
	if g := resp["gain"].(float64); g < 1 {
		t.Fatalf("gain = %v, want >= 1", g)
	}
	slots := resp["slots"].([]any)
	if len(slots) != 2 {
		t.Fatalf("4 clients should pair into 2 slots, got %d", len(slots))
	}

	// An AP nobody reported for answers with an explicit error.
	if resp := c.roundTrip(t, "SCHED 999"); resp["error"] == nil {
		t.Fatal("unknown AP served a schedule")
	}

	// Malformed commands are counted, not fatal.
	if resp := c.roundTrip(t, "BOGUS"); resp["error"] == nil {
		t.Fatal("unknown command accepted")
	}
	if resp := c.roundTrip(t, "SCHED notanumber"); resp["error"] == nil {
		t.Fatal("bad AP id accepted")
	}

	health := c.roundTrip(t, "HEALTH")
	counters := health["counters"].(map[string]any)
	if counters["reports_ok"].(float64) != 4 {
		t.Fatalf("health reports_ok = %v", counters["reports_ok"])
	}
	if counters["served_blossom"].(float64) != 1 {
		t.Fatalf("health served_blossom = %v", counters["served_blossom"])
	}
	if counters["query_bad"].(float64) != 2 {
		t.Fatalf("health query_bad = %v", counters["query_bad"])
	}

	shutdown(t, s)
	waitGoroutinesBack(t, baseline)
}

// TestServerDropsMalformedDatagrams: garbage on the wire increments the
// right per-reason counters and never reaches the table.
func TestServerDropsMalformedDatagrams(t *testing.T) {
	s, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	conn, err := net.Dial("udp", s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	good, _ := Report{AP: 1, Station: 5, Seq: 1, SNRMilliDB: 20_000}.Marshal()
	corrupted := append([]byte(nil), good...)
	corrupted[21] ^= 0xFF // payload bit flips -> CRC reject

	conn.Write([]byte("not a report")) // short
	conn.Write(append(good, 0xAA))     // oversize
	conn.Write(corrupted)              // crc
	conn.Write(good)                   // ok
	conn.Write(good)                   // duplicate (same seq)
	waitCounter(t, s, "drop_short", 1)
	waitCounter(t, s, "drop_oversize", 1)
	waitCounter(t, s, "drop_crc", 1)
	waitCounter(t, s, "reports_ok", 1)
	waitCounter(t, s, "drop_duplicate", 1)

	if aps, clients := s.table.occupancy(time.Now()); aps != 1 || clients != 1 {
		t.Fatalf("table occupancy %d/%d, want 1/1", aps, clients)
	}
}

// TestServerShedsOldestUnderQueuePressure: with the decode worker held and
// a tiny queue, a burst must shed the oldest datagrams and keep the newest.
func TestServerShedsOldestUnderQueuePressure(t *testing.T) {
	hold := make(chan struct{})
	s, err := Start(Config{QueueDepth: 4, holdIngest: hold})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	var reports []Report
	for i := uint32(1); i <= 10; i++ {
		reports = append(reports, Report{AP: 1, Station: i, Seq: 1, SNRMilliDB: 20_000})
	}
	sendReports(t, s, reports...)
	waitCounter(t, s, "ingest_datagrams", 10)
	waitCounter(t, s, "ingest_shed", 6)

	close(hold)
	waitCounter(t, s, "reports_ok", 4)
	_, ids := s.table.snapshot(1, time.Now())
	if len(ids) != 4 {
		t.Fatalf("table has %d clients, want the 4 newest", len(ids))
	}
	for _, id := range ids {
		if id <= 6 {
			t.Fatalf("old report for station %d survived oldest-first shedding (ids %v)", id, ids)
		}
	}
}

// TestServerOverloadRetryAfter: queries past MaxInflight are shed with a
// retry-after hint instead of queueing.
func TestServerOverloadRetryAfter(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, err := Start(Config{
		MaxInflight:   1,
		RetryAfter:    123 * time.Millisecond,
		QueryDeadline: 5 * time.Second,
		Budgets:       Budgets{Blossom: 4 * time.Second, Greedy: time.Second},
		slowLevel: func(l Level) {
			if l == LevelBlossom {
				once.Do(func() { <-release })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	sendReports(t, s,
		Report{AP: 1, Station: 1, Seq: 1, SNRMilliDB: 30_000},
		Report{AP: 1, Station: 2, Seq: 1, SNRMilliDB: 15_000},
	)
	waitCounter(t, s, "reports_ok", 2)

	// First query parks inside the ladder until released.
	slowDone := make(chan map[string]any, 1)
	c1 := dialQuery(t, s)
	defer c1.close()
	go func() {
		slowDone <- c1.roundTrip(t, "SCHED 1")
	}()

	// Wait until the slow query is truly in flight.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	c2 := dialQuery(t, s)
	defer c2.close()
	resp := c2.roundTrip(t, "SCHED 1")
	if resp["error"] != "overloaded" {
		t.Fatalf("second query got %v, want overloaded", resp)
	}
	if resp["retry_after_ms"].(float64) != 123 {
		t.Fatalf("retry_after_ms = %v, want 123", resp["retry_after_ms"])
	}

	close(release)
	if resp := <-slowDone; resp["error"] != nil {
		t.Fatalf("slow query failed: %v", resp)
	}
	if got := s.Counters().Get("query_overload"); got != 1 {
		t.Fatalf("query_overload = %d, want 1", got)
	}
}

// TestServerDeadlineDegradation is the acceptance scenario end to end: a
// 40-client snapshot with an injected 50 ms matching budget and a slow
// solver must still answer every query inside the query deadline, recording
// the serial rung.
func TestServerDeadlineDegradation(t *testing.T) {
	s, err := Start(Config{
		Budgets:       Budgets{Blossom: 50 * time.Millisecond, Greedy: 10 * time.Millisecond},
		QueryDeadline: 400 * time.Millisecond,
		slowLevel: func(l Level) {
			if l != LevelSerial {
				time.Sleep(60 * time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	var reports []Report
	for i := uint32(1); i <= 40; i++ {
		reports = append(reports, Report{AP: 3, Station: i, Seq: 1, SNRMilliDB: int32(10_000 + 500*int(i))})
	}
	sendReports(t, s, reports...)
	waitCounter(t, s, "reports_ok", 40)

	c := dialQuery(t, s)
	defer c.close()
	for q := 0; q < 3; q++ {
		start := time.Now()
		resp := c.roundTrip(t, "SCHED 3")
		elapsed := time.Since(start)
		if resp["error"] != nil {
			t.Fatalf("query %d failed: %v", q, resp["error"])
		}
		if resp["level"] != "serial" {
			t.Fatalf("query %d: level = %v, want serial (both matchers over budget)", q, resp["level"])
		}
		if n := resp["clients"].(float64); n != 40 {
			t.Fatalf("query %d: clients = %v, want 40", q, n)
		}
		if elapsed > 400*time.Millisecond {
			t.Fatalf("query %d took %v, beyond the 400ms deadline", q, elapsed)
		}
	}
	if got := s.Counters().Get("served_serial"); got != 3 {
		t.Fatalf("served_serial = %d, want 3", got)
	}
}

// TestServerShutdownDrainsInFlightQuery is the kill-mid-query test: a
// shutdown issued while a query is being served must let that query finish,
// leak no goroutines, and leave the counters intact and readable.
func TestServerShutdownDrainsInFlightQuery(t *testing.T) {
	baseline := runtime.NumGoroutine()
	entered := make(chan struct{})
	var once sync.Once
	s, err := Start(Config{
		QueryDeadline: 5 * time.Second,
		Budgets:       Budgets{Blossom: 4 * time.Second, Greedy: time.Second},
		slowLevel: func(l Level) {
			if l == LevelBlossom {
				once.Do(func() { close(entered) })
				time.Sleep(150 * time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sendReports(t, s,
		Report{AP: 1, Station: 1, Seq: 1, SNRMilliDB: 30_000},
		Report{AP: 1, Station: 2, Seq: 1, SNRMilliDB: 15_000},
	)
	waitCounter(t, s, "reports_ok", 2)

	c := dialQuery(t, s)
	defer c.close()
	respc := make(chan map[string]any, 1)
	go func() {
		respc <- c.roundTrip(t, "SCHED 1")
	}()
	<-entered // the query is now mid-ladder

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during in-flight query: %v", err)
	}

	select {
	case resp := <-respc:
		if resp["error"] != nil {
			t.Fatalf("in-flight query was not drained: %v", resp["error"])
		}
		if resp["level"] != "blossom" {
			t.Fatalf("drained query level = %v, want blossom", resp["level"])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query never completed")
	}

	// Counters survive shutdown, and the drained query is accounted.
	if got := s.Counters().Get("served_blossom"); got != 1 {
		t.Fatalf("served_blossom = %d after shutdown, want 1", got)
	}
	if got := s.Counters().Get("reports_ok"); got != 2 {
		t.Fatalf("reports_ok = %d after shutdown, want 2", got)
	}
	waitGoroutinesBack(t, baseline)

	// Second shutdown is rejected, not a crash.
	if err := s.Shutdown(context.Background()); err == nil {
		t.Fatal("double shutdown accepted")
	}
}

// TestServerShutdownWithIdleConns: connections sitting idle in a read must
// not hold shutdown hostage.
func TestServerShutdownWithIdleConns(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c1 := dialQuery(t, s)
	defer c1.close()
	c2 := dialQuery(t, s)
	defer c2.close()
	c1.roundTrip(t, "HEALTH") // ensure both handlers are up
	c2.roundTrip(t, "HEALTH")

	start := time.Now()
	shutdown(t, s)
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("idle conns delayed shutdown by %v", e)
	}
	waitGoroutinesBack(t, baseline)
}

// TestHealthShardIdentityAndEpoch covers the gateway-facing HEALTH
// extension: shard name and per-boot instance are echoed, the ring epoch
// starts at 0, EPOCH advances it monotonically (never backwards), and a
// restart resets it while changing the instance — the two signals a
// gateway uses to spot a shard that lost its sessions.
func TestHealthShardIdentityAndEpoch(t *testing.T) {
	s, err := Start(Config{ShardID: "shard-a"})
	if err != nil {
		t.Fatal(err)
	}
	c := dialQuery(t, s)
	h := c.roundTrip(t, "HEALTH")
	if h["shard"] != "shard-a" {
		t.Fatalf("shard = %v, want shard-a", h["shard"])
	}
	inst, _ := h["instance"].(string)
	if len(inst) != 16 || inst != s.Instance() {
		t.Fatalf("instance = %q, want the server's 16-hex nonce %q", inst, s.Instance())
	}
	if h["ring_epoch"] != float64(0) {
		t.Fatalf("fresh ring_epoch = %v, want 0", h["ring_epoch"])
	}

	if r := c.roundTrip(t, "EPOCH 7"); r["ring_epoch"] != float64(7) {
		t.Fatalf("EPOCH 7 reply = %v", r)
	}
	// A stale push cannot rewind.
	if r := c.roundTrip(t, "EPOCH 3"); r["ring_epoch"] != float64(7) {
		t.Fatalf("stale EPOCH rewound the epoch: %v", r)
	}
	if r := c.roundTrip(t, "EPOCH x"); r["error"] == nil {
		t.Fatalf("malformed EPOCH accepted: %v", r)
	}
	if h := c.roundTrip(t, "HEALTH"); h["ring_epoch"] != float64(7) {
		t.Fatalf("HEALTH ring_epoch = %v, want 7", h["ring_epoch"])
	}
	if got := s.Counters().Get("epoch_updates"); got != 1 {
		t.Fatalf("epoch_updates = %d, want 1 (only the advance counts)", got)
	}
	c.close()
	shutdown(t, s)

	// A restarted shard forgets the pushed epoch and mints a new instance.
	s2, err := Start(Config{ShardID: "shard-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	c2 := dialQuery(t, s2)
	defer c2.close()
	h2 := c2.roundTrip(t, "HEALTH")
	if h2["ring_epoch"] != float64(0) {
		t.Fatalf("restarted ring_epoch = %v, want 0", h2["ring_epoch"])
	}
	if h2["instance"] == inst {
		t.Fatal("restarted shard reused its instance nonce")
	}
}

// TestServerUnchangedTableSameSlots: two SCHEDs for one AP with no report
// between them return the same slots. The AP's stations sit on three SNR
// levels, so many schedules tie for the optimum; the second query warm
// re-solves a table no report has changed and must keep the first one's
// answer instead of re-breaking ties.
func TestServerUnchangedTableSameSlots(t *testing.T) {
	s, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	rng := rand.New(rand.NewSource(unchangedTableSeed))
	levels := []int32{8_000, 16_000, 24_000}
	var reports []Report
	for st := uint32(1); st <= 24; st++ {
		reports = append(reports, Report{AP: 5, Station: st, Seq: 1, SNRMilliDB: levels[rng.Intn(3)]})
	}
	sendReports(t, s, reports...)
	waitCounter(t, s, "reports_ok", 24)
	c := dialQuery(t, s)
	defer c.close()
	sched := func() []Slot {
		t.Helper()
		if _, err := fmt.Fprintf(c.conn, "SCHED 5\n"); err != nil {
			t.Fatal(err)
		}
		line, err := c.rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var r SchedReply
		if err := json.Unmarshal(line, &r); err != nil || r.Level != "blossom" {
			t.Fatalf("SCHED 5 answered %s (%v), want a blossom schedule", line, err)
		}
		return r.Slots
	}
	sched()
	moved := reports[rng.Intn(len(reports))]
	moved.Seq, moved.SNRMilliDB = 2, levels[rng.Intn(3)]+1_000
	sendReports(t, s, moved)
	waitCounter(t, s, "reports_ok", 25)
	first := sched()
	if again := sched(); !slices.Equal(first, again) {
		t.Fatalf("unchanged table answered\n%+v\nafter\n%+v", again, first)
	}
	if warm := s.PlannerEvents().Get("plan_warm"); warm != 2 {
		t.Fatalf("plan_warm = %d, want 2: both later SCHEDs should reuse the held planner", warm)
	}
}

const unchangedTableSeed = 9
