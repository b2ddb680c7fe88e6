package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// roomyDeadlines keeps shard deadlines and hedges out of the way of tests
// about connection reuse, so a slow run under the race detector cannot
// turn into a timeout, and so into a fresh dial.
func roomyDeadlines(cfg *Config) {
	cfg.ShardDeadline = 5 * time.Second
	cfg.QueryDeadline = 10 * time.Second
	cfg.HedgeDelay = 10 * time.Second
}

// splitStations returns 2n stations of a healthy two-shard tier that
// alternate between owners shard-a and shard-b, so any even-length run of
// them fans a SCHED out to both shards.
func splitStations(t *testing.T, n int) []uint32 {
	t.Helper()
	ring := buildRing([]string{"shard-a", "shard-b"}, allLive(2), 64, 1)
	var owned [2][]uint32
	for st := uint32(1); (len(owned[0]) < n || len(owned[1]) < n) && st < 100000; st++ {
		if o, ok := ring.owner(st); ok && len(owned[o]) < n {
			owned[o] = append(owned[o], st)
		}
	}
	if len(owned[0]) < n || len(owned[1]) < n {
		t.Fatalf("could not find %d stations per shard", n)
	}
	out := make([]uint32, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, owned[0][i], owned[1][i])
	}
	return out
}

// waitIngested waits until every shard holds at least n reports: with
// replication 2 over two shards, each shard stores every station.
func waitIngested(t *testing.T, tr *tier, n int) {
	t.Helper()
	waitFor(t, 5*time.Second, "shards to ingest the forwarded reports", func() bool {
		for _, s := range tr.shards {
			if s.Counters().Get("reports_ok") < int64(n) {
				return false
			}
		}
		return true
	})
}

// cleanAnswer fails unless resp is an undegraded schedule serving exactly
// the given stations.
func cleanAnswer(resp schedResponse, stations []uint32) error {
	got := slotStations(resp)
	if resp.Degraded || len(got) != len(stations) || resp.Clients != len(stations) {
		return fmt.Errorf("want a clean answer serving %d stations, got degraded=%v clients=%d slots=%v shards=%+v",
			len(stations), resp.Degraded, resp.Clients, got, resp.Shards)
	}
	for _, st := range stations {
		if !got[st] {
			return fmt.Errorf("station %d missing from %v", st, got)
		}
	}
	return nil
}

// idleConns snapshots sh's pooled idle connections.
func idleConns(sh *shardState) []*shardConn {
	sh.poolMu.Lock()
	defer sh.poolMu.Unlock()
	return append([]*shardConn(nil), sh.idle...)
}

// connClosed reports whether the gateway has closed its end of c.
func connClosed(c *shardConn) bool {
	return errors.Is(c.conn.SetDeadline(time.Time{}), net.ErrClosed)
}

// TestShardConnReusedAcrossQueries: sequential SCHEDs on a healthy tier
// ride one pooled connection per shard instead of dialling per query.
func TestShardConnReusedAcrossQueries(t *testing.T) {
	tr := startTier(t, 2, roomyDeadlines)
	stations := splitStations(t, 4)
	sendReports(t, tr.gw, reportRound(stations, 5, 1))
	waitIngested(t, tr, len(stations))

	for i := 0; i < 200; i++ {
		var resp schedResponse
		gwQuery(t, tr.gw, "SCHED 5", &resp)
		if err := cleanAnswer(resp, stations); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := tr.gw.TierEvents().Get("shard_dial"); got > 2 {
		t.Fatalf("200 sequential SCHEDs on 2 shards dialled %d connections, want at most 2", got)
	}
	if got := tr.gw.TierEvents().Get("shard_redial"); got != 0 {
		t.Fatalf("shard_redial = %d on a healthy tier", got)
	}
}

// TestShardConnRedialsAfterShardRestart: a shard killed and restarted on
// its old addresses leaves a dead connection in the pool. The next SCHED
// pays one redial inside the same attempt — not a failed attempt, a retry
// and its backoff — and answers clean.
func TestShardConnRedialsAfterShardRestart(t *testing.T) {
	tr := startTier(t, 2, roomyDeadlines)
	stations := splitStations(t, 4)
	sendReports(t, tr.gw, reportRound(stations, 5, 1))
	waitIngested(t, tr, len(stations))
	var warm schedResponse
	gwQuery(t, tr.gw, "SCHED 5", &warm)
	if err := cleanAnswer(warm, stations); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	victim := tr.shards["shard-b"]
	udpAddr, tcpAddr := victim.UDPAddr().String(), victim.TCPAddr().String()
	victim.Kill()
	revived := startShard(t, "shard-b", udpAddr, tcpAddr)
	tr.shards["shard-b"] = revived
	sendReports(t, tr.gw, reportRound(stations, 5, 2))
	waitFor(t, 5*time.Second, "the restarted shard to ingest fresh reports", func() bool {
		return revived.Counters().Get("reports_ok") >= int64(len(stations))
	})

	retries := tr.gw.QueryEvents().Get("retries")
	var resp schedResponse
	gwQuery(t, tr.gw, "SCHED 5", &resp)
	if err := cleanAnswer(resp, stations); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	if got := tr.gw.QueryEvents().Get("retries"); got != retries {
		t.Fatalf("retries %d -> %d: the closed pooled connection cost an attempt, not a redial", retries, got)
	}
	if got := tr.gw.TierEvents().Get("shard_redial"); got != 1 {
		t.Fatalf("shard_redial = %d, want 1", got)
	}
}

// TestShardConnGracefulShutdownDegrades: a shard that shuts down cleanly
// hangs up its idle pooled connection and stops listening. The next SCHED
// degrades within the query deadline and pools nothing for it.
func TestShardConnGracefulShutdownDegrades(t *testing.T) {
	tr := startTier(t, 2, func(cfg *Config) {
		cfg.ShardDeadline = time.Second
		cfg.QueryDeadline = 2 * time.Second
	})
	stations := splitStations(t, 4)
	sendReports(t, tr.gw, reportRound(stations, 5, 1))
	waitIngested(t, tr, len(stations))
	var warm schedResponse
	gwQuery(t, tr.gw, "SCHED 5", &warm)
	if err := cleanAnswer(warm, stations); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	sh := tr.gw.shards[1]
	if len(idleConns(sh)) == 0 {
		t.Fatal("warm-up left no pooled connection to shard-b")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tr.shards["shard-b"].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	var resp schedResponse
	gwQuery(t, tr.gw, "SCHED 5", &resp)
	if !resp.Degraded {
		t.Fatalf("answer not degraded with shard-b down: %+v", resp)
	}
	if limit := float64(tr.gw.cfg.QueryDeadline.Milliseconds()); resp.ElapsMS > limit {
		t.Fatalf("degraded answer took %.1f ms, past the %.0f ms query deadline", resp.ElapsMS, limit)
	}
	failed := false
	for _, part := range resp.Shards {
		failed = failed || (part.Shard == "shard-b" && part.Error != "")
	}
	if !failed {
		t.Fatalf("no failed shard-b part in %+v", resp.Shards)
	}
	if n := len(idleConns(sh)); n != 0 {
		t.Fatalf("%d connections to the shut-down shard left in the pool", n)
	}
}

// TestShardConnClosedAfterShuttingDownReply: a daemon whose drain starts
// while it serves a command answers it, then writes "shutting down" on the
// connection and hangs up. The gateway pools the connection after the good
// reply; the next round trip reads the stale line, fails without a redial,
// and closes the connection instead of pooling it again.
func TestShardConnClosedAfterShuttingDownReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			return
		}
		conn.Write([]byte("{\"ap\":1,\"level\":\"blossom\"}\n{\"error\":\"shutting down\"}\n"))
	}()
	gw, err := Start(Config{
		Shards:        []ShardAddr{{Name: "draining", TCP: ln.Addr().String(), UDP: "127.0.0.1:9"}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Shutdown(context.Background())
	sh := gw.shards[0]

	var reply shardReply
	if err := gw.roundTrip(context.Background(), sh, "SCHED 1\n", 5*time.Second, &reply); err != nil {
		t.Fatalf("first round trip: %v", err)
	}
	if reply.Level != "blossom" || len(idleConns(sh)) != 1 {
		t.Fatalf("first reply %+v pooled %d connections, want blossom and 1", reply, len(idleConns(sh)))
	}
	err = gw.roundTrip(context.Background(), sh, "SCHED 1\n", 5*time.Second, &reply)
	if err == nil || !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("second round trip returned %v, want a shutting-down error", err)
	}
	if n := len(idleConns(sh)); n != 0 {
		t.Fatalf("%d connections pooled after a shutting-down reply", n)
	}
	if got := gw.TierEvents().Get("shard_redial"); got != 0 {
		t.Fatalf("shard_redial = %d: a shutting-down reply is an answer, not a hang-up", got)
	}
}

// TestShardConnPoolConcurrent: many AP connections share the pools under
// concurrency without crossing replies, and gateway Shutdown closes every
// idle pooled connection — and any returned to the pool afterwards.
func TestShardConnPoolConcurrent(t *testing.T) {
	tr := startTier(t, 2, roomyDeadlines)
	const aps, perAP, clients, queries = 4, 6, 16, 50
	stations := splitStations(t, aps*perAP/2)
	apStations := make(map[uint32][]uint32)
	for k := 0; k < aps; k++ {
		ap := uint32(k + 1)
		apStations[ap] = stations[k*perAP : (k+1)*perAP]
		sendReports(t, tr.gw, reportRound(apStations[ap], ap, 1))
	}
	waitIngested(t, tr, len(stations))

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", tr.gw.TCPAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for q := 0; q < queries; q++ {
				ap := uint32((c+q)%aps + 1)
				conn.SetDeadline(time.Now().Add(20 * time.Second))
				if _, err := fmt.Fprintf(conn, "SCHED %d\n", ap); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if !sc.Scan() {
					t.Errorf("client %d: no reply to SCHED %d: %v", c, ap, sc.Err())
					return
				}
				var resp schedResponse
				if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
					t.Errorf("client %d: %v (%s)", c, err, sc.Bytes())
					return
				}
				if err := cleanAnswer(resp, apStations[ap]); err != nil {
					t.Errorf("client %d, SCHED %d: %v", c, ap, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var pooled []*shardConn
	for _, sh := range tr.gw.shards {
		idle := idleConns(sh)
		if len(idle) == 0 || len(idle) > tr.gw.cfg.MaxInflight {
			t.Fatalf("shard %s pools %d idle connections, want 1..%d", sh.addr.Name, len(idle), tr.gw.cfg.MaxInflight)
		}
		pooled = append(pooled, idle...)
	}
	late, err := tr.gw.dialShard(context.Background(), tr.gw.shards[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tr.gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for i, c := range pooled {
		if !connClosed(c) {
			t.Fatalf("pooled connection %d still open after Shutdown", i)
		}
	}
	tr.gw.shards[0].checkin(late, tr.gw.cfg.MaxInflight)
	if !connClosed(late) {
		t.Fatal("a connection returned after Shutdown was left open")
	}
	for _, sh := range tr.gw.shards {
		if n := len(idleConns(sh)); n != 0 {
			t.Fatalf("shard %s pools %d connections after Shutdown", sh.addr.Name, n)
		}
	}
}
