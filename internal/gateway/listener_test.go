package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/schedd"
	"repro/internal/serve"
)

// TestGatewayUnreadRepliesDropConn: an AP that sends SCHEDs and never
// reads the merged replies is dropped once a reply write has blocked for
// IdleTimeout, so it parks neither its handler nor the gateway's drain.
func TestGatewayUnreadRepliesDropConn(t *testing.T) {
	tr := startTier(t, 2, func(cfg *Config) { cfg.IdleTimeout = 300 * time.Millisecond })
	var stations []uint32
	for st := uint32(1); st <= 64; st++ {
		stations = append(stations, st)
	}
	sendReports(t, tr.gw, reportRound(stations, 1, 1))
	waitIngested(t, tr, len(stations))

	c, err := net.Dial("tcp", tr.gw.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := c.(*net.TCPConn)
	defer conn.Close()
	if err := conn.SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(strings.Repeat("SCHED 1\n", 3000))); err != nil {
		t.Fatal(err)
	}
	// Small writes succeed until the gateway has closed the connection;
	// give up once it has answered nothing new for 5 s.
	last, stalled := int64(-1), time.Now()
	for {
		time.Sleep(50 * time.Millisecond)
		if _, err := conn.Write([]byte("\n")); err != nil {
			break
		}
		if n := tr.gw.QueryEvents().Get("queries"); n != last {
			last, stalled = n, time.Now()
		}
		if time.Since(stalled) > 5*time.Second {
			t.Fatalf("the gateway never dropped the unread connection (%d answered)", last)
		}
	}
	if q := tr.gw.QueryEvents().Get("queries"); q >= 3000 {
		t.Fatalf("all %d SCHEDs answered; the replies were never read, so the gateway should have given up", q)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := tr.gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayShuttingDownLine: a SCHED in flight when the gateway starts
// draining is answered, then the connection gets the daemon's drain line
// {"error":"shutting down"} and is closed — the line a gateway reading a
// draining shard already treats as "do not pool this connection".
func TestGatewayShuttingDownLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A shard that holds every reply until released.
	release := make(chan struct{})
	queried := make(chan struct{}, 2)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					queried <- struct{}{}
					<-release
					conn.Write([]byte("{\"error\":\"no fresh reports for ap 1\"}\n"))
				}
			}()
		}
	}()
	gw, err := Start(Config{
		Shards:        []ShardAddr{{Name: "slow", TCP: ln.Addr().String(), UDP: "127.0.0.1:9"}},
		ProbeInterval: time.Hour,
		ShardDeadline: 5 * time.Second,
		QueryDeadline: 10 * time.Second,
		HedgeDelay:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", gw.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("SCHED 1\n")); err != nil {
		t.Fatal(err)
	}
	<-queried // the fan-out has reached the shard

	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		stopped <- gw.Shutdown(ctx)
	}()
	// The query listener closes once the drain has begun.
	waitFor(t, 5*time.Second, "the gateway to stop accepting", func() bool {
		c, err := net.Dial("tcp", gw.TCPAddr().String())
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	close(release)

	rd := bufio.NewReader(conn)
	var resp schedResponse
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &resp); err != nil || resp.AP != 1 {
		t.Fatalf("in-flight SCHED answered %q (%v), want its merged reply", line, err)
	}
	if line, err := rd.ReadString('\n'); err != nil || line != "{\"error\":\"shutting down\"}\n" {
		t.Fatalf("after the in-flight reply read %q, %v; want the drain line", line, err)
	}
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
}

// TestGatewayReplyGoldenBytes pins the gateway's own reply encodings byte
// for byte: the merged SCHED reply (degraded parts, hedge and shadow
// flags, a failed part), an empty merged reply, the overload error and
// HEALTH.
func TestGatewayReplyGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply any
		want  string
	}{
		{"merged", schedResponse{AP: 5, Degraded: true, Epoch: 3, Clients: 3, TotalMS: 2.75, Gain: 1.25,
			Slots: []schedd.Slot{{Mode: "sic", A: 1, B: 2, Scale: 0.5, MS: 1.25}, {Mode: "serial", A: 3, MS: 1.5}},
			Shards: []shardPart{{Shard: "shard-a", Level: "blossom", Clients: 2}, {Shard: "shard-b", Clients: 1, Hedged: true, Shadow: true, Level: "greedy"},
				{Shard: "shard-c", Error: "gateway: shard shard-c: timeout"}},
			ElapsMS: 0.125},
			`{"ap":5,"degraded":true,"epoch":3,"clients":3,"total_ms":2.75,"gain":1.25,"slots":[{"mode":"sic","a":1,"b":2,"scale":0.5,"ms":1.25},{"mode":"serial","a":3,"ms":1.5}],"shards":[{"shard":"shard-a","level":"blossom","clients":2},{"shard":"shard-b","level":"greedy","clients":1,"hedged":true,"shadow":true},{"shard":"shard-c","clients":0,"error":"gateway: shard shard-c: timeout"}],"elapsed_ms":0.125}`},
		{"merged empty", schedResponse{AP: 6, Degraded: true, Epoch: 1, ElapsMS: 0.001},
			`{"ap":6,"degraded":true,"epoch":1,"clients":0,"total_ms":0,"gain":0,"slots":null,"shards":null,"elapsed_ms":0.001}`},
		{"overload", serve.ErrorReply{Error: "gateway overloaded", RetryAfterMS: 50},
			`{"error":"gateway overloaded","retry_after_ms":50}`},
		{"health", healthResponse{UptimeMS: 12, Epoch: 2, Stations: 64, APs: 1, Degraded: true,
			Shards: []shardStatus{{Name: "shard-a", Live: true, Instance: "0011"}, {Name: "shard-b"}}, Counters: map[string]int64{"queries": 3, "accepted": 64}},
			`{"uptime_ms":12,"epoch":2,"stations":64,"aps":1,"degraded":true,"shards":[{"name":"shard-a","live":true,"instance":"0011"},{"name":"shard-b","live":false}],"counters":{"accepted":64,"queries":3}}`},
	} {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(tc.reply); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != tc.want+"\n" {
			t.Errorf("%s:\n got %s want %s", tc.name, got, tc.want)
		}
	}
}

// TestGatewayShutdownForwardsFlushedReports: reports still queued when the
// gateway shuts down are flushed to the shards, not dropped. After a burst
// and an immediate Shutdown every accepted report has been forwarded to
// Replication shards with no failed write, and every datagram read has
// exactly one ingest outcome.
func TestGatewayShutdownForwardsFlushedReports(t *testing.T) {
	tr := startTier(t, 2, nil)
	var burst [][]byte
	for st := uint32(1); st <= 4000; st++ {
		buf, err := schedd.Report{AP: st % 64, Station: st, Seq: 1, SNRMilliDB: 20000}.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		burst = append(burst, buf)
	}
	conn, err := net.Dial("udp", tr.gw.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, buf := range burst {
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tr.gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	ie := tr.gw.IngestEvents()
	if n := ie.Get("forward_err"); n != 0 {
		t.Errorf("forward_err = %d after Shutdown, want 0", n)
	}
	if acc, fwd := ie.Get("accepted"), ie.Get("forwarded"); fwd != 2*acc {
		t.Errorf("forwarded = %d, want Replication 2 x accepted %d", fwd, acc)
	}
	var drops int64
	for _, r := range schedd.DropReasons() {
		drops += tr.gw.DropEvents().Get(r)
	}
	outcomes := ie.Get("shed") + drops + ie.Get("ap_reserved") + ie.Get("station_limit") + ie.Get("dup") + ie.Get("accepted")
	if n := ie.Get("datagrams"); n != outcomes {
		t.Errorf("datagrams = %d, ingest outcomes = %d", n, outcomes)
	}
}
