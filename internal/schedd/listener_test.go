package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// sendUnread connects to addr with a 4 KiB receive buffer, writes n copies
// of line and never reads a reply.
func sendUnread(t *testing.T, addr, line string, n int) *net.TCPConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := c.(*net.TCPConn)
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(strings.Repeat(line+"\n", n))); err != nil {
		t.Fatal(err)
	}
	return conn
}

// waitHungUp polls with small writes until the peer has closed conn, which
// a write then reports. It fails once served, the count of commands the
// peer has answered, has stood still for 5 s without the hang-up.
func waitHungUp(t *testing.T, conn *net.TCPConn, served func() int64) {
	t.Helper()
	last, stalled := served(), time.Now()
	for time.Since(stalled) < 5*time.Second {
		time.Sleep(50 * time.Millisecond)
		if _, err := conn.Write([]byte("\n")); err != nil {
			return
		}
		if n := served(); n != last {
			last, stalled = n, time.Now()
		}
	}
	t.Fatalf("the connection whose replies went unread was never dropped (%d answered)", last)
}

// TestUnreadRepliesDropConn: a client that sends SCHEDs and never reads
// the replies fills the socket buffers until the daemon's reply write
// blocks. The write deadline (now+IdleTimeout) drops that connection, so
// the handler is freed and a 2 s Shutdown drains clean.
func TestUnreadRepliesDropConn(t *testing.T) {
	s, err := Start(Config{IdleTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var reports []Report
	for i := uint32(1); i <= 64; i++ {
		reports = append(reports, Report{AP: 1, Station: i, Seq: 1, SNRMilliDB: int32(5_000 + 400*i)})
	}
	sendReports(t, s, reports...)
	waitCounter(t, s, "reports_ok", 64)

	conn := sendUnread(t, s.TCPAddr().String(), "SCHED 1", 3000)
	waitHungUp(t, conn, func() int64 { return s.Counters().Get("queries") })
	if q := s.Counters().Get("queries"); q >= 3000 {
		t.Fatalf("all %d SCHEDs answered; the replies were never read, so the daemon should have given up", q)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestReplyGoldenBytes pins the daemon's reply encodings byte for byte:
// the SCHED reply (with pair and single-station slots), the error reply
// with and without a retry-after hint, and HEALTH with and without a
// shard name. The gateway, sicbench's reply check and deployed APs parse
// these bytes.
func TestReplyGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply any
		want  string
	}{
		{"sched pairs", SchedReply{AP: 7, Level: "blossom", Clients: 3, TotalMS: 1.2345678901234567, Gain: 1.5,
			Slots: []Slot{{Mode: "sic", A: 1, B: 2, Scale: 0.25, MS: 0.5}, {Mode: "serial", A: 3, MS: 1e-7}}, ElapsMS: 0.042},
			`{"ap":7,"level":"blossom","clients":3,"total_ms":1.2345678901234567,"gain":1.5,"slots":[{"mode":"sic","a":1,"b":2,"scale":0.25,"ms":0.5},{"mode":"serial","a":3,"ms":1e-7}],"elapsed_ms":0.042}`},
		{"sched solo", SchedReply{AP: 9, Level: "serial", Clients: 1, TotalMS: 2, Gain: 1,
			Slots: []Slot{{Mode: "solo", A: 4, MS: 2}}, ElapsMS: 1e21},
			`{"ap":9,"level":"serial","clients":1,"total_ms":2,"gain":1,"slots":[{"mode":"solo","a":4,"ms":2}],"elapsed_ms":1e+21}`},
		{"error", serve.ErrorReply{Error: "no fresh reports for ap 3"},
			`{"error":"no fresh reports for ap 3"}`},
		{"error retry-after", serve.ErrorReply{Error: "overloaded", RetryAfterMS: 100},
			`{"error":"overloaded","retry_after_ms":100}`},
		{"health", healthResponse{UptimeMS: 5050, APs: 2, Clients: 5, Sessions: 6,
			Counters: map[string]int64{"reports_ok": 4, "queries": 2, "drop_crc": 0}, Shard: "shard-a", Instance: "00112233445566ff", RingEpoch: 7},
			`{"uptime_ms":5050,"aps":2,"clients":5,"sessions":6,"counters":{"drop_crc":0,"queries":2,"reports_ok":4},"shard":"shard-a","instance":"00112233445566ff","ring_epoch":7}`},
		{"health standalone", healthResponse{UptimeMS: 1, Counters: map[string]int64{}, Instance: "ab"},
			`{"uptime_ms":1,"aps":0,"clients":0,"sessions":0,"counters":{},"instance":"ab","ring_epoch":0}`},
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
