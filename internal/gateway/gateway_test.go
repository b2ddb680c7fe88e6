package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/schedd"
)

// tier is one in-process deployment: a gateway in front of named shards.
type tier struct {
	gw     *Server
	shards map[string]*schedd.Server
}

// startShard boots one scheduler shard.
func startShard(t *testing.T, name, udpAddr, tcpAddr string) *schedd.Server {
	t.Helper()
	s, err := schedd.Start(schedd.Config{
		UDPAddr: udpAddr,
		TCPAddr: tcpAddr,
		ShardID: name,
	})
	if err != nil {
		t.Fatalf("starting shard %s: %v", name, err)
	}
	return s
}

// startTier boots n shards and a gateway over them. mutate can tweak the
// gateway config (probe cadence, replication, proxied addresses) before
// Start.
func startTier(t *testing.T, n int, mutate func(*Config)) *tier {
	t.Helper()
	tr := &tier{shards: make(map[string]*schedd.Server)}
	cfg := Config{
		// Parked prober by default: liveness tests opt in to a fast one.
		ProbeInterval: time.Hour,
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard-%c", 'a'+i)
		s := startShard(t, name, "", "")
		tr.shards[name] = s
		cfg.Shards = append(cfg.Shards, ShardAddr{
			Name: name,
			TCP:  s.TCPAddr().String(),
			UDP:  s.UDPAddr().String(),
		})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := Start(cfg)
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	tr.gw = gw
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		tr.gw.Shutdown(ctx)
		for _, s := range tr.shards {
			sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
			s.Shutdown(sctx)
			scancel()
		}
	})
	return tr
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sendReports pushes reports into the gateway's UDP ingest, pacing against
// the datagrams counter so loopback delivery and counting are serialised —
// the same trick the daemon's chaos tests use to make counters exact.
func sendReports(t *testing.T, gw *Server, reports []schedd.Report) {
	t.Helper()
	conn, err := net.Dial("udp", gw.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	base := gw.IngestEvents().Get("datagrams")
	for i, r := range reports {
		buf, err := r.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		want := base + int64(i) + 1
		waitFor(t, 5*time.Second, "gateway ingest to advance", func() bool {
			return gw.IngestEvents().Get("datagrams") >= want
		})
	}
}

// gwQuery runs one command line against the gateway and decodes the reply.
func gwQuery(t *testing.T, gw *Server, line string, out any) {
	t.Helper()
	conn, err := net.Dial("tcp", gw.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no reply to %q: %v", line, sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), out); err != nil {
		t.Fatalf("decoding reply to %q: %v (%s)", line, err, sc.Bytes())
	}
}

// slotStations flattens a merged schedule into the set of stations it
// serves.
func slotStations(resp schedResponse) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, slot := range resp.Slots {
		out[slot.A] = true
		if slot.B != 0 {
			out[slot.B] = true
		}
	}
	return out
}

// reportRound returns one report per station for the AP at the given seq.
func reportRound(stations []uint32, ap, seq uint32) []schedd.Report {
	var out []schedd.Report
	for i, st := range stations {
		out = append(out, schedd.Report{
			AP: ap, Station: st, Seq: seq,
			SNRMilliDB: int32(15000 + 500*i),
		})
	}
	return out
}

// TestGatewayFanoutMergeAndDedup: reports replicate to both shards (real
// AP at the owner, shadow AP at the replica), the fan-out queries both
// owners, and the merge emits every station exactly once — the shadow
// namespace keeps replicas out of the primaries' schedules entirely.
func TestGatewayFanoutMergeAndDedup(t *testing.T) {
	tr := startTier(t, 2, nil)
	stations := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	sendReports(t, tr.gw, reportRound(stations, 1, 1))

	// Replication 2 over 2 shards: every accepted report lands on both.
	waitFor(t, 5*time.Second, "shards to ingest the forwarded reports", func() bool {
		for _, s := range tr.shards {
			if s.Counters().Get("reports_ok") < int64(len(stations)) {
				return false
			}
		}
		return true
	})
	if got := tr.gw.IngestEvents().Get("forwarded"); got != int64(2*len(stations)) {
		t.Fatalf("forwarded = %d, want %d (replication 2)", got, 2*len(stations))
	}

	var resp schedResponse
	gwQuery(t, tr.gw, "SCHED 1", &resp)
	if resp.Degraded {
		t.Fatalf("healthy tier answered degraded: %+v", resp)
	}
	if resp.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", resp.Epoch)
	}
	got := slotStations(resp)
	for _, st := range stations {
		if !got[st] {
			t.Fatalf("station %d missing from merged schedule %v", st, got)
		}
	}
	if len(got) != len(stations) || resp.Clients != len(stations) {
		t.Fatalf("merged schedule serves %d stations (clients=%d), want %d", len(got), resp.Clients, len(stations))
	}
	// Both shards held all 8 stations, but the replicas sit in the shadow
	// namespace: the primaries' schedules are disjoint and nothing needed
	// deduplication.
	if got := tr.gw.QueryEvents().Get("merge_dup_slots"); got != 0 {
		t.Fatalf("healthy primaries overlapped (merge_dup_slots=%d); replicas leaked into real schedules", got)
	}
	// The replica copies are nonetheless warm and servable: a blind query
	// for the shadow AP reaches every shard's mirrored slice.
	var shadow schedResponse
	gwQuery(t, tr.gw, fmt.Sprintf("SCHED %d", 1|replicaAPBit), &shadow)
	shadowGot := slotStations(shadow)
	for _, st := range stations {
		if !shadowGot[st] {
			t.Fatalf("station %d missing from the shadow slices %v; replica copies not warm", st, shadowGot)
		}
	}

	// Duplicate and stale sequence numbers die at the gateway.
	pre := tr.gw.IngestEvents().Get("dup")
	sendReports(t, tr.gw, reportRound(stations[:3], 1, 1))
	// sendReports paces on the read loop's datagrams counter; dedup runs
	// after it, in the filter loop, so wait for the filter to catch up.
	waitFor(t, 5*time.Second, "replayed reports to be deduplicated", func() bool {
		return tr.gw.IngestEvents().Get("dup")-pre >= 3
	})
	if got := tr.gw.IngestEvents().Get("dup") - pre; got != 3 {
		t.Fatalf("dup = %d after 3 replayed reports, want 3", got)
	}
}

// TestGatewayFiltersJunkBeforeShards: malformed datagrams are counted by
// reason and never consume a single shard cycle.
func TestGatewayFiltersJunkBeforeShards(t *testing.T) {
	tr := startTier(t, 1, nil)
	conn, err := net.Dial("udp", tr.gw.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	good, err := schedd.Report{AP: 1, Station: 5, Seq: 1, SNRMilliDB: 9000}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0x00
	badCRC := append([]byte(nil), good...)
	badCRC[20] ^= 0x10 // payload flip: prefix passes, CRC dies
	junk := [][]byte{good[:5], badMagic, badCRC, append(append([]byte(nil), good...), 1, 2, 3)}
	for i, pkt := range junk {
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		want := int64(i + 1)
		waitFor(t, 5*time.Second, "junk datagram to be counted", func() bool {
			return tr.gw.IngestEvents().Get("datagrams") >= want
		})
	}
	waitFor(t, 5*time.Second, "drops to be tallied", func() bool {
		d := tr.gw.DropEvents()
		return d.Get("drop_short") == 1 && d.Get("drop_magic") == 1 &&
			d.Get("drop_crc") == 1 && d.Get("drop_oversize") == 1
	})
	// Three of the four die on the prefix alone; the CRC defect needs the
	// full decode.
	if got := tr.gw.IngestEvents().Get("fast_reject"); got != 3 {
		t.Fatalf("fast_reject = %d, want 3", got)
	}
	if got := tr.gw.IngestEvents().Get("forwarded"); got != 0 {
		t.Fatalf("junk was forwarded to a shard (forwarded=%d)", got)
	}
	for _, s := range tr.shards {
		if got := s.Counters().Get("ingest_datagrams"); got != 0 {
			t.Fatalf("shard saw %d datagrams; the gateway filter leaked", got)
		}
	}
}

// deafProxy fronts a shard's TCP listener with an asymmetric partition:
// client→server bytes pass, server→client bytes are fed to the emulator's
// partition switch and vanish. This is the one-way-deaf shard — it hears
// every query and answers into the void — that hedged requests must mask.
type deafProxy struct {
	ln    net.Listener
	chaos *emu.WireChaos
	// accepted counts client connections as they arrive; closed counts
	// them again once either end hangs up.
	accepted, closed atomic.Int64
}

func startDeafProxy(t *testing.T, target string, chaos *emu.WireChaos) *deafProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &deafProxy{ln: ln, chaos: chaos}
	t.Cleanup(func() { ln.Close() })
	go func() {
		var seq atomic.Uint32
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepted.Add(1)
			server, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				p.closed.Add(1)
				continue
			}
			go func() {
				defer server.Close()
				io.Copy(server, client) // inbound direction: the shard hears
				p.closed.Add(1)
			}()
			go func() {
				defer client.Close()
				buf := make([]byte, 4096)
				for {
					n, err := server.Read(buf)
					if err != nil {
						return
					}
					if p.chaos.DropDir(emu.DirOut, 0, seq.Add(1)) {
						continue // the reply vanishes
					}
					if _, err := client.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

// TestGatewayHedgeMasksOneWayDeafShard: a shard behind an outbound
// partition stays "up" (the prober is parked) but never answers. The
// hedged request to its stations' replica shard recovers the full
// schedule; the reply is honest about the degradation.
func TestGatewayHedgeMasksOneWayDeafShard(t *testing.T) {
	chaos, err := emu.NewWireChaos(emu.FaultModel{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	var p *deafProxy
	tr := startTier(t, 3, func(cfg *Config) {
		// Find shard-b (ring index 1) and interpose the deaf proxy on its
		// query listener only; its UDP ingest stays direct so it holds the
		// reports it will never manage to serve.
		p = startDeafProxy(t, cfg.Shards[1].TCP, chaos)
		cfg.Shards[1].TCP = p.ln.Addr().String()
		cfg.ShardDeadline = 100 * time.Millisecond
		cfg.HedgeDelay = 15 * time.Millisecond
		cfg.RetryBackoff = 5 * time.Millisecond
		cfg.QueryDeadline = 2 * time.Second
	})

	// Choose stations owned by shard-b (index 1) and replicated on shard-c
	// (index 2), using the same ring construction the gateway uses.
	ring := buildRing([]string{"shard-a", "shard-b", "shard-c"}, allLive(3), 64, 1)
	var stations []uint32
	for st := uint32(1); len(stations) < 4 && st < 100000; st++ {
		succ := ring.successors(st, 2)
		if len(succ) == 2 && succ[0] == 1 && succ[1] == 2 {
			stations = append(stations, st)
		}
	}
	if len(stations) < 4 {
		t.Fatal("could not find stations with owner=b replica=c")
	}

	sendReports(t, tr.gw, reportRound(stations, 3, 1))
	waitFor(t, 5*time.Second, "replica shard to hold the reports", func() bool {
		return tr.shards["shard-c"].Counters().Get("reports_ok") >= int64(len(stations))
	})

	// Now the shard goes deaf: it receives queries and answers into the
	// partition.
	chaos.SetPartition(emu.DirOut)

	var resp schedResponse
	gwQuery(t, tr.gw, "SCHED 3", &resp)
	got := slotStations(resp)
	for _, st := range stations {
		if !got[st] {
			t.Fatalf("station %d missing: the hedge did not mask the deaf shard (resp %+v)", st, resp)
		}
	}
	if !resp.Degraded {
		t.Fatal("reply not marked degraded although the primary never answered")
	}
	if tr.gw.QueryEvents().Get("hedges") == 0 || tr.gw.QueryEvents().Get("hedge_wins") == 0 {
		t.Fatalf("expected a winning hedge, counters: hedges=%d wins=%d",
			tr.gw.QueryEvents().Get("hedges"), tr.gw.QueryEvents().Get("hedge_wins"))
	}
	hedged := false
	for _, part := range resp.Shards {
		if part.Shard == "shard-c" && part.Hedged && part.Error == "" {
			hedged = true
		}
	}
	if !hedged {
		t.Fatalf("no winning hedged part in %+v", resp.Shards)
	}
	if chaos.PartitionDrops() == 0 {
		t.Fatal("the partition never swallowed a reply; the shard was not actually deaf")
	}

	// Every connection whose reply vanished timed out, so the gateway must
	// close it rather than pool it: off this proxy a reply may be late
	// rather than lost, and a pooled connection would hand it to whichever
	// query used the connection next.
	waitFor(t, 5*time.Second, "the gateway to close the connections whose replies vanished", func() bool {
		n := p.accepted.Load()
		return n > 0 && p.closed.Load() == n
	})
	healedAt := p.accepted.Load()

	// Heal the partition: the same primary answers again and the tier
	// serves clean.
	chaos.ClearPartition()
	waitFor(t, 5*time.Second, "clean un-degraded answer after healing", func() bool {
		var healed schedResponse
		gwQuery(t, tr.gw, "SCHED 3", &healed)
		return !healed.Degraded && len(slotStations(healed)) == len(stations)
	})
	if p.accepted.Load() <= healedAt {
		t.Fatal("the clean answer came over a connection from the partition; a timed-out connection was pooled")
	}
}

// TestGatewayKillShardDegradeRecover: kill -9 a shard mid-run. Queries
// keep succeeding with degraded=true and full station coverage via the
// replicas; the prober ejects the shard (epoch bump, skip-dead
// migrations); after a restart on the same addresses the prober re-admits
// it, sessions migrate home, and degraded clears.
func TestGatewayKillShardDegradeRecover(t *testing.T) {
	tr := startTier(t, 3, func(cfg *Config) {
		cfg.ProbeInterval = 20 * time.Millisecond
		cfg.ProbeTimeout = 100 * time.Millisecond
		cfg.FailThreshold = 3
		cfg.RecoverThreshold = 2
		cfg.ShardDeadline = 150 * time.Millisecond
		cfg.RetryBackoff = 5 * time.Millisecond
		cfg.HedgeDelay = 15 * time.Millisecond
		cfg.QueryDeadline = 2 * time.Second
	})
	stations := []uint32{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}
	const ap = 7
	seq := uint32(1)
	pump := func() {
		sendReports(t, tr.gw, reportRound(stations, ap, seq))
		seq++
	}
	pump()

	// Forwarding to the shards is async UDP: poll until the tier serves the
	// full clean schedule.
	waitFor(t, 5*time.Second, "clean baseline answer", func() bool {
		var resp schedResponse
		gwQuery(t, tr.gw, "SCHED 7", &resp)
		return !resp.Degraded && resp.Clients == len(stations)
	})

	// Kill shard-b abruptly: no drain, no snapshot, queued work lost.
	victim := tr.shards["shard-b"]
	victimUDP, victimTCP := victim.UDPAddr().String(), victim.TCPAddr().String()
	victim.Kill()

	// Queries keep succeeding while the shard is dead: degraded, with the
	// surviving shards' stations still served. (Full coverage returns once
	// the ring reacts — partial results, not failures, are the contract.)
	waitFor(t, 5*time.Second, "degraded partial answers during the outage", func() bool {
		var out schedResponse
		gwQuery(t, tr.gw, "SCHED 7", &out)
		return out.Degraded && len(slotStations(out)) > 0
	})

	waitFor(t, 5*time.Second, "prober to eject the dead shard", func() bool {
		live := tr.gw.LiveShards()
		return len(live) == 2 && tr.gw.Epoch() == 2
	})
	// Ejection cannot MOVE out of a dead process; the skipped migrations
	// are counted instead and the replicas carry the sessions. The
	// rebalance pass runs asynchronously after the epoch flips.
	waitFor(t, 5*time.Second, "ejection rebalance to record skip_dead", func() bool {
		return tr.gw.RebalanceEvents().Get("skip_dead") > 0
	})

	// Traffic continues against the shrunken ring: the dead shard's
	// stations now land at their replicas, and coverage is whole again —
	// still honestly degraded, because the primary's table is unreachable.
	pump()
	waitFor(t, 5*time.Second, "degraded-but-complete answers after ejection", func() bool {
		var out schedResponse
		gwQuery(t, tr.gw, "SCHED 7", &out)
		return out.Degraded && len(slotStations(out)) == len(stations)
	})

	// Restart the shard on its old addresses: fresh instance nonce, empty
	// table, ring epoch reset to zero.
	revived := startShard(t, "shard-b", victimUDP, victimTCP)
	tr.shards["shard-b"] = revived

	waitFor(t, 5*time.Second, "prober to re-admit the restarted shard", func() bool {
		return len(tr.gw.LiveShards()) == 3 && tr.gw.Epoch() == 3
	})
	// Re-admission migrates its sessions home from the interim owners.
	waitFor(t, 5*time.Second, "readmit rebalance to move sessions home", func() bool {
		return tr.gw.RebalanceEvents().Get("moves") > 0
	})
	waitFor(t, 5*time.Second, "restarted shard to learn the ring epoch", func() bool {
		return revived.RingEpoch() == 3
	})

	// With the tier whole again, degraded clears and coverage holds.
	pump()
	waitFor(t, 5*time.Second, "clean answers after recovery", func() bool {
		var rec schedResponse
		gwQuery(t, tr.gw, "SCHED 7", &rec)
		return !rec.Degraded && len(slotStations(rec)) == len(stations)
	})
	if tr.gw.TierEvents().Get("ejections") != 1 || tr.gw.TierEvents().Get("readmits") != 1 {
		t.Fatalf("tier counters: %s", tr.gw.TierEvents())
	}
	// The revived shard's sessions came back via MOVE/HANDOFF, not cold.
	if revived.SessionEvents().Get("handoff_in") == 0 {
		t.Fatal("no sessions were handed back to the revived shard")
	}
}

// TestGatewayChaosDeterministicDrops: a seeded fault model upstream of the
// gateway produces byte-identical drop-counter totals across runs — the
// tier's chaos observability is reproducible, so a failure seen once can
// be replayed exactly.
func TestGatewayChaosDeterministicDrops(t *testing.T) {
	run := func(seed int64) map[string]int64 {
		tr := startTier(t, 1, func(cfg *Config) {
			cfg.Replication = 1
		})
		chaos, err := emu.NewWireChaos(emu.FaultModel{Loss: 0.2, Corrupt: 0.3}, seed)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("udp", tr.gw.UDPAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		sent := int64(0)
		for station := uint32(1); station <= 10; station++ {
			for s := uint32(1); s <= 30; s++ {
				r := schedd.Report{AP: 1, Station: station, Seq: s, SNRMilliDB: 12000}
				buf, err := r.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if chaos.Drop(station, s) {
					continue
				}
				buf = chaos.Corrupt(buf, station, s)
				if _, err := conn.Write(buf); err != nil {
					t.Fatal(err)
				}
				sent++
				want := sent
				waitFor(t, 5*time.Second, "paced chaos datagram", func() bool {
					return tr.gw.IngestEvents().Get("datagrams") >= want
				})
			}
		}
		totals := tr.gw.DropEvents().Snapshot()
		totals["accepted"] = tr.gw.IngestEvents().Get("accepted")
		totals["dup"] = tr.gw.IngestEvents().Get("dup")
		totals["fast_reject"] = tr.gw.IngestEvents().Get("fast_reject")
		return totals
	}

	a, b := run(42), run(42)
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("same-seed chaos diverged on %s: %d vs %d\na=%v\nb=%v", k, v, b[k], a, b)
		}
	}
	faults := int64(0)
	for k, v := range a {
		if k != "accepted" {
			faults += v
		}
	}
	if faults == 0 || a["accepted"] == 0 {
		t.Fatalf("chaos run exercised nothing: %v", a)
	}
}
