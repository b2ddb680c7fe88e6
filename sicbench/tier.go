package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/gateway"
	"repro/internal/schedd"
)

// tier is the serving deployment under test, in this process: two schedd
// shards behind one gateway at replication 2 and the shipped defaults.
type tier struct {
	shards []*schedd.Server
	gw     *gateway.Server
}

func startTier() (*tier, error) {
	t := &tier{}
	var addrs []gateway.ShardAddr
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("shard-%d", i)
		s, err := schedd.Start(schedd.Config{UDPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", ShardID: name})
		if err != nil {
			t.stop()
			return nil, fmt.Errorf("starting %s: %w", name, err)
		}
		t.shards = append(t.shards, s)
		addrs = append(addrs, gateway.ShardAddr{Name: name, TCP: s.TCPAddr().String(), UDP: s.UDPAddr().String()})
	}
	gw, err := gateway.Start(gateway.Config{Shards: addrs, Replication: 2})
	if err != nil {
		t.stop()
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	t.gw = gw
	return t, nil
}

// stop shuts the gateway, then the shards, down.
func (t *tier) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.gw != nil {
		t.gw.Shutdown(ctx)
	}
	for _, s := range t.shards {
		s.Shutdown(ctx)
	}
}

// ingestCounts is a read of the counters that flow control and the
// conservation ledger use; shard fields are summed over the shards.
type ingestCounts struct {
	gwDatagrams, gwShed, gwDrops, gwFastReject, gwDropCRC     int64
	gwAPReserved, gwStationLimit, gwDup, gwAccepted           int64
	gwForwarded, gwForwardErr                                 int64
	shDatagrams, shShed, shDrops, shDropCRC, shDup, shAPsFull int64
	shOK                                                      int64
}

var dropReasons = schedd.DropReasons()

func (t *tier) ingestCounts() ingestCounts {
	ie, de := t.gw.IngestEvents(), t.gw.DropEvents()
	c := ingestCounts{
		gwDatagrams:    ie.Get("datagrams"),
		gwShed:         ie.Get("shed"),
		gwFastReject:   ie.Get("fast_reject"),
		gwDropCRC:      de.Get("drop_crc"),
		gwAPReserved:   ie.Get("ap_reserved"),
		gwStationLimit: ie.Get("station_limit"),
		gwDup:          ie.Get("dup"),
		gwAccepted:     ie.Get("accepted"),
		gwForwarded:    ie.Get("forwarded"),
		gwForwardErr:   ie.Get("forward_err"),
	}
	for _, r := range dropReasons {
		c.gwDrops += de.Get(r)
	}
	for _, s := range t.shards {
		sc := s.Counters()
		c.shDatagrams += sc.Get("ingest_datagrams")
		c.shShed += sc.Get("ingest_shed")
		c.shDropCRC += sc.Get("drop_crc")
		c.shDup += sc.Get("drop_duplicate")
		c.shAPsFull += sc.Get("drop_aps_full")
		c.shOK += sc.Get("reports_ok")
		for _, r := range dropReasons {
			c.shDrops += sc.Get(r)
		}
	}
	return c
}

// gwHandled counts datagrams the gateway has an outcome for.
func (c ingestCounts) gwHandled() int64 {
	return c.gwShed + c.gwDrops + c.gwAPReserved + c.gwStationLimit + c.gwDup + c.gwAccepted
}

// shHandled counts forwarded copies the shards have an outcome for.
func (c ingestCounts) shHandled() int64 {
	return c.shShed + c.shDrops + c.shDup + c.shAPsFull + c.shOK
}

// sub returns the counts accumulated since b.
func (c ingestCounts) sub(b ingestCounts) ingestCounts {
	return ingestCounts{
		gwDatagrams: c.gwDatagrams - b.gwDatagrams, gwShed: c.gwShed - b.gwShed,
		gwDrops: c.gwDrops - b.gwDrops, gwFastReject: c.gwFastReject - b.gwFastReject,
		gwDropCRC: c.gwDropCRC - b.gwDropCRC, gwAPReserved: c.gwAPReserved - b.gwAPReserved,
		gwStationLimit: c.gwStationLimit - b.gwStationLimit, gwDup: c.gwDup - b.gwDup,
		gwAccepted: c.gwAccepted - b.gwAccepted, gwForwarded: c.gwForwarded - b.gwForwarded,
		gwForwardErr: c.gwForwardErr - b.gwForwardErr, shDatagrams: c.shDatagrams - b.shDatagrams,
		shShed: c.shShed - b.shShed, shDrops: c.shDrops - b.shDrops, shDropCRC: c.shDropCRC - b.shDropCRC,
		shDup: c.shDup - b.shDup, shAPsFull: c.shAPsFull - b.shAPsFull, shOK: c.shOK - b.shOK,
	}
}

// pending is the work still inside the tier: datagrams without a gateway
// outcome plus forwarded copies without a shard outcome.
func (c ingestCounts) pending(sent int64) int64 {
	return (sent - c.gwHandled()) + (c.gwForwarded - c.shHandled())
}

// conservation checks the cross-tier counter laws after the tier has
// drained. sent is every datagram the harness wrote to the gateway and
// rcvbufErrs the kernel's receive-buffer drops over the tier's life; it
// returns one line per law, and the gaps no law explains.
func conservation(c ingestCounts, sent, rcvbufErrs int64) (lines, gaps []string) {
	law := func(ok bool, format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if !ok {
			gaps = append(gaps, line)
			line += "  <- GAP"
		}
		lines = append(lines, line)
	}
	law(c.gwDatagrams == c.gwHandled(),
		"gateway: datagrams %d = shed %d + drops %d + ap_reserved %d + station_limit %d + dup %d + accepted %d",
		c.gwDatagrams, c.gwShed, c.gwDrops, c.gwAPReserved, c.gwStationLimit, c.gwDup, c.gwAccepted)
	law(2*c.gwAccepted == c.gwForwarded+c.gwForwardErr,
		"gateway: accepted %d x 2 = forwarded %d + forward_err %d", c.gwAccepted, c.gwForwarded, c.gwForwardErr)
	law(c.shDatagrams == c.shHandled(),
		"shards: datagrams %d = shed %d + drops %d + drop_duplicate %d + drop_aps_full %d + reports_ok %d",
		c.shDatagrams, c.shShed, c.shDrops, c.shDup, c.shAPsFull, c.shOK)
	lost := (sent - c.gwDatagrams) + (c.gwForwarded - c.shDatagrams)
	law(sent >= c.gwDatagrams && c.gwForwarded >= c.shDatagrams && lost <= rcvbufErrs,
		"kernel: (sent %d - gateway datagrams %d) + (forwarded %d - shard datagrams %d) = %d <= udp rcvbuf_errors %d",
		sent, c.gwDatagrams, c.gwForwarded, c.shDatagrams, lost, rcvbufErrs)
	return lines, gaps
}

// schedClient runs SCHED queries over one persistent connection with a
// fixed read buffer, the way an AP controller would.
type schedClient struct {
	conn net.Conn
	rd   *bufio.Reader
	line []byte
}

func dialSched(addr string) (*schedClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &schedClient{conn: conn, rd: bufio.NewReaderSize(conn, 64<<10), line: make([]byte, 0, 32)}, nil
}

func (c *schedClient) close() { c.conn.Close() }

// sched sends SCHED ap and returns the raw reply line, valid until the
// next call.
func (c *schedClient) sched(ap uint32) ([]byte, error) {
	if err := c.conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return nil, err
	}
	c.line = append(strconv.AppendUint(append(c.line[:0], "SCHED "...), uint64(ap), 10), '\n')
	if _, err := c.conn.Write(c.line); err != nil {
		return nil, err
	}
	reply, err := c.rd.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return nil, fmt.Errorf("SCHED %d: reply longer than %d bytes", ap, c.rd.Size())
	}
	return reply, err
}

// schedReply is the part of a gateway or shard SCHED reply the harness
// checks.
type schedReply struct {
	Error    string `json:"error"`
	Degraded bool   `json:"degraded"`
	Level    string `json:"level"`
	Slots    []struct {
		A uint32 `json:"a"`
		B uint32 `json:"b"`
	} `json:"slots"`
	Shards []struct {
		Shard string `json:"shard"`
		Level string `json:"level"`
	} `json:"shards"`
}

// checkStations decodes a SCHED reply and checks that it schedules exactly
// the AP's stations, each once. seen is scratch of stationsPerAP entries.
func checkStations(pop *population, apIdx int, raw []byte, reply *schedReply, seen []bool) error {
	*reply = schedReply{}
	if err := json.Unmarshal(raw, reply); err != nil {
		return fmt.Errorf("bad reply: %w", err)
	}
	if reply.Error != "" {
		return errors.New(reply.Error)
	}
	lo, hi := apStations(apIdx)
	clear(seen)
	count := 0
	mark := func(st uint32) error {
		i, ok := pop.index[st]
		if !ok || i < lo || i >= hi {
			return fmt.Errorf("station %d is not on AP %d", st, pop.aps[apIdx])
		}
		if seen[i-lo] {
			return fmt.Errorf("station %d scheduled twice", st)
		}
		seen[i-lo] = true
		count++
		return nil
	}
	for _, s := range reply.Slots {
		if err := mark(s.A); err != nil {
			return err
		}
		if s.B != 0 {
			if err := mark(s.B); err != nil {
				return err
			}
		}
	}
	if count != hi-lo {
		return fmt.Errorf("%d of the AP's %d stations scheduled", count, hi-lo)
	}
	return nil
}
