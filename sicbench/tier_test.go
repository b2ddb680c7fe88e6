package main

import (
	"strings"
	"testing"
)

// balanced is a drained tier's counters for 100 datagrams: 80 accepted,
// 10 duplicates, 5 bad CRC and 5 bad magic at the gateway; every accepted
// report forwarded to two shards and folded in there.
func balanced() ingestCounts {
	return ingestCounts{
		gwDatagrams: 100, gwDrops: 10, gwFastReject: 5, gwDropCRC: 5, gwDup: 10, gwAccepted: 80,
		gwForwarded: 160, shDatagrams: 160, shOK: 160,
	}
}

func TestConservationBalanced(t *testing.T) {
	lines, gaps := conservation(balanced(), 100, 0)
	if len(gaps) != 0 {
		t.Fatalf("balanced counters reported gaps: %v", gaps)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d ledger lines, want 4", len(lines))
	}
}

func TestConservationGaps(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *ingestCounts) (sent, rcvbuf int64)
		law    string
	}{
		{"gateway outcome missing", func(c *ingestCounts) (int64, int64) {
			c.gwDatagrams++
			return 101, 0
		}, "gateway: datagrams"},
		{"forward unaccounted", func(c *ingestCounts) (int64, int64) {
			c.gwForwarded--
			c.shDatagrams--
			c.shOK--
			return 100, 0
		}, "x 2"},
		{"shard outcome missing", func(c *ingestCounts) (int64, int64) {
			c.shOK--
			return 100, 0
		}, "shards: datagrams"},
		// A copy lost between gateway and shard with no kernel drop on
		// record is a gap; the same loss with a receive-buffer drop is not.
		{"copy lost unexplained", func(c *ingestCounts) (int64, int64) {
			c.shDatagrams--
			c.shOK--
			return 100, 0
		}, "kernel:"},
		{"datagram lost before the gateway, unexplained", func(c *ingestCounts) (int64, int64) {
			return 101, 0
		}, "kernel:"},
	} {
		c := balanced()
		sent, rcvbuf := tc.mutate(&c)
		_, gaps := conservation(c, sent, rcvbuf)
		if len(gaps) != 1 || !strings.Contains(gaps[0], tc.law) {
			t.Errorf("%s: gaps %q, want one naming %q", tc.name, gaps, tc.law)
		}
	}
}

func TestConservationKernelDropsExplainLoss(t *testing.T) {
	c := balanced()
	c.shDatagrams -= 2
	c.shOK -= 2
	if _, gaps := conservation(c, 101, 3); len(gaps) != 0 {
		t.Errorf("1 datagram and 2 copies lost with 3 rcvbuf drops: gaps %v", gaps)
	}
	if _, gaps := conservation(c, 101, 2); len(gaps) != 1 {
		t.Errorf("3 lost with 2 rcvbuf drops: gaps %v, want one", gaps)
	}
}

func TestPendingCountsBothTiers(t *testing.T) {
	c := balanced()
	if p := c.pending(100); p != 0 {
		t.Errorf("drained tier pending = %d", p)
	}
	c.gwForwarded += 4 // four more copies on their way to the shards
	if p := c.pending(103); p != 7 {
		t.Errorf("pending = %d, want 3 datagrams + 4 copies", p)
	}
}
