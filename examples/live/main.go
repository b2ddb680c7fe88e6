// Live: the SIC-aware upload MAC run as its trigger protocol.
//
// Unlike the event-driven simulator (examples/uplink), which times an
// announced schedule analytically, here the AP and its stations exchange
// real wire-format frames over a simulated medium: the AP computes a
// schedule, fires per-slot trigger frames (commanding each station's power
// scale and bitrate, the way an 802.11ax trigger frame would), the
// addressed stations transmit, and the medium superposes their signals for
// the AP's SIC receiver. The run honours context cancellation and is
// deterministic.
//
// Run with: go run ./examples/live
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sicmac "repro"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	stations := []sicmac.Station{
		{ID: 1, SNR: sicmac.FromDB(32), Backlog: 5},
		{ID: 2, SNR: sicmac.FromDB(16), Backlog: 5},
		{ID: 3, SNR: sicmac.FromDB(28), Backlog: 5},
		{ID: 4, SNR: sicmac.FromDB(13), Backlog: 5},
	}

	cfg := sicmac.EmuConfig{
		Channel:    sicmac.Wifi20MHz,
		PacketBits: 12000,
		Sched: sicmac.SchedOptions{
			Channel: sicmac.Wifi20MHz, PacketBits: 12000, PowerControl: true,
		},
	}

	res, err := sicmac.RunEmulation(ctx, stations, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== live emulation (AP + stations exchanging frames, trigger-based uplink) ==")
	for _, s := range stations {
		fmt.Printf("station %d: delivered %d/%d frames\n", s.ID, res.Delivered[s.ID], s.Backlog)
	}
	fmt.Printf("rounds: %d, data airtime: %.3f ms, decode failures: %d\n",
		res.Rounds, res.AirtimeData*1e3, res.DecodeFailures)

	// Same topology through the event-driven simulator: the airtimes agree,
	// which is the point — the protocol is identical, only the execution
	// machinery differs.
	sim, err := sicmac.RunScheduled(stations, sicmac.DefaultMACConfig(sicmac.Wifi20MHz), cfg.Sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nevent-driven simulator's data airtime: %.3f ms (matches within rate quantisation)\n",
		sim.AirtimeData*1e3)
}
