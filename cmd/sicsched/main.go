// Command sicsched runs the paper's SIC-aware upload scheduler over a
// snapshot trace and reports per-snapshot schedules and gains.
//
// Usage:
//
//	tracegen -kind upload -days 1 -o day.jsonl
//	sicsched -trace day.jsonl -power-control
//	sicsched -trace day.jsonl -summary            # aggregate gains only
//
// For every snapshot with at least two clients it prints the chosen pairs,
// their transmission modes (SIC / serial / solo), the drain time and the
// gain over serial upload.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "upload snapshot trace (JSON Lines; see tracegen)")
		pktBits   = flag.Float64("packet-bits", 12000, "uplink packet size in bits")
		powerCtl  = flag.Bool("power-control", false, "enable §5.2 per-pair power reduction")
		multirate = flag.Bool("multirate", false, "enable §5.3 multirate packetization")
		summary   = flag.Bool("summary", false, "print only the aggregate gain distribution")
		maxPrint  = flag.Int("max-print", 20, "cap on per-snapshot listings (0 = unlimited)")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "sicsched: -trace is required (generate one with tracegen)")
		os.Exit(2)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	opts := sched.Options{
		Channel:      phy.Wifi20MHz,
		PacketBits:   *pktBits,
		PowerControl: *powerCtl,
		Multirate:    *multirate,
	}

	// Stream the trace one snapshot at a time: a multi-day trace never has
	// to fit in memory, and a corrupt line skips one record, not the run.
	sc := trace.NewSnapshotScanner(f)
	var gains []float64
	printed := 0
	for sc.Scan() {
		snap := sc.Snapshot()
		if len(snap.Clients) < 2 {
			continue
		}
		clients := make([]sched.Client, 0, len(snap.Clients))
		for _, c := range snap.Clients {
			if snr := phy.FromDB(c.SNRdB); snr > 0 {
				clients = append(clients, sched.Client{ID: c.ID, SNR: snr})
			}
		}
		if len(clients) < 2 {
			continue
		}
		s, err := sched.New(context.Background(), clients, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sicsched: snapshot %s@%d: %v (skipped)\n", snap.AP, snap.Unix, err)
			continue
		}
		gains = append(gains, s.Gain())
		if *summary || (*maxPrint > 0 && printed >= *maxPrint) {
			continue
		}
		printed++
		fmt.Printf("%s t=%ds  %d clients  drain %.3g ms  gain %.3f\n",
			snap.AP, snap.Unix, len(clients), s.Total*1e3, s.Gain())
		for _, sl := range s.Slots {
			switch sl.Mode {
			case sched.ModeSolo:
				fmt.Printf("    %-20s solo              %.3g ms\n", clients[sl.A].ID, sl.Time*1e3)
			default:
				fmt.Printf("    %-9s + %-9s %-7s scale=%.2f %.3g ms\n",
					clients[sl.A].ID, clients[sl.B].ID, sl.Mode, sl.WeakScale, sl.Time*1e3)
			}
		}
	}

	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if n := sc.Malformed(); n > 0 {
		fmt.Fprintf(os.Stderr, "sicsched: skipped %d malformed trace line(s)\n", n)
	}
	if len(gains) == 0 {
		fmt.Fprintln(os.Stderr, "sicsched: no schedulable snapshots in trace")
		os.Exit(1)
	}
	sum, err := stats.Summarize(gains)
	if err != nil {
		fatal(err)
	}
	e, err := stats.NewECDF(gains)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%d snapshots scheduled: gain mean %.3f, median %.3f, p90 %.3f, max %.3f; >20%% gain in %.1f%%\n",
		sum.N, sum.Mean, sum.Median, sum.P90, sum.Max, 100*e.FracAbove(1.2))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sicsched: %v\n", err)
	os.Exit(1)
}
