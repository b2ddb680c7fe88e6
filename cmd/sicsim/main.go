// Command sicsim drives the discrete-event MAC simulator: it drains a
// configurable upload scenario under both the serial CSMA baseline and the
// SIC-aware scheduled MAC, and reports the end-to-end comparison. With
// -emu (implied by any fault flag) it additionally drains the same
// scenario through the trigger-protocol emulator, which exchanges real
// frames over an optionally faulty medium.
//
// Usage:
//
//	sicsim -stations 30,15,28,14 -backlog 8
//	sicsim -stations 30,15 -residual 0.02 -power-control
//	sicsim -stations 30,15,28,14 -emu -loss 0.05 -corrupt 0.02 -stall 0.1
//
// -stations takes per-station SNRs at the AP in dB. -loss, -corrupt and
// -stall are probabilities in [0,1]; faults are injected deterministically
// from -seed, so a run is reproducible bit for bit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/atomicio"
	"repro/internal/capture"
	"repro/internal/emu"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sched"
)

func main() {
	var (
		stationsArg = flag.String("stations", "32,16,28,13", "comma-separated station SNRs at the AP (dB)")
		backlog     = flag.Int("backlog", 4, "data frames per station")
		pktBits     = flag.Float64("packet-bits", 12000, "data frame size in bits")
		residual    = flag.Float64("residual", 0, "fraction of cancelled power left as interference (imperfect SIC)")
		powerCtl    = flag.Bool("power-control", false, "enable per-pair power reduction in the scheduler")
		seed        = flag.Int64("seed", 1, "backoff and fault-injection randomness seed")
		capturePath = flag.String("capture", "", "record the scheduled run's frames to this file (inspect with sicdump)")
		emuRun      = flag.Bool("emu", false, "also drain the scenario through the trigger-protocol emulator")
		loss        = flag.Float64("loss", 0, "emulator medium: per-frame loss probability (implies -emu)")
		corrupt     = flag.Float64("corrupt", 0, "emulator medium: per-frame payload bit-flip probability (implies -emu)")
		stall       = flag.Float64("stall", 0, "emulator stations: per-trigger stall probability (implies -emu)")
		stallSlots  = flag.Int("stall-slots", 0, "emulator stations: frames ignored per stall (0 = default)")
	)
	flag.Parse()

	var stations []mac.Station
	for i, s := range strings.Split(*stationsArg, ",") {
		db, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal(fmt.Errorf("parsing -stations entry %q: %w", s, err))
		}
		stations = append(stations, mac.Station{
			ID:      uint32(i + 1),
			SNR:     phy.FromDB(db),
			Backlog: *backlog,
		})
	}

	cfg := mac.DefaultConfig(phy.Wifi20MHz)
	cfg.PacketBits = *pktBits
	cfg.Residual = *residual
	cfg.Seed = *seed
	opts := sched.Options{Channel: cfg.Channel, PacketBits: *pktBits, PowerControl: *powerCtl}

	// The capture file is staged and only renamed into place once the
	// scheduled run has completed and the writer flushed, so a crash or
	// mid-run failure never leaves a truncated capture; Close errors
	// surface through Commit instead of being dropped.
	var captureFile *atomicio.File
	var captureW *capture.Writer
	if *capturePath != "" {
		f, err := atomicio.Create(*capturePath)
		if err != nil {
			fatal(err)
		}
		defer f.Abort() // no-op once committed
		w, err := capture.NewWriter(f)
		if err != nil {
			fatal(err)
		}
		captureFile, captureW = f, w
		cfg.Capture = w
	}

	serialCfg := cfg
	serialCfg.Capture = nil // the capture records only the scheduled run
	serial, err := mac.RunSerial(stations, serialCfg)
	if err != nil {
		fatal(fmt.Errorf("serial MAC: %w", err))
	}
	scheduled, err := mac.RunScheduled(stations, cfg, opts)
	if err != nil {
		fatal(fmt.Errorf("scheduled MAC: %w", err))
	}
	if captureFile != nil {
		if err := captureW.Flush(); err != nil {
			fatal(fmt.Errorf("flushing capture: %w", err))
		}
		if err := captureFile.Commit(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sicsim: captured %d frame(s) to %s\n", captureW.Count(), *capturePath)
	}

	total := 0
	for _, s := range stations {
		total += s.Backlog
	}
	fmt.Printf("scenario: %d stations × %d frames (%g-bit frames)\n", len(stations), *backlog, *pktBits)
	fmt.Printf("%-18s %12s %10s %10s %9s %8s\n", "MAC", "drain (ms)", "data (ms)", "ovhd (ms)", "collide", "fail")
	fmt.Printf("%-18s %12.3f %10.3f %10.3f %9d %8d\n", "serial CSMA",
		serial.Duration*1e3, serial.AirtimeData*1e3, serial.AirtimeOverhead*1e3, serial.Collisions, serial.DecodeFailures)
	fmt.Printf("%-18s %12.3f %10.3f %10.3f %9d %8d\n", "SIC scheduled",
		scheduled.Duration*1e3, scheduled.AirtimeData*1e3, scheduled.AirtimeOverhead*1e3, scheduled.Collisions, scheduled.DecodeFailures)
	fmt.Printf("speedup: %.3f×  (rounds=%d, residual=%g)\n",
		serial.Duration/scheduled.Duration, scheduled.Rounds, *residual)

	// Every backlogged frame must be delivered — in aggregate and per
	// station (a per-station check alone would miss a counter that leaks
	// deliveries between stations; an aggregate check alone would miss a
	// swap).
	delivered := 0
	for _, s := range stations {
		delivered += scheduled.Delivered[s.ID]
		if scheduled.Delivered[s.ID] != *backlog {
			fatal(fmt.Errorf("station %d delivered %d/%d frames", s.ID, scheduled.Delivered[s.ID], *backlog))
		}
	}
	if delivered != total {
		fatal(fmt.Errorf("scheduled MAC delivered %d/%d frames in aggregate", delivered, total))
	}

	// Any explicitly set fault flag implies -emu, including out-of-range
	// values: the emulator's validation rejects them instead of the flag
	// being silently ignored.
	if *emuRun || *loss != 0 || *corrupt != 0 || *stall != 0 {
		runEmulator(stations, cfg, opts, *loss, *corrupt, *stall, *stallSlots, total)
	}
}

// runEmulator drains the scenario through the trigger-protocol emulator
// over a (possibly faulty) medium and reports drain airtime plus the failure
// counters.
func runEmulator(stations []mac.Station, cfg mac.Config, opts sched.Options,
	loss, corrupt, stall float64, stallSlots, total int) {

	ecfg := emu.Config{
		Channel:    cfg.Channel,
		PacketBits: cfg.PacketBits,
		Residual:   cfg.Residual,
		Sched:      opts,
		Seed:       cfg.Seed,
		Faults: emu.FaultModel{
			Loss:       loss,
			Corrupt:    corrupt,
			Stall:      stall,
			StallSlots: stallSlots,
		},
	}
	res, err := emu.Run(context.Background(), stations, ecfg)
	if err != nil {
		fatal(fmt.Errorf("live emulator: %w", err))
	}
	delivered := 0
	for _, s := range stations {
		delivered += res.Delivered[s.ID]
	}
	fmt.Printf("\nlive emulator (loss=%g corrupt=%g stall=%g seed=%d):\n", loss, corrupt, stall, cfg.Seed)
	fmt.Printf("  drain %.3f ms  (data %.3f ms, overhead %.3f ms), %d rounds\n",
		(res.AirtimeData+res.AirtimeOverhead)*1e3, res.AirtimeData*1e3, res.AirtimeOverhead*1e3, res.Rounds)
	fmt.Printf("  delivered %d/%d frames, decode failures %d\n", delivered, total, res.DecodeFailures)
	fmt.Printf("  faults: %d frames lost, %d CRC rejects, %d retries, %d timed-out slots, %d stalls\n",
		res.Faults.FramesLost, res.Faults.CRCRejects, res.Faults.Retries,
		res.Faults.TimedOutSlots, res.Faults.Stalls)
	if !res.Drained {
		fatal(fmt.Errorf("live emulator gave up before draining: %d/%d frames delivered", delivered, total))
	}
	if delivered != total {
		fatal(fmt.Errorf("live emulator delivered %d/%d frames", delivered, total))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sicsim: %v\n", err)
	os.Exit(1)
}
