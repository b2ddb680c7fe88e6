// Package mac is a discrete-event MAC-layer simulator for WLAN upload with
// an SIC-capable access point. It exists to validate the paper's analytic
// completion times end to end: the same topologies are drained packet by
// packet on a simulated clock, with real wire-format frames (package
// frame) and an explicit SIC receiver model, and the measured drain times
// are compared against the closed-form predictions.
//
// Two MACs are provided:
//
//   - RunSerial: a CSMA/CA-flavoured baseline — one station at a time,
//     contention via binary-exponential backoff, DIFS/SIFS/ACK overheads.
//   - RunScheduled: the paper's §6 protocol — the AP computes an SIC-aware
//     schedule (package sched), announces it in a schedule frame, and the
//     slots execute with concurrent transmissions decoded by SIC.
//
// The receiver model implements exactly the idealised two-signal SIC the
// analysis assumes, plus a residual-cancellation knob for the imperfect-SIC
// ablation.
package mac

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/capture"
	"repro/internal/frame"
	"repro/internal/phy"
)

// Station is one uploading client.
type Station struct {
	// ID must be unique and non-zero (0 is the AP).
	ID uint32
	// SNR is the station's linear received SNR at the AP at full power.
	SNR float64
	// Backlog is the number of data frames the station must deliver.
	Backlog int
}

// Config parameterises a simulation run.
type Config struct {
	// Channel supplies bandwidth/noise for every rate computation.
	Channel phy.Channel
	// PacketBits is the data frame payload size on the air.
	PacketBits float64
	// AckBits is the ACK frame airtime size; ACKs are sent at BaseRate.
	AckBits float64
	// BaseRate is the control-frame bitrate (schedule and ACK frames).
	BaseRate float64
	// SlotTime, SIFS and DIFS are the 802.11-style timing constants in
	// seconds.
	SlotTime, SIFS, DIFS float64
	// CWMin is the initial contention window (slots) for the serial MAC.
	CWMin int
	// Residual is the fraction of a cancelled signal's power that remains
	// as interference (0 = perfect SIC).
	Residual float64
	// MaxRounds bounds scheduled-mode retries so a misconfigured run
	// terminates; 0 means a generous default.
	MaxRounds int
	// Seed drives backoff randomness.
	Seed int64
	// Capture, if non-nil, records every frame the simulation puts on the
	// air (data and schedule announcements) with its transmit timestamp.
	// Inspect the log with cmd/sicdump.
	Capture *capture.Writer
}

// captureFrame records a frame at simulated time t (seconds); it is a
// no-op without a capture writer. Capture failures abort the simulation —
// a half-written log is worse than none.
func (c Config) captureFrame(t float64, f *frame.Frame) error {
	if c.Capture == nil {
		return nil
	}
	wire, err := f.Marshal()
	if err != nil {
		return fmt.Errorf("mac: capture marshal: %w", err)
	}
	return c.Capture.WriteFrame(uint64(t*1e9), wire)
}

// DefaultConfig returns 802.11g-flavoured timing over the given channel.
func DefaultConfig(ch phy.Channel) Config {
	return Config{
		Channel:    ch,
		PacketBits: 12000, // 1500-byte MPDU
		AckBits:    112,   // 14-byte ACK
		BaseRate:   6e6,
		SlotTime:   9e-6,
		SIFS:       10e-6,
		DIFS:       28e-6,
		CWMin:      16,
		Seed:       1,
	}
}

func (c Config) validate() error {
	switch {
	case c.Channel.BandwidthHz <= 0 || c.Channel.NoiseW <= 0:
		return errors.New("mac: Channel is required")
	case c.PacketBits <= 0:
		return errors.New("mac: PacketBits must be positive")
	case c.AckBits <= 0:
		return errors.New("mac: AckBits must be positive")
	case c.BaseRate <= 0:
		return errors.New("mac: BaseRate must be positive")
	case c.SlotTime < 0 || c.SIFS < 0 || c.DIFS < 0:
		return errors.New("mac: timing constants must be non-negative")
	case c.CWMin < 1:
		return errors.New("mac: CWMin must be at least 1")
	case c.Residual < 0 || c.Residual > 1:
		return errors.New("mac: Residual must be in [0,1]")
	}
	return nil
}

// Result summarises a simulation run.
type Result struct {
	// Duration is the simulated time to drain every station's backlog.
	Duration float64
	// Delivered counts successfully ACKed data frames per station.
	Delivered map[uint32]int
	// DecodeFailures counts data frames the AP could not decode.
	DecodeFailures int
	// Collisions counts serial-MAC contention collisions.
	Collisions int
	// AirtimeData is the total time the medium carried data frames.
	AirtimeData float64
	// AirtimeOverhead is control/backoff/IFS time.
	AirtimeOverhead float64
	// Rounds is the number of scheduling rounds (scheduled mode only).
	Rounds int
	// Events is the number of discrete events processed.
	Events int
	// Faults aggregates failure/recovery accounting in the shared counter
	// type; the serial baseline records post-collision retries here, and
	// the emulator (package emu) reuses the same type for its
	// fault-injection tallies.
	Faults FaultCounters
}

// ValidateStations is the station check of every simulator run, here and
// in package emu: at least one station, ids neither the AP's 0 nor the
// broadcast address and never repeated, finite positive SNRs and
// non-negative backlogs.
func ValidateStations(stations []Station) error {
	if len(stations) == 0 {
		return errors.New("mac: no stations")
	}
	seen := map[uint32]bool{}
	for _, s := range stations {
		if s.ID == 0 {
			return errors.New("mac: station id 0 is reserved for the AP")
		}
		if s.ID == frame.Broadcast {
			return errors.New("mac: station id collides with broadcast address")
		}
		if seen[s.ID] {
			return fmt.Errorf("mac: duplicate station id %d", s.ID)
		}
		seen[s.ID] = true
		if !(s.SNR > 0) || math.IsInf(s.SNR, 1) || math.IsNaN(s.SNR) {
			return fmt.Errorf("mac: station %d has invalid SNR %v", s.ID, s.SNR)
		}
		if s.Backlog < 0 {
			return fmt.Errorf("mac: station %d has negative backlog", s.ID)
		}
	}
	return nil
}

// Arrival is one concurrent signal at the SIC receiver.
type Arrival struct {
	// StationID identifies the transmitter.
	StationID uint32
	// SNR is the received linear SNR (after any power scaling).
	SNR float64
	// RateBps is the bitrate the transmitter used.
	RateBps float64
}

// SICReceiver models the AP's PHY: strongest-first decoding with perfect or
// partial cancellation.
type SICReceiver struct {
	Channel phy.Channel
	// Residual is the fraction of cancelled power left behind.
	Residual float64
	// MaxDecodes bounds the number of signals recovered per reception;
	// the paper's analysis is two-signal SIC, so the default (0) means 2.
	MaxDecodes int
}

// Decode attempts to recover every arrival, strongest first. ok[i] reports
// whether arrivals[i] (in the caller's order) was decoded. Decoding stops at
// the first failure — an undecodable signal cannot be cancelled — and at
// MaxDecodes successes.
func (r SICReceiver) Decode(arrivals []Arrival) (ok []bool) {
	ok = make([]bool, len(arrivals))
	if len(arrivals) == 0 {
		return ok
	}
	maxDecodes := r.MaxDecodes
	if maxDecodes <= 0 {
		maxDecodes = 2
	}
	idx := make([]int, len(arrivals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return arrivals[idx[a]].SNR > arrivals[idx[b]].SNR })

	// Interference seen by the k-th strongest: all weaker signals at full
	// power plus residuals of everything already cancelled.
	decoded := 0
	for pos, i := range idx {
		if decoded >= maxDecodes {
			break
		}
		var interference float64
		for later := pos + 1; later < len(idx); later++ {
			interference += arrivals[idx[later]].SNR
		}
		for earlier := 0; earlier < pos; earlier++ {
			interference += r.Residual * arrivals[idx[earlier]].SNR
		}
		sinr := phy.SINR(arrivals[i].SNR, interference)
		if r.Channel.Capacity(sinr) >= arrivals[i].RateBps-1e-6 {
			ok[i] = true
			decoded++
			continue
		}
		break // cannot cancel what cannot be decoded
	}
	return ok
}
