// Package emu runs the SIC-aware upload MAC as a trigger-frame protocol
// over a faulty simulated medium. The access point polls its stations for
// backlog, computes a schedule (package sched) and fires per-slot trigger
// frames commanding each station's power scale and bitrate; the addressed
// stations answer with data frames, which the medium superposes and hands
// to the AP's SIC receiver. Every frame is real: marshalled, CRC-32
// protected and decoded.
//
// Where package mac times an announced schedule analytically, emu runs
// the protocol itself, with lost, corrupted and stalled frames, bounded
// retries, duplicate suppression and partial results. The AP drives its
// stations in lock-step: each frame it sends is handled by the addressed
// station before the AP moves on, and the medium holds only the slot in
// progress. Virtual time advances per slot, so a run is a pure function
// of its stations and Config; on a perfect medium it reproduces package
// mac's data airtime within the kbit/s quantisation of commanded rates
// (see the tests).
package emu

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sched"
)

// Config parameterises an emulation run.
type Config struct {
	// Channel supplies bandwidth/noise.
	Channel phy.Channel
	// PacketBits is the data frame payload size on the air.
	PacketBits float64
	// Residual is the receiver's true residual-cancellation fraction.
	Residual float64
	// Sched configures the AP's scheduler. Channel/PacketBits are filled
	// from this Config if zero.
	Sched sched.Options
	// Seed drives the fault model's deterministic randomness; runs with
	// the same seed and topology reproduce byte for byte.
	Seed int64
	// Faults configures fault injection on the medium; the zero value is
	// a perfect channel.
	Faults FaultModel
	// MaxRetries bounds how many times the AP re-solicits a slot whose
	// expected transmissions went missing before giving up on the round;
	// 0 means the default of 3.
	MaxRetries int
	// MaxRounds bounds the poll→schedule→trigger rounds; 0 means a
	// backlog-proportional default. When exhausted, Run returns a partial
	// Result with Drained == false rather than an error.
	MaxRounds int

	// faultObserver, if set, receives the fault model's own injection
	// tally when the run ends — a test hook for cross-checking the
	// Result counters against what was actually injected.
	faultObserver func(mac.FaultCounters)
}

// Result summarises an emulation run.
type Result struct {
	// Delivered counts ACKed data frames per station, duplicates excluded.
	Delivered map[uint32]int
	// AirtimeData is the virtual time the medium carried data frames.
	AirtimeData float64
	// AirtimeOverhead is the virtual time spent on backlog polls/reports,
	// timed-out slot waits and retry backoff.
	AirtimeOverhead float64
	// Rounds is the number of poll→schedule→trigger rounds.
	Rounds int
	// DecodeFailures counts frames the AP could not decode (SIC failures
	// and CRC rejects alike).
	DecodeFailures int
	// Faults aggregates the AP's failure/recovery accounting: frames the
	// medium lost, CRC rejects, retry slots, timed-out slots and station
	// stalls observed during the run.
	Faults mac.FaultCounters
	// Drained reports whether every station's backlog emptied. False
	// means the round budget ran out and the Result is partial — the
	// counters above say why.
	Drained bool
}

// transmission is one station's frame on the air, tagged with the slot that
// solicited it.
type transmission struct {
	slot    slotKey
	station uint32
	typ     frame.Type // wire type, for per-type fault rolls
	snr     float64    // received SNR after any commanded power scaling
	rate    float64
	wire    []byte
	lost    bool // dropped by the fault model: occupies air, decodes nothing
}

// slotKey identifies a solicited slot by its global sequence number (the
// Seq field of the trigger frame that opened it). A flat sequence space —
// rather than packed round/slot halves — means retries and very long runs
// can never collide across rounds; the AP guards exhaustion explicitly.
type slotKey uint32

// slotResult is what the medium hands back to the AP for one slot.
type slotResult struct {
	airtime float64
	decoded []*frame.Frame
	failed  []uint32 // transmitted but undecodable (SIC failure or CRC reject)
	lost    []uint32 // uplink frames the fault model dropped in transit
	absent  []uint32 // solicited stations that never transmitted
	crc     int      // how many of failed were CRC rejects
}

// medium superposes the transmissions of the slot in progress; the AP
// accounts virtual time from each slot's airtime. The AP opens a slot,
// each station it solicits transmits into it or is marked absent, and
// resolve decodes it. With no slot open, the medium rejects every
// transmission and absence report.
type medium struct {
	rx     mac.SICReceiver
	faults *faultState // nil on a perfect channel

	open   bool
	slot   slotKey
	got    []transmission
	absent []uint32
}

// openSlot starts the slot the AP is about to trigger.
func (m *medium) openSlot(key slotKey) {
	m.open, m.slot, m.got, m.absent = true, key, nil, nil
}

// transmit puts one station's frame on the air in the open slot. The fault
// model may mark the frame lost (a deep fade: the air is occupied but the
// AP hears nothing) or flip a payload bit so the CRC check rejects it.
func (m *medium) transmit(tx transmission) error {
	if !m.open || tx.slot != m.slot {
		return fmt.Errorf("emu: transmission for unknown slot %d", tx.slot)
	}
	if m.faults != nil {
		if m.faults.dropFrame(tx.typ, tx.station, uint32(tx.slot)) {
			tx.lost = true
		} else {
			tx.wire = m.faults.corruptWire(tx.wire, tx.station, uint32(tx.slot))
		}
	}
	m.got = append(m.got, tx)
	return nil
}

// markAbsent records that a solicited station will not transmit in the
// open slot (its trigger was lost, or it is stalled). This is emulation
// machinery, not protocol: it stands in for the AP's carrier sense timing
// out on an idle slot.
func (m *medium) markAbsent(key slotKey, station uint32) error {
	if !m.open || key != m.slot {
		return fmt.Errorf("emu: absence report for unknown slot %d", key)
	}
	m.absent = append(m.absent, station)
	return nil
}

// resolve closes the open slot and decodes what was on the air.
func (m *medium) resolve() slotResult {
	m.open = false

	// Superpose the frames actually on the air. Lost frames occupy airtime
	// (their transmitter cannot know the fade) but contribute no signal at
	// the receiver.
	var arrivals []mac.Arrival
	var heard []transmission
	airtime := 0.0
	for _, g := range m.got {
		if t := txAirtime(g); t > airtime {
			airtime = t
		}
		if g.lost {
			continue
		}
		arrivals = append(arrivals, mac.Arrival{StationID: g.station, SNR: g.snr, RateBps: g.rate})
		heard = append(heard, g)
	}
	ok := m.rx.Decode(arrivals)
	res := slotResult{airtime: airtime, absent: m.absent}
	for _, g := range m.got {
		if g.lost {
			res.lost = append(res.lost, g.station)
		}
	}
	for i, g := range heard {
		if !ok[i] {
			res.failed = append(res.failed, g.station)
			continue
		}
		f, err := frame.Decode(g.wire)
		if err != nil {
			res.failed = append(res.failed, g.station)
			if errors.Is(err, frame.ErrBadChecksum) {
				res.crc++
			}
			continue
		}
		res.decoded = append(res.decoded, f)
	}
	return res
}

// txAirtime is the frame's airtime at its transmit rate.
func txAirtime(tx transmission) float64 {
	if tx.rate <= 0 {
		return math.Inf(1)
	}
	// Payload bits dominate; header overhead is carried in the payload size
	// the station chose.
	return float64(len(tx.wire)*8) / tx.rate
}

// stationActor is one uploading client: its queue, the sequence number of
// its head frame and its stall state. The AP hands it every frame that
// reaches it through handleFrame.
type stationActor struct {
	id      uint32
	snr     float64
	backlog int

	med  *medium
	ch   phy.Channel
	bits float64
	// seq numbers the head-of-queue frame and advances only on its ACK, so
	// a retransmission (after a failed decode or a lost ACK) reuses the
	// same sequence number and the AP can suppress duplicates.
	seq uint32
	// stallLeft counts remaining frames this station ignores while frozen
	// by an injected stall fault; stallCount totals the stall events.
	stallLeft  int
	stallCount int
}

// handleFrame dispatches one received frame, applying stall faults first: a
// frozen station ignores everything, but must still tell the medium that
// its solicited slots stay empty.
func (s *stationActor) handleFrame(f *frame.Frame) error {
	if s.stallLeft > 0 {
		s.stallLeft--
		if f.Type == frame.TypePoll {
			return s.med.markAbsent(slotKey(f.Seq), s.id)
		}
		return nil
	}
	switch f.Type {
	case frame.TypeAck:
		// Delivery confirmed: the packet leaves the queue only when the
		// ACK names the head frame, so stale re-ACKs after a lost ACK (and
		// retries after failed SIC decodes) are handled automatically.
		if f.Seq == s.seq && s.backlog > 0 {
			s.backlog--
			s.seq++
		}
		return nil
	case frame.TypePoll:
		if s.med.faults != nil {
			if n := s.med.faults.stallFor(s.id, f.Seq); n > 0 {
				s.stallCount++
				s.stallLeft = n - 1 // this trigger is the first missed frame
				return s.med.markAbsent(slotKey(f.Seq), s.id)
			}
		}
		return s.handleTrigger(f)
	}
	return nil
}

// handleTrigger reacts to a per-slot trigger frame: the payload is one
// schedule entry addressed to this station (entry.A), carrying its power
// scale; the trigger's DurationUS field carries the commanded bitrate in
// kbit/s. The station cannot compute its SIC rate itself — it doesn't know
// its partner's SNR — which is exactly why the AP commands it, as an
// 802.11ax trigger frame would.
func (s *stationActor) handleTrigger(f *frame.Frame) error {
	if len(f.Payload) == 0 {
		// Backlog poll: reply with the remaining queue depth in a short
		// report frame through the same slot machinery (count 1).
		return s.sendBacklogReport(f)
	}
	entries, err := frame.DecodeSchedule(f.Payload)
	if err != nil || len(entries) != 1 {
		return fmt.Errorf("emu: station %d: bad trigger: %v", s.id, err)
	}
	e := entries[0]
	if e.A != s.id {
		return nil // trigger addressed to another station
	}
	key := slotKey(f.Seq)
	if s.backlog == 0 {
		// The AP triggered on a stale backlog estimate (its poll or our
		// report was lost). Nothing is queued, so the slot stays empty
		// rather than fabricating a frame past the queue's end.
		return s.med.markAbsent(key, s.id)
	}

	snr := s.snr * e.WeakScale()
	rate := float64(f.DurationUS) * 1e3
	if rate <= 0 {
		return fmt.Errorf("emu: station %d: zero rate commanded", s.id)
	}

	// Size the payload so the whole wire frame (24-byte header + payload +
	// 4-byte CRC) occupies exactly PacketBits on the air.
	data := frame.Frame{
		Type: frame.TypeData, Src: s.id, Dst: 0, Seq: s.seq,
		Payload: make([]byte, int(s.bits/8)-28),
	}
	wire, err := data.Marshal()
	if err != nil {
		return fmt.Errorf("emu: station %d: %w", s.id, err)
	}
	return s.med.transmit(transmission{
		slot: key, station: s.id, typ: frame.TypeData, snr: snr, rate: rate, wire: wire,
	})
}

// sendBacklogReport answers a backlog poll: a small data frame whose
// 4-byte payload is the station's remaining queue depth, sent at the
// station's clean rate.
func (s *stationActor) sendBacklogReport(f *frame.Frame) error {
	key := slotKey(f.Seq)
	payload := []byte{
		byte(s.backlog >> 24), byte(s.backlog >> 16),
		byte(s.backlog >> 8), byte(s.backlog),
	}
	report := frame.Frame{Type: frame.TypeAck, Src: s.id, Dst: 0, Payload: payload}
	wire, err := report.Marshal()
	if err != nil {
		return fmt.Errorf("emu: station %d: report: %w", s.id, err)
	}
	return s.med.transmit(transmission{
		slot: key, station: s.id, typ: frame.TypeAck, snr: s.snr, rate: s.ch.Capacity(s.snr), wire: wire,
	})
}

// Run executes the emulation until every station's backlog drains.
func Run(ctx context.Context, stations []mac.Station, cfg Config) (Result, error) {
	if cfg.Channel.BandwidthHz <= 0 {
		return Result{}, errors.New("emu: Channel is required")
	}
	if cfg.PacketBits < 512 {
		return Result{}, errors.New("emu: PacketBits must be at least 512 (frame header + CRC)")
	}
	if cfg.Residual < 0 || cfg.Residual > 1 {
		return Result{}, errors.New("emu: Residual must be in [0,1]")
	}
	if err := cfg.Faults.validate(); err != nil {
		return Result{}, err
	}
	if cfg.MaxRetries < 0 {
		return Result{}, errors.New("emu: MaxRetries must be non-negative")
	}
	if cfg.MaxRounds < 0 {
		return Result{}, errors.New("emu: MaxRounds must be non-negative")
	}
	if err := mac.ValidateStations(stations); err != nil {
		return Result{}, fmt.Errorf("emu: %w", err)
	}
	opts := cfg.Sched
	if opts.Channel.BandwidthHz <= 0 {
		opts.Channel = cfg.Channel
	}
	if opts.PacketBits <= 0 {
		opts.PacketBits = cfg.PacketBits
	}

	faults := newFaultState(cfg.Faults, cfg.Seed)
	med := &medium{
		rx:     mac.SICReceiver{Channel: cfg.Channel, Residual: cfg.Residual},
		faults: faults,
	}
	actors := make(map[uint32]*stationActor, len(stations))
	for _, st := range stations {
		actors[st.ID] = &stationActor{
			id: st.ID, snr: st.SNR, backlog: st.Backlog,
			med: med, ch: cfg.Channel, bits: cfg.PacketBits,
		}
	}

	res, err := runAP(ctx, stations, actors, med, opts, cfg)
	if err != nil {
		return Result{}, err
	}
	// Stalls are injected station-side and indistinguishable from lost
	// triggers at the AP, so the stations' own counts fill that counter.
	for _, a := range actors {
		res.Faults.Stalls += a.stallCount
	}
	if cfg.faultObserver != nil {
		cfg.faultObserver(faults.injected())
	}
	return res, nil
}
