// Package emu runs the SIC-aware upload MAC as a *live* concurrent system:
// the access point and every station are goroutines exchanging marshalled
// frames over a simulated radio medium, in the style of a real network
// stack (inbox channels, context cancellation, graceful shutdown).
//
// Where package mac advances a single-threaded event loop, emu exercises
// the protocol itself: the AP polls for backlog, computes a schedule
// (package sched), broadcasts it, then fires per-slot trigger frames; the
// addressed stations independently transmit data frames, which the medium
// superposes and hands to the AP's SIC receiver. Virtual time lives in the
// medium and advances per reception, so the run is deterministic despite
// the concurrency — the same topology must reproduce package mac's data
// airtime exactly (see the tests).
package emu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

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

// medium superposes concurrent transmissions; the AP accounts virtual time
// from each slot's airtime.
type medium struct {
	rx     mac.SICReceiver
	faults *faultState // nil on a perfect channel

	mu      sync.Mutex
	pending map[slotKey]*pendingSlot
}

type pendingSlot struct {
	expected int
	got      []transmission
	absent   []uint32
	done     chan slotResult
}

// expect registers a slot the AP is about to trigger; the returned channel
// yields the slot's outcome once all expected transmissions arrive or are
// reported absent.
func (m *medium) expect(key slotKey, n int) <-chan slotResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := &pendingSlot{expected: n, done: make(chan slotResult, 1)}
	m.pending[key] = ps
	return ps.done
}

// transmit delivers one station's frame into its slot; the completing
// transmission triggers decoding. The fault model may mark the frame lost
// (a deep fade: the air is occupied but the AP hears nothing) or flip a
// payload bit so the CRC check rejects it.
func (m *medium) transmit(tx transmission) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps, ok := m.pending[tx.slot]
	if !ok {
		return fmt.Errorf("emu: transmission for unknown slot %d", tx.slot)
	}
	if m.faults != nil {
		if m.faults.dropFrame(tx.typ, tx.station, uint32(tx.slot)) {
			tx.lost = true
		} else {
			tx.wire = m.faults.corruptWire(tx.wire, tx.station, uint32(tx.slot))
		}
	}
	ps.got = append(ps.got, tx)
	m.resolveLocked(tx.slot, ps)
	return nil
}

// absent records that a solicited station will never transmit in the slot
// (its trigger was lost, or it is stalled); the slot resolves once every
// expected transmitter has either arrived or been declared absent. This is
// emulation machinery, not protocol: it stands in for the AP's carrier
// sense timing out on an idle slot without blocking virtual time.
func (m *medium) absent(key slotKey, station uint32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps, ok := m.pending[key]
	if !ok {
		return fmt.Errorf("emu: absence report for unknown slot %d", key)
	}
	ps.absent = append(ps.absent, station)
	m.resolveLocked(key, ps)
	return nil
}

// resolveLocked decodes and completes the slot once all expected
// transmitters are accounted for. Callers hold m.mu.
func (m *medium) resolveLocked(key slotKey, ps *pendingSlot) {
	if len(ps.got)+len(ps.absent) < ps.expected {
		return
	}
	delete(m.pending, key)

	// Superpose the frames actually on the air. Lost frames occupy airtime
	// (their transmitter cannot know the fade) but contribute no signal at
	// the receiver.
	var arrivals []mac.Arrival
	var heard []transmission
	airtime := 0.0
	for _, g := range ps.got {
		if t := txAirtime(g); t > airtime {
			airtime = t
		}
		if g.lost {
			continue
		}
		arrivals = append(arrivals, mac.Arrival{StationID: g.station, SNR: g.snr, RateBps: g.rate})
		heard = append(heard, g)
	}
	ok2 := m.rx.Decode(arrivals)
	res := slotResult{airtime: airtime, absent: ps.absent}
	for _, g := range ps.got {
		if g.lost {
			res.lost = append(res.lost, g.station)
		}
	}
	for i, g := range heard {
		if !ok2[i] {
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
	ps.done <- res
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

// stationActor is one uploading client goroutine.
type stationActor struct {
	id      uint32
	snr     float64
	backlog int

	inbox chan *frame.Frame
	med   *medium
	ch    phy.Channel
	bits  float64
	// seq numbers the head-of-queue frame and advances only on its ACK, so
	// a retransmission (after a failed decode or a lost ACK) reuses the
	// same sequence number and the AP can suppress duplicates.
	seq    uint32
	faults *faultState
	// stallLeft counts remaining frames this station ignores while frozen
	// by an injected stall fault; stallCount totals the stall events, read
	// by Run only after the actor goroutine exits.
	stallLeft  int
	stallCount int
}

// run processes triggers until the context ends or the inbox closes.
func (s *stationActor) run(ctx context.Context, errc chan<- error) {
	for {
		select {
		case <-ctx.Done():
			return
		case f, ok := <-s.inbox:
			if !ok {
				return
			}
			if err := s.handleFrame(f); err != nil {
				select {
				case errc <- err:
				default:
				}
				return
			}
		}
	}
}

// handleFrame dispatches one received frame, applying stall faults first: a
// frozen station ignores everything, but must still tell the medium that
// its solicited slots stay empty so virtual time can move on.
func (s *stationActor) handleFrame(f *frame.Frame) error {
	if s.stallLeft > 0 {
		s.stallLeft--
		if f.Type == frame.TypePoll {
			return s.med.absent(slotKey(f.Seq), s.id)
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
		if s.faults != nil {
			if n := s.faults.stallFor(s.id, f.Seq); n > 0 {
				s.stallCount++
				s.stallLeft = n - 1 // this trigger is the first missed frame
				return s.med.absent(slotKey(f.Seq), s.id)
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
		return s.med.absent(key, s.id)
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
	opts := cfg.Sched
	if opts.Channel.BandwidthHz <= 0 {
		opts.Channel = cfg.Channel
	}
	if opts.PacketBits <= 0 {
		opts.PacketBits = cfg.PacketBits
	}

	faults := newFaultState(cfg.Faults, cfg.Seed)
	med := &medium{
		rx:      mac.SICReceiver{Channel: cfg.Channel, Residual: cfg.Residual},
		faults:  faults,
		pending: map[slotKey]*pendingSlot{},
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errc := make(chan error, len(stations))
	actors := make(map[uint32]*stationActor, len(stations))
	var wg sync.WaitGroup
	for _, st := range stations {
		if st.ID == 0 || st.ID == frame.Broadcast {
			return Result{}, fmt.Errorf("emu: invalid station id %d", st.ID)
		}
		if _, dup := actors[st.ID]; dup {
			return Result{}, fmt.Errorf("emu: duplicate station id %d", st.ID)
		}
		a := &stationActor{
			id: st.ID, snr: st.SNR, backlog: st.Backlog,
			inbox: make(chan *frame.Frame, 8),
			med:   med, ch: cfg.Channel, bits: cfg.PacketBits,
			faults: faults,
		}
		actors[st.ID] = a
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.run(ctx, errc)
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	res, err := runAP(ctx, stations, actors, med, opts, cfg, errc)
	cancel()
	wg.Wait()
	if err != nil {
		return Result{}, err
	}
	// Stalls are injected station-side and indistinguishable from lost
	// triggers at the AP, so the actors' own counts fill that counter;
	// safe to read now that every actor goroutine has exited.
	for _, a := range actors {
		res.Faults.Stalls += a.stallCount
	}
	if cfg.faultObserver != nil {
		cfg.faultObserver(faults.injected())
	}
	return res, nil
}
