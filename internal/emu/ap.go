package emu

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sched"
)

// plannedTx is one transmitter the AP solicits in a slot: the commanded
// power scale and bitrate. The trigger frame carries the rate in its
// DurationUS field, rounded to kbit/s — see execSlot.
type plannedTx struct {
	station uint32
	scale   float64
	rate    float64
	peer    uint32
	sic     bool
}

// reportBits is the wire size of a 4-byte backlog report frame:
// 24-byte header + 4-byte payload + 4-byte CRC.
const reportBits = (24 + 4 + 4) * 8

// encodeKbps encodes a commanded bitrate for a trigger frame's DurationUS
// field, which poll/trigger frames overload to carry kbit/s instead of
// microseconds. The rate is rounded to the nearest kbit/s, then stepped
// down one unit if rounding overshot the planned rate — a commanded rate
// above the link's achievable capacity would be undecodable by
// construction. Returns 0 for rates too low to encode; callers must treat
// that as an error, not command a zero rate.
func encodeKbps(rate float64) uint32 {
	kbps := uint32(math.Round(rate / 1e3))
	if kbps > 0 && float64(kbps)*1e3 > rate {
		kbps--
	}
	return kbps
}

// defaultMaxRetries bounds in-round slot re-solicitations when
// Config.MaxRetries is zero.
const defaultMaxRetries = 3

// runAP drives the protocol round by round:
//
//  1. poll every station for its backlog (short report frames),
//  2. compute the SIC-aware schedule over the stations that reported
//     pending traffic,
//  3. fire per-slot trigger frames, collect the medium's decode results,
//  4. ACK delivered frames (stations decrement their queues only on the
//     matching ACK, so retries after failed SIC decodes or lost ACKs are
//     automatic and duplicates are suppressed by sequence number).
//
// Under fault injection the loop is hardened: slots that resolve with
// missing transmitters charge the waited-out slot time to overhead and are
// re-solicited with bounded, backed-off retries; unanswered backlog polls
// fall back to the last known queue depth; and when the round budget is
// exhausted the AP returns the partial Result (Drained == false) with its
// failure counters instead of an opaque error.
//
// The loop ends when every station reports an empty queue.
func runAP(ctx context.Context, stations []mac.Station, actors map[uint32]*stationActor,
	med *medium, opts sched.Options, cfg Config) (Result, error) {

	res := Result{Delivered: map[uint32]int{}}
	var order []uint32
	snrOf := map[uint32]float64{}
	// lastKnown starts from the admitted queue depths and is refreshed by
	// every successful backlog report; it is the AP's fallback when a poll
	// goes unanswered past the retry budget.
	lastKnown := map[uint32]int{}
	totalBacklog := 0
	for _, st := range stations {
		order = append(order, st.ID)
		snrOf[st.ID] = st.SNR
		lastKnown[st.ID] = st.Backlog
		totalBacklog += st.Backlog
	}
	failed := map[uint32]bool{}
	// nextFrame is the next expected data-frame sequence number per
	// station; decoded frames below it are retransmissions whose ACK was
	// lost — re-ACKed but not re-counted.
	nextFrame := map[uint32]uint32{}
	maxRounds := 4*totalBacklog + 16
	if cfg.MaxRounds > 0 {
		maxRounds = cfg.MaxRounds
	}
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = defaultMaxRetries
	}

	// Slots draw from a single flat 32-bit sequence space — one number per
	// solicitation attempt, never reused — so sequence numbers cannot
	// collide across rounds or retries. Exhaustion is guarded explicitly
	// rather than silently wrapping.
	slotSeq := uint32(0)
	nextSlotSeq := func() (uint32, error) {
		if slotSeq == math.MaxUint32 {
			return 0, fmt.Errorf("emu: slot sequence space exhausted after %d slots", slotSeq)
		}
		slotSeq++
		return slotSeq, nil
	}

	// deliver hands a frame to its station, which handles it before deliver
	// returns. The fault model may drop the frame in transit: a lost
	// poll/trigger leaves its slot empty (the medium marks the station
	// absent), a lost ACK is simply gone — the station re-reports its
	// backlog and retransmits, and duplicate suppression absorbs it. salt
	// is the soliciting slot's sequence number, so a re-sent ACK for the
	// same data frame re-rolls its fate.
	deliver := func(id uint32, f *frame.Frame, salt uint32) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if med.faults != nil && med.faults.dropFrame(f.Type, id, salt) {
			res.Faults.FramesLost++
			if f.Type == frame.TypePoll {
				return med.markAbsent(slotKey(f.Seq), id)
			}
			return nil
		}
		return actors[id].handleFrame(f)
	}

	// plannedAirtime is how long the slot is scheduled to occupy the
	// medium: the slowest planned transmitter's full frame. The AP charges
	// this (minus whatever actually flew) when a slot times out.
	plannedAirtime := func(txs []plannedTx, data bool) float64 {
		bits := cfg.PacketBits
		if !data {
			bits = reportBits
		}
		longest := 0.0
		for _, tx := range txs {
			kbps := encodeKbps(tx.rate)
			if kbps == 0 {
				continue
			}
			if t := bits / (float64(kbps) * 1e3); t > longest {
				longest = t
			}
		}
		return longest
	}

	// execSlot opens a slot, triggers the planned transmitters and
	// resolves the slot; data=false marks poll/report slots whose airtime
	// is overhead.
	execSlot := func(seq uint32, txs []plannedTx, data bool) (*slotResult, error) {
		med.openSlot(slotKey(seq))
		for _, tx := range txs {
			var payload []byte
			if data {
				var err error
				payload, err = frame.MarshalSchedule([]frame.ScheduleEntry{{
					A:               tx.station,
					B:               tx.peer,
					Concurrent:      tx.sic,
					WeakScaleMicros: frame.ScaleToMicros(tx.scale),
				}})
				if err != nil {
					return nil, fmt.Errorf("emu: trigger payload: %w", err)
				}
			}
			// DurationUS is overloaded on trigger frames: it carries the
			// commanded bitrate in kbit/s (see encodeKbps). A rate too low
			// to encode is a scheduling bug, not a frame to silently
			// command at zero.
			kbps := encodeKbps(tx.rate)
			if kbps == 0 {
				return nil, fmt.Errorf("emu: commanded rate %g bit/s for station %d rounds to zero kbit/s on the wire",
					tx.rate, tx.station)
			}
			trig := &frame.Frame{
				Type: frame.TypePoll, Src: 0, Dst: tx.station,
				Seq:        seq,
				DurationUS: kbps,
				Payload:    payload,
			}
			if err := deliver(tx.station, trig, seq); err != nil {
				return nil, err
			}
		}
		r := med.resolve()
		if data {
			res.AirtimeData += r.airtime
		} else {
			res.AirtimeOverhead += r.airtime
		}
		return &r, nil
	}

	// runTxs solicits txs in one slot and re-solicits transmitters that
	// went missing — lost trigger, lost uplink frame, stalled station —
	// up to maxRetries times with a linear virtual-time backoff. Overhead
	// slots also retry undecodable (corrupted) reports; data-slot decode
	// failures are left to the round-level ARQ path instead, because
	// re-running the same SIC slot at the same rates would fail again.
	runTxs := func(txs []plannedTx, data bool, onDecoded func(*frame.Frame, uint32) error) error {
		remaining := txs
		for attempt := 0; ; attempt++ {
			seq, err := nextSlotSeq()
			if err != nil {
				return err
			}
			r, err := execSlot(seq, remaining, data)
			if err != nil {
				return err
			}
			res.Faults.FramesLost += len(r.lost)
			res.Faults.CRCRejects += r.crc
			for _, f := range r.decoded {
				if err := onDecoded(f, seq); err != nil {
					return err
				}
			}
			retry := map[uint32]bool{}
			for _, id := range r.lost {
				retry[id] = true
			}
			for _, id := range r.absent {
				retry[id] = true
			}
			for _, id := range r.failed {
				res.DecodeFailures++
				if data {
					failed[id] = true
				} else {
					retry[id] = true
				}
			}
			if len(retry) == 0 {
				return nil
			}
			// The AP waited out the slot's scheduled duration before
			// declaring the timeout; charge the idle remainder.
			res.Faults.TimedOutSlots++
			if planned := plannedAirtime(remaining, data); planned > r.airtime {
				res.AirtimeOverhead += planned - r.airtime
			}
			if attempt >= maxRetries {
				return nil // give up; the next backlog poll tries again
			}
			var next []plannedTx
			for _, tx := range remaining {
				if retry[tx.station] {
					next = append(next, tx)
				}
			}
			remaining = next
			res.Faults.Retries++
			// Linear backoff in units of the retried slot's length.
			res.AirtimeOverhead += plannedAirtime(remaining, data) * float64(attempt+1)
		}
	}

	// dataDecoded confirms a decoded data frame to its sender and updates
	// the delivery accounting, suppressing duplicates by sequence number.
	dataDecoded := func(f *frame.Frame, slot uint32) error {
		delete(failed, f.Src)
		if f.Seq == nextFrame[f.Src] {
			nextFrame[f.Src]++
			res.Delivered[f.Src]++
		}
		ack := &frame.Frame{Type: frame.TypeAck, Src: 0, Dst: f.Src, Seq: f.Seq}
		return deliver(f.Src, ack, slot)
	}

	// pollBacklogs queries every station (one report slot each) and returns
	// the pending queue depths; a station that stays silent through the
	// retry budget is assumed to hold its last reported backlog.
	pollBacklogs := func() (map[uint32]int, error) {
		backlog := map[uint32]int{}
		for _, id := range order {
			tx := plannedTx{station: id, scale: 1, rate: cfg.Channel.Capacity(snrOf[id]), peer: frame.Broadcast}
			depth := -1
			err := runTxs([]plannedTx{tx}, false, func(f *frame.Frame, _ uint32) error {
				if len(f.Payload) != 4 {
					return fmt.Errorf("emu: bad backlog report from %d", id)
				}
				depth = int(binary.BigEndian.Uint32(f.Payload))
				return nil
			})
			if err != nil {
				return nil, err
			}
			if depth >= 0 {
				lastKnown[id] = depth
			}
			backlog[id] = lastKnown[id]
		}
		return backlog, nil
	}

	round := 0
	for {
		round++
		if round > maxRounds {
			// Round budget exhausted: degrade gracefully. The partial
			// Result carries the delivery and failure accounting so the
			// caller can see what drained and why the rest did not.
			return res, nil
		}

		backlog, err := pollBacklogs()
		if err != nil {
			return Result{}, err
		}
		var pendingIDs []uint32
		for _, id := range order {
			if backlog[id] > 0 {
				pendingIDs = append(pendingIDs, id)
			}
		}
		if len(pendingIDs) == 0 {
			break
		}
		res.Rounds++

		runSolo := func(id uint32) error {
			tx := plannedTx{station: id, scale: 1, rate: cfg.Channel.Capacity(snrOf[id]), peer: frame.Broadcast}
			return runTxs([]plannedTx{tx}, true, dataDecoded)
		}

		// ARQ recovery: last round's failures transmit alone first.
		var schedIDs []uint32
		for _, id := range pendingIDs {
			if failed[id] {
				if err := runSolo(id); err != nil {
					return Result{}, err
				}
				continue
			}
			schedIDs = append(schedIDs, id)
		}
		if len(schedIDs) == 0 {
			continue
		}

		clients := make([]sched.Client, len(schedIDs))
		for i, id := range schedIDs {
			clients[i] = sched.Client{ID: fmt.Sprint(id), SNR: snrOf[id]}
		}
		schedule, err := sched.New(ctx, clients, opts)
		if err != nil {
			return Result{}, fmt.Errorf("emu: round %d: %w", round, err)
		}

		for _, sl := range schedule.Slots {
			switch sl.Mode {
			case sched.ModeSolo:
				if err := runSolo(schedIDs[sl.A]); err != nil {
					return Result{}, err
				}
			case sched.ModeSerial:
				for _, k := range []int{sl.A, sl.B} {
					if err := runSolo(schedIDs[k]); err != nil {
						return Result{}, err
					}
				}
			case sched.ModeSIC:
				idA, idB := schedIDs[sl.A], schedIDs[sl.B]
				strong, weak := idA, idB
				if snrOf[idB] > snrOf[idA] {
					strong, weak = idB, idA
				}
				// Plan with the scale as the station will actually apply it
				// after wire quantisation, or the commanded rates would
				// overshoot the achieved SINRs by a rounding hair.
				scaleQ := float64(frame.ScaleToMicros(sl.WeakScale)) / 1e6
				weakSNR := snrOf[weak] * scaleQ
				strongRate := cfg.Channel.Capacity(phy.SINR(snrOf[strong], weakSNR))
				weakRate := cfg.Channel.Capacity(phy.SINR(weakSNR, opts.Residual*snrOf[strong]))
				txs := []plannedTx{
					{station: strong, scale: 1, rate: strongRate, peer: weak, sic: true},
					{station: weak, scale: scaleQ, rate: weakRate, peer: strong, sic: true},
				}
				if err := runTxs(txs, true, dataDecoded); err != nil {
					return Result{}, err
				}
			}
		}
	}
	res.Drained = true
	return res, nil
}
