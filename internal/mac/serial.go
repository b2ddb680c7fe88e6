package mac

import (
	"fmt"
	"math/rand"

	"repro/internal/frame"
	"repro/internal/phy"
)

// RunSerial simulates the no-SIC baseline: stations contend with
// binary-exponential backoff and transmit one frame at a time at their
// interference-free best rate; each success costs DIFS + backoff + data
// airtime + SIFS + ACK.
//
// Collisions happen when two stations draw the same backoff slot; colliders
// double their contention window and retry, exactly as a simplified DCF.
func RunSerial(stations []Station, cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if err := ValidateStations(stations); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	type st struct {
		Station
		cw      int
		seq     uint32
		pending int
	}
	sts := make([]*st, len(stations))
	for i, s := range stations {
		sts[i] = &st{Station: s, cw: cfg.CWMin, pending: s.Backlog}
	}

	res := Result{Delivered: map[uint32]int{}}
	now := 0.0
	ackTime := cfg.AckBits / cfg.BaseRate

	remaining := func() []*st {
		var out []*st
		for _, s := range sts {
			if s.pending > 0 {
				out = append(out, s)
			}
		}
		return out
	}

	for {
		contenders := remaining()
		if len(contenders) == 0 {
			break
		}
		// Draw backoffs; the smallest goes first. Equal minima collide.
		minSlot, winners := 1<<30, []*st(nil)
		for _, s := range contenders {
			slot := rng.Intn(s.cw)
			switch {
			case slot < minSlot:
				minSlot, winners = slot, []*st{s}
			case slot == minSlot:
				winners = append(winners, s)
			}
		}
		now += cfg.DIFS + float64(minSlot)*cfg.SlotTime
		res.AirtimeOverhead += cfg.DIFS + float64(minSlot)*cfg.SlotTime

		if len(winners) > 1 {
			// Collision: the medium is busy for the longest colliding frame,
			// nobody delivers, colliders double their windows.
			res.Collisions++
			res.Faults.Retries += len(winners) // every collider re-contends
			longest := 0.0
			for _, s := range winners {
				t := phy.TxTime(cfg.PacketBits, cfg.Channel.Capacity(s.SNR))
				if t > longest {
					longest = t
				}
				s.cw *= 2
			}
			now += longest
			res.AirtimeOverhead += longest
			res.Events++
			continue
		}

		s := winners[0]
		rate := cfg.Channel.Capacity(s.SNR)
		air := phy.TxTime(cfg.PacketBits, rate)
		f := frame.Frame{
			Type: frame.TypeData, Src: s.ID, Dst: 0, Seq: s.seq,
			DurationUS: uint32(air * 1e6),
			Payload:    make([]byte, 16),
		}
		wire, err := f.Marshal()
		if err != nil {
			return Result{}, fmt.Errorf("mac: marshalling data frame: %w", err)
		}
		if cfg.Capture != nil {
			if err := cfg.Capture.WriteFrame(uint64(now*1e9), wire); err != nil {
				return Result{}, fmt.Errorf("mac: capture: %w", err)
			}
		}
		now += air
		res.Events++
		if _, err := frame.Decode(wire); err != nil {
			return Result{}, fmt.Errorf("mac: AP failed to parse its own frame: %w", err)
		}
		// Single transmission at the link's own best rate always decodes.
		res.AirtimeData += air
		now += cfg.SIFS + ackTime
		res.AirtimeOverhead += cfg.SIFS + ackTime
		s.pending--
		s.seq++
		s.cw = cfg.CWMin
		res.Delivered[s.ID]++
	}
	res.Duration = now
	return res, nil
}
