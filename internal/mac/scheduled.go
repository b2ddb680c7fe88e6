package mac

import (
	"context"
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sched"
)

// stState is a station's mutable simulation state.
type stState struct {
	Station
	seq uint32
}

// RunScheduled simulates the paper's SIC-aware upload MAC. Each round the
// AP takes every station with backlog, computes the optimal schedule
// (package sched), broadcasts it in a schedule frame at the base rate, and
// executes the slots:
//
//   - solo / serial slots transmit one frame at a time at the link's best
//     rate;
//   - SIC slots transmit both frames concurrently at the rates the schedule
//     implies (power control included); the AP's SICReceiver decides what
//     actually decodes, so imperfect cancellation (Config.Residual) shows
//     up as retries in later rounds.
//
// Rounds repeat until all backlogs drain.
func RunScheduled(stations []Station, cfg Config, opts sched.Options) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if err := ValidateStations(stations); err != nil {
		return Result{}, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		total := 0
		for _, s := range stations {
			total += s.Backlog
		}
		maxRounds = 4*total + 16
	}

	pending := make(map[uint32]*stState, len(stations))
	order := make([]uint32, 0, len(stations))
	for _, s := range stations {
		if s.Backlog > 0 {
			pending[s.ID] = &stState{Station: s}
			order = append(order, s.ID)
		}
	}

	rx := SICReceiver{Channel: cfg.Channel, Residual: cfg.Residual}
	res := Result{Delivered: map[uint32]int{}}
	now := 0.0
	ackTime := cfg.AckBits / cfg.BaseRate

	// Stations whose SIC decode failed last round are granted a solo slot
	// next round (a simple ARQ recovery policy); without it an imperfect
	// receiver would re-fail the same pairing forever.
	failed := map[uint32]bool{}

	for len(pending) > 0 {
		if res.Rounds >= maxRounds {
			return Result{}, fmt.Errorf("mac: schedule did not drain after %d rounds (residual too high?)", res.Rounds)
		}
		res.Rounds++

		// Recover last round's failures first, outside the pairing pool.
		for _, id := range order {
			s, ok := pending[id]
			if !ok || !failed[id] {
				continue
			}
			var err error
			now, err = soloTx(s, cfg, &res, now, ackTime)
			if err != nil {
				return Result{}, err
			}
			delete(failed, id)
			if s.Backlog == 0 {
				delete(pending, id)
			}
		}
		if len(pending) == 0 {
			break
		}

		// Stable station ordering keeps runs deterministic.
		var clients []sched.Client
		var ids []uint32
		for _, id := range order {
			if s, ok := pending[id]; ok {
				clients = append(clients, sched.Client{ID: fmt.Sprint(id), SNR: s.SNR})
				ids = append(ids, id)
			}
		}
		schedule, err := sched.New(context.Background(), clients, opts)
		if err != nil {
			return Result{}, fmt.Errorf("mac: round %d scheduling: %w", res.Rounds, err)
		}

		// Announce the schedule on the air (broadcast at base rate).
		entries := make([]frame.ScheduleEntry, 0, len(schedule.Slots))
		for _, sl := range schedule.Slots {
			e := frame.ScheduleEntry{
				A:               ids[sl.A],
				B:               frame.Broadcast,
				Concurrent:      sl.Mode == sched.ModeSIC,
				Multirate:       sl.Mode == sched.ModeSIC && opts.Multirate,
				WeakScaleMicros: frame.ScaleToMicros(sl.WeakScale),
			}
			if sl.B >= 0 {
				e.B = ids[sl.B]
			}
			entries = append(entries, e)
		}
		payload, err := frame.MarshalSchedule(entries)
		if err != nil {
			return Result{}, fmt.Errorf("mac: round %d schedule payload: %w", res.Rounds, err)
		}
		annFrame := frame.Frame{Type: frame.TypeSchedule, Src: 0, Dst: frame.Broadcast, Payload: payload}
		wire, err := annFrame.Marshal()
		if err != nil {
			return Result{}, fmt.Errorf("mac: round %d schedule frame: %w", res.Rounds, err)
		}
		annAir := float64(len(wire)*8) / cfg.BaseRate
		if cfg.Capture != nil {
			if err := cfg.Capture.WriteFrame(uint64((now+cfg.DIFS)*1e9), wire); err != nil {
				return Result{}, fmt.Errorf("mac: capture: %w", err)
			}
		}
		now += cfg.DIFS + annAir
		res.AirtimeOverhead += cfg.DIFS + annAir
		res.Events++

		// Every station decodes the announcement; simulate that honestly.
		decoded, err := frame.Decode(wire)
		if err != nil {
			return Result{}, fmt.Errorf("mac: stations failed to parse schedule: %w", err)
		}
		slotPlan, err := frame.DecodeSchedule(decoded.Payload)
		if err != nil {
			return Result{}, fmt.Errorf("mac: stations failed to parse slots: %w", err)
		}

		for _, entry := range slotPlan {
			var slotFailed []uint32
			now, slotFailed, err = runSlot(entry, pending, cfg, opts.Residual, rx, &res, now, ackTime)
			if err != nil {
				return Result{}, err
			}
			for _, id := range slotFailed {
				failed[id] = true
			}
		}

		for id, s := range pending {
			if s.Backlog == 0 {
				delete(pending, id)
			}
		}
	}
	res.Duration = now
	return res, nil
}

// soloTx transmits one frame from s at its interference-free best rate and
// always succeeds (single signal at its own link rate).
func soloTx(s *stState, cfg Config, res *Result, now, ackTime float64) (float64, error) {
	rate := cfg.Channel.Capacity(s.SNR)
	air := phy.TxTime(cfg.PacketBits, rate)
	if math.IsInf(air, 1) {
		return now, fmt.Errorf("mac: station %d cannot reach the AP", s.ID)
	}
	if err := cfg.captureFrame(now, &frame.Frame{
		Type: frame.TypeData, Src: s.ID, Dst: 0, Seq: s.seq,
		DurationUS: uint32(air * 1e6),
	}); err != nil {
		return now, err
	}
	now += air
	res.Events++
	res.AirtimeData += air
	now += cfg.SIFS + ackTime
	res.AirtimeOverhead += cfg.SIFS + ackTime
	s.Backlog--
	s.seq++
	res.Delivered[s.ID]++
	return now, nil
}

// runSlot executes one schedule entry on the simulated medium and returns
// the advanced clock plus the stations whose frames the AP failed to decode.
// plannedResidual is the β the scheduler assumed when choosing rates: a
// residual-aware plan derates the weaker station so the receiver (whose true
// residual is cfg.Residual) can still decode it.
func runSlot(entry frame.ScheduleEntry, pending map[uint32]*stState, cfg Config, plannedResidual float64, rx SICReceiver, res *Result, now, ackTime float64) (float64, []uint32, error) {
	a, okA := pending[entry.A]
	if !okA {
		return now, nil, fmt.Errorf("mac: schedule references unknown station %d", entry.A)
	}
	if entry.B == frame.Broadcast {
		now, err := soloTx(a, cfg, res, now, ackTime)
		return now, nil, err
	}
	b, okB := pending[entry.B]
	if !okB {
		return now, nil, fmt.Errorf("mac: schedule references unknown station %d", entry.B)
	}

	if !entry.Concurrent {
		// Serial slot: two back-to-back solo transmissions.
		now, err := soloTx(a, cfg, res, now, ackTime)
		if err != nil {
			return now, nil, err
		}
		now, err = soloTx(b, cfg, res, now, ackTime)
		return now, nil, err
	}

	// SIC slot. Determine roles: the stronger is decoded first, the weaker
	// applies the announced power scale.
	sA, sB := a.SNR, b.SNR
	strong, weak := a, b
	if sB > sA {
		strong, weak = b, a
	}
	weakSNR := weak.SNR * entry.WeakScale()
	strongSNR := strong.SNR
	if weakSNR > strongSNR {
		// Power scaling can never invert the ordering (scale ≤ 1 on the
		// weaker), so this indicates a corrupted schedule.
		return now, nil, fmt.Errorf("mac: power scale inverted pair (%d,%d)", entry.A, entry.B)
	}

	// Transmit rates exactly as the schedule's analysis implies, including
	// the planned derating of the weaker signal for residual interference.
	strongRate := cfg.Channel.Capacity(phy.SINR(strongSNR, weakSNR))
	weakRate := cfg.Channel.Capacity(phy.SINR(weakSNR, plannedResidual*strongSNR))
	if strongRate <= 0 || weakRate <= 0 {
		return now, nil, fmt.Errorf("mac: SIC slot (%d,%d) has a dead link", entry.A, entry.B)
	}

	airStrong := phy.TxTime(cfg.PacketBits, strongRate)
	airWeak := phy.TxTime(cfg.PacketBits, weakRate)
	if entry.Multirate {
		// §5.3 multirate packetization: once the weaker station's frame
		// ends, the stronger one drains its remaining bits at its
		// interference-free rate. Mirrors core.Pair.MultirateTime.
		if sent := strongRate * airWeak; sent < cfg.PacketBits {
			clean := cfg.Channel.Capacity(strongSNR)
			airStrong = airWeak + phy.TxTime(cfg.PacketBits-sent, clean)
		}
		// If the stronger already finished within the overlap, airStrong
		// stays as computed (≤ airWeak) and the weak frame bounds the slot.
	}

	for _, tx := range []struct {
		st  *stState
		air float64
	}{{strong, airStrong}, {weak, airWeak}} {
		if err := cfg.captureFrame(now, &frame.Frame{
			Type: frame.TypeData, Src: tx.st.ID, Dst: 0, Seq: tx.st.seq,
			DurationUS: uint32(tx.air * 1e6),
		}); err != nil {
			return now, nil, err
		}
	}

	// The slot ends when the later of the two frames does.
	end := math.Max(now+airStrong, now+airWeak)
	res.Events += 2
	res.AirtimeData += end - now
	now = end

	// The AP applies SIC to the overlapped reception.
	arrivals := []Arrival{
		{StationID: strong.ID, SNR: strongSNR, RateBps: strongRate},
		{StationID: weak.ID, SNR: weakSNR, RateBps: weakRate},
	}
	ok := rx.Decode(arrivals)
	var failedIDs []uint32
	for i, st := range []*stState{strong, weak} {
		if ok[i] {
			st.Backlog--
			st.seq++
			res.Delivered[st.ID]++
			now += cfg.SIFS + ackTime
			res.AirtimeOverhead += cfg.SIFS + ackTime
		} else {
			res.DecodeFailures++
			failedIDs = append(failedIDs, st.ID)
		}
	}
	return now, failedIDs, nil
}
