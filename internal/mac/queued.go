package mac

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/phy"
	"repro/internal/sched"
)

// QueuedConfig extends Config with an arrival process: instead of a fixed
// backlog, each station receives packets by a Poisson process over a finite
// horizon, and the simulation runs until every arrived packet is delivered.
// This turns the drain-time comparison into the latency-vs-load study a MAC
// evaluation actually needs: the SIC scheduler's capacity advantage shows
// up as a higher sustainable arrival rate before delays blow up.
type QueuedConfig struct {
	Config
	// ArrivalRate is each station's packet arrival rate (packets/second).
	ArrivalRate float64
	// Horizon is the arrival window in seconds; arrivals stop after it and
	// the simulation drains the remainder.
	Horizon float64
}

func (c QueuedConfig) validate() error {
	if err := c.Config.validate(); err != nil {
		return err
	}
	if c.ArrivalRate <= 0 {
		return errors.New("mac: ArrivalRate must be positive")
	}
	if c.Horizon <= 0 {
		return errors.New("mac: Horizon must be positive")
	}
	return nil
}

// QueuedResult reports the latency study's outputs.
type QueuedResult struct {
	// Delivered is the total packets delivered.
	Delivered int
	// Duration is the time at which the last packet was delivered.
	Duration float64
	// MeanDelay and P95Delay summarise per-packet sojourn times
	// (delivery time − arrival time), in seconds.
	MeanDelay, P95Delay float64
	// MaxDelay is the worst sojourn time.
	MaxDelay float64
	// OfferedLoad is the generated load as a fraction of the serial MAC's
	// single-best-client data rate — a rough utilisation scale.
	OfferedLoad float64
}

// genArrivals draws each station's Poisson arrival times over the horizon.
// Station order and the config seed fully determine the result.
func genArrivals(stations []Station, cfg QueuedConfig) [][]float64 {
	out := make([][]float64, len(stations))
	for i := range stations {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i+1)*104729))
		t := 0.0
		for {
			t += rng.ExpFloat64() / cfg.ArrivalRate
			if t > cfg.Horizon {
				break
			}
			out[i] = append(out[i], t)
		}
	}
	return out
}

func summarizeDelays(delays []float64, duration float64, load float64) QueuedResult {
	res := QueuedResult{Delivered: len(delays), Duration: duration, OfferedLoad: load}
	if len(delays) == 0 {
		return res
	}
	sort.Float64s(delays)
	var sum float64
	for _, d := range delays {
		sum += d
	}
	res.MeanDelay = sum / float64(len(delays))
	idx := int(math.Ceil(0.95*float64(len(delays)))) - 1
	if idx < 0 {
		idx = 0
	}
	res.P95Delay = delays[idx]
	res.MaxDelay = delays[len(delays)-1]
	return res
}

// offeredLoad estimates generated bits/second over the horizon relative to
// the best single link's capacity.
func offeredLoad(stations []Station, arrivals [][]float64, cfg QueuedConfig) float64 {
	var pkts int
	for _, a := range arrivals {
		pkts += len(a)
	}
	genBps := float64(pkts) * cfg.PacketBits / cfg.Horizon
	best := 0.0
	for _, s := range stations {
		if c := cfg.Channel.Capacity(s.SNR); c > best {
			best = c
		}
	}
	if best == 0 {
		return math.Inf(1)
	}
	return genBps / best
}

// RunQueuedSerial runs the CSMA-style serial baseline under Poisson
// arrivals. Station Backlog fields are ignored; the arrival process is the
// only traffic source.
func RunQueuedSerial(stations []Station, cfg QueuedConfig) (QueuedResult, error) {
	if err := cfg.validate(); err != nil {
		return QueuedResult{}, err
	}
	if err := ValidateStations(stations); err != nil {
		return QueuedResult{}, err
	}
	arrivals := genArrivals(stations, cfg)
	load := offeredLoad(stations, arrivals, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))

	next := make([]int, len(stations)) // next undelivered packet per station
	cw := make([]int, len(stations))
	for i := range cw {
		cw[i] = cfg.CWMin
	}
	remaining := 0
	for _, a := range arrivals {
		remaining += len(a)
	}

	now := 0.0
	ackTime := cfg.AckBits / cfg.BaseRate
	var delays []float64
	for remaining > 0 {
		// Contenders: stations whose head-of-line packet has arrived.
		var contenders []int
		nextArrival := math.Inf(1)
		for i := range stations {
			if next[i] >= len(arrivals[i]) {
				continue
			}
			if arrivals[i][next[i]] <= now {
				contenders = append(contenders, i)
			} else if arrivals[i][next[i]] < nextArrival {
				nextArrival = arrivals[i][next[i]]
			}
		}
		if len(contenders) == 0 {
			now = nextArrival // idle until the next arrival
			continue
		}
		minSlot, winners := 1<<30, []int(nil)
		for _, i := range contenders {
			slot := rng.Intn(cw[i])
			switch {
			case slot < minSlot:
				minSlot, winners = slot, []int{i}
			case slot == minSlot:
				winners = append(winners, i)
			}
		}
		now += cfg.DIFS + float64(minSlot)*cfg.SlotTime
		if len(winners) > 1 {
			longest := 0.0
			for _, i := range winners {
				t := phy.TxTime(cfg.PacketBits, cfg.Channel.Capacity(stations[i].SNR))
				if t > longest {
					longest = t
				}
				cw[i] *= 2
			}
			now += longest
			continue
		}
		i := winners[0]
		air := phy.TxTime(cfg.PacketBits, cfg.Channel.Capacity(stations[i].SNR))
		if math.IsInf(air, 1) {
			return QueuedResult{}, fmt.Errorf("mac: station %d cannot reach the AP", stations[i].ID)
		}
		now += air + cfg.SIFS + ackTime
		delays = append(delays, now-arrivals[i][next[i]])
		next[i]++
		cw[i] = cfg.CWMin
		remaining--
	}
	return summarizeDelays(delays, now, load), nil
}

// RunQueuedScheduled runs the SIC-aware scheduled MAC under Poisson
// arrivals: every round the AP schedules the stations whose queues are
// non-empty, one head-of-line packet each.
func RunQueuedScheduled(stations []Station, cfg QueuedConfig, opts sched.Options) (QueuedResult, error) {
	if err := cfg.validate(); err != nil {
		return QueuedResult{}, err
	}
	if err := ValidateStations(stations); err != nil {
		return QueuedResult{}, err
	}
	arrivals := genArrivals(stations, cfg)
	load := offeredLoad(stations, arrivals, cfg)
	rx := SICReceiver{Channel: cfg.Channel, Residual: cfg.Residual}

	next := make([]int, len(stations))
	remaining := 0
	for _, a := range arrivals {
		remaining += len(a)
	}

	now := 0.0
	ackTime := cfg.AckBits / cfg.BaseRate
	var delays []float64

	deliver := func(i int, at float64) {
		delays = append(delays, at-arrivals[i][next[i]])
		next[i]++
		remaining--
	}

	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4*remaining + 16
	}
	rounds := 0
	for remaining > 0 {
		if rounds++; rounds > maxRounds {
			return QueuedResult{}, fmt.Errorf("mac: queued schedule did not drain after %d rounds", maxRounds)
		}
		var ready []int
		nextArrival := math.Inf(1)
		for i := range stations {
			if next[i] >= len(arrivals[i]) {
				continue
			}
			if arrivals[i][next[i]] <= now {
				ready = append(ready, i)
			} else if arrivals[i][next[i]] < nextArrival {
				nextArrival = arrivals[i][next[i]]
			}
		}
		if len(ready) == 0 {
			now = nextArrival
			continue
		}

		clients := make([]sched.Client, len(ready))
		for k, i := range ready {
			clients[k] = sched.Client{ID: fmt.Sprint(stations[i].ID), SNR: stations[i].SNR}
		}
		schedule, err := sched.New(context.Background(), clients, opts)
		if err != nil {
			return QueuedResult{}, fmt.Errorf("mac: queued round %d: %w", rounds, err)
		}
		// Announcement overhead (fixed-size estimate: header + one entry per slot).
		annBits := float64(28*8 + 13*8*len(schedule.Slots))
		now += cfg.DIFS + annBits/cfg.BaseRate

		for _, sl := range schedule.Slots {
			switch sl.Mode {
			case sched.ModeSolo:
				i := ready[sl.A]
				air := phy.TxTime(cfg.PacketBits, cfg.Channel.Capacity(stations[i].SNR))
				now += air + cfg.SIFS + ackTime
				deliver(i, now)
			case sched.ModeSerial:
				for _, k := range []int{sl.A, sl.B} {
					i := ready[k]
					air := phy.TxTime(cfg.PacketBits, cfg.Channel.Capacity(stations[i].SNR))
					now += air + cfg.SIFS + ackTime
					deliver(i, now)
				}
			case sched.ModeSIC:
				ia, ib := ready[sl.A], ready[sl.B]
				strong, weak := ia, ib
				if stations[ib].SNR > stations[ia].SNR {
					strong, weak = ib, ia
				}
				weakSNR := stations[weak].SNR * sl.WeakScale
				strongRate := cfg.Channel.Capacity(phy.SINR(stations[strong].SNR, weakSNR))
				weakRate := cfg.Channel.Capacity(phy.SINR(weakSNR, opts.Residual*stations[strong].SNR))
				air := math.Max(phy.TxTime(cfg.PacketBits, strongRate), phy.TxTime(cfg.PacketBits, weakRate))
				now += air
				ok := rx.Decode([]Arrival{
					{StationID: stations[strong].ID, SNR: stations[strong].SNR, RateBps: strongRate},
					{StationID: stations[weak].ID, SNR: weakSNR, RateBps: weakRate},
				})
				for idx, i := range []int{strong, weak} {
					if ok[idx] {
						now += cfg.SIFS + ackTime
						deliver(i, now)
					}
					// Failed packets stay at the head of the queue and are
					// rescheduled next round.
				}
			}
		}
	}
	return summarizeDelays(delays, now, load), nil
}
