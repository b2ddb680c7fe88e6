// Package sched implements the paper's §6 SIC-aware scheduling algorithm
// for WLAN upload traffic: given a set of backlogged clients and their
// received SNRs at the AP, pick client pairs (and optional per-pair power
// reductions) so that the total time to drain one packet from every client
// is minimised.
//
// The problem reduces to minimum-weight perfect matching on the complete
// client graph — with a dummy vertex when the client count is odd — exactly
// as Fig. 12 of the paper describes; package matching supplies Edmonds'
// algorithm.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/phy"
)

// Client is one backlogged uploader.
type Client struct {
	// ID is an opaque caller-supplied identifier carried through to the
	// schedule (a MAC address, a trace key, …).
	ID string
	// SNR is the linear received signal-to-noise ratio at the AP when the
	// client transmits at full power.
	SNR float64
}

// Options configures cost computation for the scheduler.
type Options struct {
	// Channel supplies bandwidth and noise; required.
	Channel phy.Channel
	// PacketBits is the uplink packet length in bits; required.
	PacketBits float64
	// PowerControl enables the §5.2 per-pair power reduction of the weaker
	// client when computing joint transmission costs.
	PowerControl bool
	// Multirate enables §5.3 multirate packetization in the joint cost.
	Multirate bool
	// Rate optionally replaces the ideal Shannon rate with a discrete table
	// (e.g. rates.Dot11g.RateFunc()). When set, PowerControl and Multirate
	// are ignored for cost purposes: the paper applies those techniques to
	// the continuous-rate analysis. GroupsOfUpTo3 rejects it: its 3-chain
	// cost has no discrete-rate form.
	Rate core.RateFunc
	// Residual is the receiver's known residual-cancellation fraction β
	// (see core.Pair.SICTimeImperfect). A residual-aware scheduler derates
	// the weaker client of every SIC slot so the pair remains decodable on
	// an imperfect receiver, trading rate for reliability. Ignored when
	// Rate or Multirate is set.
	Residual float64
}

// Mode says how a scheduled slot transmits.
type Mode int

const (
	// ModeSerial: the two clients of the slot transmit one after the other
	// (pairing them concurrently would be slower).
	ModeSerial Mode = iota
	// ModeSIC: the two clients transmit concurrently and the AP decodes
	// both via SIC.
	ModeSIC
	// ModeSolo: a single client transmits alone (odd client count).
	ModeSolo
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSerial:
		return "serial"
	case ModeSIC:
		return "sic"
	case ModeSolo:
		return "solo"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Slot is one entry of the resulting schedule: either a pair of clients or
// a lone client.
type Slot struct {
	// A and B index into the scheduled client slice; B is -1 for ModeSolo.
	A, B int
	// Mode records whether the slot runs serial, concurrent-SIC, or solo.
	Mode Mode
	// WeakScale is the power-reduction factor applied to the weaker client
	// of a ModeSIC slot (1 when power control is off or unhelpful).
	WeakScale float64
	// Time is the slot's completion time in seconds.
	Time float64
}

// Schedule is the scheduler's output.
type Schedule struct {
	// Slots in arbitrary order (the AP may sequence them any way it likes).
	Slots []Slot
	// Total is the sum of slot times: the time to drain one packet from
	// every backlogged client.
	Total float64
	// SerialBaseline is the no-SIC drain time (every client alone at its
	// best rate), for gain reporting.
	SerialBaseline float64
}

// Gain is the paper's headline metric: serial baseline over scheduled time.
func (s Schedule) Gain() float64 {
	if s.Total == 0 {
		return 1
	}
	return s.SerialBaseline / s.Total
}

// ErrNoClients is returned when the client set is empty.
var ErrNoClients = errors.New("sched: no clients to schedule")

// costNanos converts a slot time to the integer nanoseconds the matcher
// consumes. Times are clamped into a range that cannot overflow the
// matcher's dual arithmetic.
func costNanos(t float64) (int64, error) {
	if math.IsNaN(t) {
		return 0, errors.New("sched: NaN slot time")
	}
	if math.IsInf(t, 1) {
		return 0, errors.New("sched: unschedulable client (zero achievable rate)")
	}
	ns := t * 1e9
	const maxNs = 1e15 // ~11.5 days of airtime; beyond this, refuse
	if ns > maxNs {
		return 0, fmt.Errorf("sched: slot time %.3gs too large to schedule", t)
	}
	return int64(math.Round(ns)), nil
}

// soloTime is one client's airtime at its interference-free best rate.
func soloTime(c Client, o Options) float64 {
	if o.Rate != nil {
		return phy.TxTime(o.PacketBits, o.Rate(c.SNR))
	}
	return phy.TxTime(o.PacketBits, o.Channel.Capacity(c.SNR))
}

// pairCost computes the best joint drain time for clients a and b, whose
// solo airtimes (soloTime) are soloA and soloB, and the mode/power-scale
// achieving it.
func pairCost(a, b Client, soloA, soloB float64, o Options) (t float64, mode Mode, weakScale float64) {
	serial := soloA + soloB
	p := core.Pair{S1: a.SNR, S2: b.SNR}

	var joint float64
	weakScale = 1
	switch {
	case o.Rate != nil:
		joint = p.SICTimeRate(o.Rate, o.PacketBits)
	case o.PowerControl && o.Multirate:
		// Apply the power reduction first, then let multirate drain the
		// stronger client's tail — the techniques compose.
		pr := p.PowerReduce()
		joint = pr.Pair.MultirateTime(o.Channel, o.PacketBits)
		weakScale = pr.Scale
	case o.PowerControl:
		pr := p.PowerReduce()
		joint = pr.Pair.SICTimeImperfect(o.Channel, o.PacketBits, o.Residual)
		weakScale = pr.Scale
	case o.Multirate:
		joint = p.MultirateTime(o.Channel, o.PacketBits)
	default:
		joint = p.SICTimeImperfect(o.Channel, o.PacketBits, o.Residual)
	}

	if joint < serial {
		return joint, ModeSIC, weakScale
	}
	return serial, ModeSerial, 1
}

// validateInputs performs the shared boundary checks of every scheduler
// entry point: non-empty client set, usable channel and packet size, and
// finite positive SNRs.
func validateInputs(clients []Client, o Options) error {
	if len(clients) == 0 {
		return ErrNoClients
	}
	if o.Channel.BandwidthHz <= 0 || o.Channel.NoiseW <= 0 {
		return errors.New("sched: Options.Channel is required")
	}
	if o.PacketBits <= 0 {
		return errors.New("sched: Options.PacketBits must be positive")
	}
	for i, c := range clients {
		if !(c.SNR > 0) || math.IsInf(c.SNR, 1) || math.IsNaN(c.SNR) {
			return fmt.Errorf("sched: client %d (%q) has invalid SNR %v", i, c.ID, c.SNR)
		}
	}
	return nil
}

// New computes the optimal schedule for the given clients.
//
// It builds the complete graph of pairwise joint-transmission costs, adds a
// dummy vertex when len(clients) is odd (edge cost = that client's solo
// airtime), solves minimum-weight perfect matching, and translates the
// matching back into transmission slots. The O(n²) cost-matrix build and
// the O(n³) blossom solve both abandon the instance promptly once ctx is
// cancelled or its deadline passes, returning ctx's error; the live
// scheduling daemon uses this to bound how long an optimal solve may hold
// the serving loop before degrading to a cheaper algorithm.
//
// New is the cold one-shot form: it borrows a pooled Planner, so it
// allocates only the returned schedule once the pool is warm, but it
// always rebuilds the cost table and solves from scratch. Its result is
// therefore a function of clients and o alone, independent of any earlier
// call. Callers issuing repeated queries over a mostly stable client set
// should hold a Planner instead, which memoizes the cost table and
// warm-starts the matcher across queries.
func New(ctx context.Context, clients []Client, o Options) (Schedule, error) {
	p := coldPlanner(o)
	defer planners.Put(p)
	return p.Plan(ctx, clients)
}

// Greedy computes a schedule with best-pair-first greedy selection instead
// of optimal matching. It exists as the ablation baseline quantifying what
// Edmonds' algorithm buys (see DESIGN.md), and as the middle rung of the
// serving daemon's degradation ladder. ctx cancels the O(n²) candidate
// build. Like New it is a cold one-shot on a pooled Planner, independent
// of earlier calls; repeated callers should hold a Planner and use
// PlanGreedy.
func Greedy(ctx context.Context, clients []Client, o Options) (Schedule, error) {
	p := coldPlanner(o)
	defer planners.Put(p)
	return p.PlanGreedy(ctx, clients)
}

// planners recycles the one-shot entry points' Planners, and with them the
// cost table and the matcher's O(n²) blossom buffers.
var planners = sync.Pool{New: func() any { return new(Planner) }}

// coldPlanner takes a Planner from the pool for one query under o. Its
// cached table is discarded, so the query rebuilds every cost and solves
// cold: a warm re-solve could pick a different equal-cost matching, which
// would make a one-shot result depend on whichever call used the Planner
// before.
func coldPlanner(o Options) *Planner {
	p := planners.Get().(*Planner)
	p.opts = o
	p.haveTable = false
	return p
}

// Serial computes the no-SIC schedule: every client transmits alone at its
// best rate. It is the bottom rung of the serving daemon's degradation
// ladder — O(n), allocation-light, and incapable of stalling — so a query
// can always be answered even when both matching algorithms blow their
// time budgets. Total equals SerialBaseline by construction (Gain is 1).
func Serial(clients []Client, o Options) (Schedule, error) {
	if err := validateInputs(clients, o); err != nil {
		return Schedule{}, err
	}
	solo := make([]float64, len(clients))
	total, err := soloTimes(solo, clients, o)
	if err != nil {
		return Schedule{}, err
	}
	slots := make([]Slot, len(clients))
	for i, t := range solo {
		slots[i] = Slot{A: i, B: -1, Mode: ModeSolo, WeakScale: 1, Time: t}
	}
	return Schedule{Slots: slots, Total: total, SerialBaseline: total}, nil
}
