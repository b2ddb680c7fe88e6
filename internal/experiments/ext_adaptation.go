package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/adapt"
	"repro/internal/phy"
	"repro/internal/rates"
)

// ExtAdaptation is an extension experiment (not a paper figure): it makes
// the paper's central argument executable. §1 claims SIC's opportunity is
// the *slack* left by imperfect bitrate adaptation and coarse rate tables
// ("4 in 802.11b vs 8 in 802.11g vs 32 in 802.11n"), and that advances in
// adaptation squeeze it out.
//
// Two clients near the pairing sweet spot upload over independently fading
// channels. Each runs a rate-adaptation algorithm; every round the AP
// tries SIC concurrency at the rates the adapters actually chose, which
// succeeds only when the chosen rates fit under the interference-limited
// capacities. The measured SIC speedup is then a direct function of
// adaptation quality and table granularity: crude adapters and coarse
// tables leave slack for SIC, the oracle on a fine table leaves almost
// none.
func ExtAdaptation(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	rounds := p.Trials
	if rounds > 20000 {
		rounds = 20000
	}

	tables := []rates.Table{rates.Dot11b, rates.Dot11g, rates.Dot11n}
	metrics := map[string]float64{}
	var text strings.Builder
	text.WriteString("Extension — SIC gain vs rate-adaptation quality and table granularity\n")
	text.WriteString("(two uploaders near the sweet spot; SIC applied at the adapter-chosen rates)\n\n")
	fmt.Fprintf(&text, "%-12s %-16s %12s %12s %12s\n", "table", "adapter", "efficiency", "sic-gain", "conc-frac")

	ch, err := drawChannel(p, rounds)
	if err != nil {
		return Result{}, fmt.Errorf("ext-adaptation: %w", err)
	}
	for _, table := range tables {
		// Oracle throughput reference per table.
		var oracleTp float64
		fit := fitTable(ch, table)
		roster := adapt.Roster(table, rand.New(rand.NewSource(p.Seed)))
		results := make([]pairedResult, len(roster))
		for i, a := range roster {
			results[i] = runPaired(a, table, p, ch, fit)
			if a.Name() == "oracle" {
				oracleTp = results[i].serialThroughput
			}
		}
		for i, a := range roster {
			r := results[i]
			eff := 0.0
			if oracleTp > 0 {
				eff = r.serialThroughput / oracleTp
			}
			key := tableKey(table) + "_" + adapterKey(a.Name())
			metrics["efficiency_"+key] = eff
			metrics["sic_gain_"+key] = r.sicGain
			metrics["concurrency_frac_"+key] = r.concFrac
			fmt.Fprintf(&text, "%-12s %-16s %12.3f %12.3f %12.3f\n",
				table.Name(), a.Name(), eff, r.sicGain, r.concFrac)
		}
		text.WriteByte('\n')
	}

	r := Result{
		ID:      "ext-adaptation",
		Title:   "SIC slack vs bitrate adaptation (extension)",
		Files:   map[string]string{},
		Metrics: metrics,
	}
	r.Text = text.String() + r.MetricsBlock()

	// The experiment's own invariant: on every table, the oracle must leave
	// no more SIC opportunity than the fixed-lowest-rate adapter. The
	// fixed adapter's metric key embeds its rate, so scan for it.
	for _, table := range tables {
		or := metrics["sic_gain_"+tableKey(table)+"_oracle"]
		for k, fx := range metrics {
			if strings.HasPrefix(k, "sic_gain_"+tableKey(table)+"_fixed") && or > fx+1e-9 {
				return Result{}, fmt.Errorf("ext-adaptation: oracle gain %v exceeds fixed-rate gain %v on %s", or, fx, table.Name())
			}
		}
	}
	return r, nil
}

type pairedResult struct {
	serialThroughput float64 // delivered bits per second of serial airtime
	sicGain          float64 // serial airtime / SIC-scheduled airtime
	concFrac         float64 // fraction of rounds with feasible concurrency
}

// channelRound is one round of ExtAdaptation's channel: both clients'
// SNRs and the capacities the concurrency check compares the chosen rates
// with.
type channelRound struct {
	s1, s2    float64 // strong-mean and weak-mean client SNR (linear)
	capStrong float64 // Capacity(SINR(stronger, weaker))
	capWeak   float64 // Capacity(weaker)
}

// drawChannel draws rounds of two independently fading clients at the
// pairing sweet spot: weak at 15 dB mean, strong at ~2× in dB. It runs once
// per ExtAdaptation call, so every adapter run sees the same rounds.
func drawChannel(p Params, rounds int) ([]channelRound, error) {
	weakMean := 15.0
	strongMean := phy.DB(phy.FromDB(weakMean) * (phy.FromDB(weakMean) + 1))
	f1, err := phy.NewFading(strongMean, 4, 0.9)
	if err != nil {
		return nil, err
	}
	f2, err := phy.NewFading(weakMean, 4, 0.9)
	if err != nil {
		return nil, err
	}
	rng1 := rand.New(rand.NewSource(p.Seed + 11))
	rng2 := rand.New(rand.NewSource(p.Seed + 22))
	ch := make([]channelRound, rounds)
	for i := range ch {
		s1, s2 := f1.Next(rng1), f2.Next(rng2)
		strong, weak := s1, s2
		if s2 > s1 {
			strong, weak = s2, s1
		}
		ch[i] = channelRound{
			s1: s1, s2: s2,
			capStrong: p.Channel.Capacity(phy.SINR(strong, weak)),
			capWeak:   p.Channel.Capacity(weak),
		}
	}
	return ch, nil
}

// tableFit is one round's highest table rate per client.
type tableFit struct{ r1, r2 float64 }

// fitTable evaluates table at both clients' SNR in every round of ch.
func fitTable(ch []channelRound, table rates.Table) []tableFit {
	fit := make([]tableFit, len(ch))
	for i, c := range ch {
		fit[i] = tableFit{r1: table.Rate(c.s1), r2: table.Rate(c.s2)}
	}
	return fit
}

// runPaired simulates two clients running independent copies of the same
// adapter class over the drawn channel ch, whose table rates are fit.
func runPaired(proto adapt.Adapter, table rates.Table, p Params, ch []channelRound, fit []tableFit) pairedResult {
	// Two adapter instances: rebuild a fresh one of the same kind by Reset;
	// adapters are stateful, so clone via the roster is impossible — run
	// the strong and weak clients with two Reset instances sequentially is
	// wrong (channels interact). Instead instantiate two copies here.
	a1, a2 := cloneAdapter(proto, table, p.Seed+100), cloneAdapter(proto, table, p.Seed+200)
	a1.Reset()
	a2.Reset()
	lowest := table.Steps()[0].BitsPerSec

	var (
		serialAir float64
		sicAir    float64
		delivered float64
		concRound int
	)
	for i, c := range ch {
		s1, s2 := c.s1, c.s2
		r1 := a1.Pick(s1)
		r2 := a2.Pick(s2)
		if r1 <= 0 || r2 <= 0 {
			serialAir += 2 * p.PacketBits / lowest
			sicAir += 2 * p.PacketBits / lowest
			a1.Observe(false)
			a2.Observe(false)
			continue
		}
		ok1 := r1 <= fit[i].r1
		ok2 := r2 <= fit[i].r2
		t1 := p.PacketBits / r1
		t2 := p.PacketBits / r2
		serialAir += t1 + t2
		if ok1 {
			delivered += p.PacketBits
		}
		if ok2 {
			delivered += p.PacketBits
		}

		// Concurrency check at the chosen rates: the stronger signal must
		// be decodable under the weaker's interference, the weaker after
		// cancellation — the paper's Eqs. (1)-(2) with actual rates.
		rStrong, rWeak := r1, r2
		if s2 > s1 {
			rStrong, rWeak = r2, r1
		}
		feasible := ok1 && ok2 && rStrong <= c.capStrong && rWeak <= c.capWeak
		if feasible {
			concRound++
			sicAir += math.Max(t1, t2)
		} else {
			sicAir += t1 + t2
		}
		a1.Observe(ok1)
		a2.Observe(ok2)
	}

	res := pairedResult{concFrac: float64(concRound) / float64(len(ch))}
	if serialAir > 0 {
		res.serialThroughput = delivered / serialAir
	}
	if sicAir > 0 {
		res.sicGain = serialAir / sicAir
	}
	return res
}

// cloneAdapter builds a fresh adapter of the same class as proto.
func cloneAdapter(proto adapt.Adapter, table rates.Table, seed int64) adapt.Adapter {
	switch a := proto.(type) {
	case *adapt.Oracle:
		return &adapt.Oracle{Table: table}
	case *adapt.Fixed:
		return &adapt.Fixed{RateBps: a.RateBps}
	case *adapt.ARF:
		return adapt.NewARF(table)
	case *adapt.AARF:
		return adapt.NewAARF(table)
	case *adapt.SNRThreshold:
		return &adapt.SNRThreshold{Table: table, MarginDB: a.MarginDB}
	case *adapt.Minstrel:
		return adapt.NewMinstrel(table, rand.New(rand.NewSource(seed)))
	default:
		return proto
	}
}

func tableKey(t rates.Table) string {
	return strings.ReplaceAll(strings.TrimPrefix(t.Name(), "802."), ".", "_")
}

func adapterKey(name string) string {
	return strings.NewReplacer("-", "_", "+", "", ".", "_").Replace(strings.ToLower(name))
}
