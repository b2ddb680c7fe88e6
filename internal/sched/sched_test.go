package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/rates"
)

var opts = Options{Channel: phy.Wifi20MHz, PacketBits: 12000}

func clientsFromDB(dbs ...float64) []Client {
	cs := make([]Client, len(dbs))
	for i, db := range dbs {
		cs[i] = Client{ID: fmt.Sprintf("c%d", i), SNR: phy.FromDB(db)}
	}
	return cs
}

func checkSchedule(t *testing.T, s Schedule, n int) {
	t.Helper()
	seen := make([]bool, n)
	mark := func(i int) {
		if i < 0 || i >= n {
			t.Fatalf("slot references client %d outside [0,%d)", i, n)
		}
		if seen[i] {
			t.Fatalf("client %d scheduled twice", i)
		}
		seen[i] = true
	}
	var total float64
	solo := 0
	for _, sl := range s.Slots {
		mark(sl.A)
		if sl.Mode == ModeSolo {
			if sl.B != -1 {
				t.Fatalf("solo slot has B=%d", sl.B)
			}
			solo++
		} else {
			mark(sl.B)
		}
		if sl.Time <= 0 || math.IsInf(sl.Time, 0) || math.IsNaN(sl.Time) {
			t.Fatalf("bad slot time %v", sl.Time)
		}
		if !(sl.WeakScale > 0 && sl.WeakScale <= 1) {
			t.Fatalf("bad weak scale %v", sl.WeakScale)
		}
		total += sl.Time
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("client %d never scheduled", i)
		}
	}
	if math.Abs(total-s.Total) > 1e-9*math.Max(1, total) {
		t.Fatalf("Total %v != sum of slots %v", s.Total, total)
	}
	if n%2 == 0 && solo != 0 {
		t.Fatalf("even client count produced %d solo slots", solo)
	}
	if n%2 == 1 && solo != 1 {
		t.Fatalf("odd client count produced %d solo slots, want 1", solo)
	}
}

func TestScheduleErrors(t *testing.T) {
	if _, err := New(context.Background(), nil, opts); err != ErrNoClients {
		t.Errorf("empty clients: err = %v, want ErrNoClients", err)
	}
	if _, err := New(context.Background(), clientsFromDB(20), Options{}); err == nil {
		t.Error("missing channel accepted")
	}
	if _, err := New(context.Background(), clientsFromDB(20), Options{Channel: phy.Wifi20MHz}); err == nil {
		t.Error("missing packet bits accepted")
	}
	if _, err := New(context.Background(), []Client{{ID: "bad", SNR: -1}}, opts); err == nil {
		t.Error("negative SNR accepted")
	}
	if _, err := New(context.Background(), []Client{{ID: "bad", SNR: math.NaN()}}, opts); err == nil {
		t.Error("NaN SNR accepted")
	}
}

func TestScheduleSingleClient(t *testing.T) {
	s, err := New(context.Background(), clientsFromDB(20), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, s, 1)
	if s.Gain() != 1 {
		t.Errorf("single client gain = %v, want 1", s.Gain())
	}
}

func TestScheduleTwoClients(t *testing.T) {
	// A well-matched pair: strong ≈ 2× weak in dB.
	s, err := New(context.Background(), clientsFromDB(30, 15), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, s, 2)
	if len(s.Slots) != 1 || s.Slots[0].Mode != ModeSIC {
		t.Fatalf("well-matched pair should be one SIC slot, got %+v", s.Slots)
	}
	if g := s.Gain(); g <= 1.2 {
		t.Errorf("well-matched pair gain = %v, want substantial (>1.2)", g)
	}
	// The SIC slot must match the core model.
	want := core.Pair{S1: phy.FromDB(30), S2: phy.FromDB(15)}.SICTime(opts.Channel, opts.PacketBits)
	if math.Abs(s.Slots[0].Time-want) > 1e-12 {
		t.Errorf("slot time %v != core model %v", s.Slots[0].Time, want)
	}
}

func TestSchedulePathologicalPairFallsBackToSerial(t *testing.T) {
	// Two similar *high* SNRs: the stronger's SINR under interference
	// collapses toward 0 dB while both solo rates are excellent, so
	// concurrency is far worse than serialising. The slot must be
	// ModeSerial and the gain exactly 1.
	s, err := New(context.Background(), clientsFromDB(30, 29), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, s, 2)
	if s.Slots[0].Mode != ModeSerial {
		t.Fatalf("disparate pair should serialise, got %v", s.Slots[0].Mode)
	}
	if g := s.Gain(); math.Abs(g-1) > 1e-9 {
		t.Errorf("serial fallback gain = %v, want 1", g)
	}
}

func TestScheduleOddCount(t *testing.T) {
	s, err := New(context.Background(), clientsFromDB(30, 15, 22), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, s, 3)
}

// The paper's Fig. 9/10 illustration: four clients at increasing distance.
// Good pairing should beat both bad pairings and the serial baseline.
func TestScheduleFourClientIllustration(t *testing.T) {
	// SNRs chosen so client airtimes roughly follow the 1:2:4:8 pattern.
	cs := clientsFromDB(36, 24, 14, 8)
	s, err := New(context.Background(), cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, s, 4)
	if s.Gain() <= 1 {
		t.Errorf("pairing gain = %v, want > 1", s.Gain())
	}

	// The optimal matching must weakly beat every alternative pairing.
	pairTime := func(i, j int) float64 {
		tm, _, _ := pairCost(cs[i], cs[j], soloTime(cs[i], opts), soloTime(cs[j], opts), opts)
		return tm
	}
	alternatives := [][2][2]int{
		{{0, 1}, {2, 3}},
		{{0, 2}, {1, 3}},
		{{0, 3}, {1, 2}},
	}
	for _, alt := range alternatives {
		altTotal := pairTime(alt[0][0], alt[0][1]) + pairTime(alt[1][0], alt[1][1])
		if s.Total > altTotal+1e-9 {
			t.Errorf("matching total %v beaten by pairing %v with %v", s.Total, alt, altTotal)
		}
	}
}

func TestPowerControlImprovesSchedule(t *testing.T) {
	// Clients with similar SNRs: power control should strictly reduce total.
	cs := clientsFromDB(25, 24, 23, 22)
	plain, err := New(context.Background(), cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	pc := opts
	pc.PowerControl = true
	withPC, err := New(context.Background(), cs, pc)
	if err != nil {
		t.Fatal(err)
	}
	if withPC.Total >= plain.Total {
		t.Errorf("power control did not help: %v >= %v", withPC.Total, plain.Total)
	}
	// At least one SIC slot should carry a genuine power reduction.
	reduced := false
	for _, sl := range withPC.Slots {
		if sl.Mode == ModeSIC && sl.WeakScale < 1 {
			reduced = true
		}
	}
	if !reduced {
		t.Error("no slot recorded a power reduction")
	}
}

func TestMultirateImprovesSchedule(t *testing.T) {
	cs := clientsFromDB(25, 24, 23, 22)
	plain, _ := New(context.Background(), cs, opts)
	mr := opts
	mr.Multirate = true
	withMR, err := New(context.Background(), cs, mr)
	if err != nil {
		t.Fatal(err)
	}
	if withMR.Total >= plain.Total {
		t.Errorf("multirate did not help: %v >= %v", withMR.Total, plain.Total)
	}
}

func TestScheduleNeverWorseThanBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		cs := make([]Client, n)
		for i := range cs {
			cs[i] = Client{ID: fmt.Sprintf("c%d", i), SNR: phy.FromDB(2 + rng.Float64()*43)}
		}
		for _, o := range []Options{
			opts,
			{Channel: opts.Channel, PacketBits: opts.PacketBits, PowerControl: true},
			{Channel: opts.Channel, PacketBits: opts.PacketBits, Multirate: true},
			{Channel: opts.Channel, PacketBits: opts.PacketBits, PowerControl: true, Multirate: true},
		} {
			s, err := New(context.Background(), cs, o)
			if err != nil {
				t.Fatal(err)
			}
			checkSchedule(t, s, n)
			if s.Total > s.SerialBaseline*(1+1e-9) {
				t.Fatalf("trial %d: schedule %v worse than baseline %v", trial, s.Total, s.SerialBaseline)
			}
		}
	}
}

func TestOptimalNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	greedyWins := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(11)
		cs := make([]Client, n)
		for i := range cs {
			cs[i] = Client{ID: fmt.Sprintf("c%d", i), SNR: phy.FromDB(2 + rng.Float64()*43)}
		}
		opt, err := New(context.Background(), cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := Greedy(context.Background(), cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkSchedule(t, gr, n)
		if opt.Total > gr.Total+1e-9 {
			t.Fatalf("trial %d: optimal %v worse than greedy %v", trial, opt.Total, gr.Total)
		}
		if gr.Total > opt.Total+1e-9 {
			greedyWins++
		}
	}
	// The matching must strictly beat greedy at least occasionally,
	// otherwise the ablation is vacuous.
	if greedyWins == 0 {
		t.Log("greedy matched optimal in all trials (unusual but not wrong)")
	}
}

func TestScheduleWithDiscreteRates(t *testing.T) {
	o := opts
	o.Rate = rates.Dot11g.RateFunc()
	s, err := New(context.Background(), clientsFromDB(30, 15, 25, 12), o)
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, s, 4)
	if s.Total > s.SerialBaseline*(1+1e-9) {
		t.Errorf("discrete-rate schedule %v worse than baseline %v", s.Total, s.SerialBaseline)
	}
}

func TestScheduleDiscreteRateUnreachableClient(t *testing.T) {
	o := opts
	o.Rate = rates.Dot11g.RateFunc()
	// 0 dB cannot sustain even 6 Mbps → solo time infinite → error.
	if _, err := New(context.Background(), clientsFromDB(30, 0), o); err == nil {
		t.Error("unreachable client accepted under discrete rates")
	}
}

func TestModeString(t *testing.T) {
	if ModeSerial.String() != "serial" || ModeSIC.String() != "sic" || ModeSolo.String() != "solo" {
		t.Error("Mode.String() labels wrong")
	}
	if Mode(99).String() != "Mode(99)" {
		t.Errorf("unknown mode string = %q", Mode(99).String())
	}
}

func TestGainOfEmptyTotal(t *testing.T) {
	if g := (Schedule{}).Gain(); g != 1 {
		t.Errorf("zero-schedule gain = %v, want 1", g)
	}
}

func TestResidualAwareScheduling(t *testing.T) {
	cs := clientsFromDB(30, 15, 28, 14)
	base, err := New(context.Background(), cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// β=0 must be byte-identical to the default path.
	zero := opts
	zero.Residual = 0
	same, err := New(context.Background(), cs, zero)
	if err != nil {
		t.Fatal(err)
	}
	if same.Total != base.Total {
		t.Errorf("β=0 changed the schedule: %v vs %v", same.Total, base.Total)
	}
	// Growing β weakly increases the total (derated weak rates), and the
	// schedule always stays within the serial baseline.
	prev := base.Total
	for _, beta := range []float64{1e-4, 1e-3, 1e-2, 0.1} {
		o := opts
		o.Residual = beta
		s, err := New(context.Background(), cs, o)
		if err != nil {
			t.Fatal(err)
		}
		if s.Total < prev-1e-12 {
			t.Errorf("total decreased as β grew to %v: %v < %v", beta, s.Total, prev)
		}
		if s.Total > s.SerialBaseline*(1+1e-9) {
			t.Errorf("β=%v schedule %v exceeds serial baseline %v", beta, s.Total, s.SerialBaseline)
		}
		prev = s.Total
	}
	// At β=1 (no cancellation at all) pairing cannot beat serialising.
	o := opts
	o.Residual = 1
	s, err := New(context.Background(), cs, o)
	if err != nil {
		t.Fatal(err)
	}
	if g := s.Gain(); g > 1+1e-9 {
		t.Errorf("β=1 should leave no SIC gain, got %v", g)
	}
}

func TestResidualAwareWithPowerControl(t *testing.T) {
	cs := clientsFromDB(26, 25)
	o := opts
	o.PowerControl = true
	o.Residual = 0.01
	s, err := New(context.Background(), cs, o)
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, s, 2)
	if s.Total > s.SerialBaseline*(1+1e-9) {
		t.Errorf("residual-aware PC schedule %v exceeds baseline %v", s.Total, s.SerialBaseline)
	}
}
