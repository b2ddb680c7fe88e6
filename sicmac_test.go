package sicmac_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	sicmac "repro"
)

// These tests exercise the public facade end to end — the same flows a
// downstream user would write after reading the README quickstart.

func TestPublicQuickstartFlow(t *testing.T) {
	ch := sicmac.Wifi20MHz
	pair := sicmac.Pair{S1: sicmac.FromDB(30), S2: sicmac.FromDB(15)}

	if g := pair.CapacityGain(ch); g < 1 || g > 2 {
		t.Errorf("capacity gain %v outside [1,2]", g)
	}
	if g := pair.Gain(ch, 12000); g <= 1 {
		t.Errorf("well-matched pair should gain from SIC, got %v", g)
	}

	// The ridge helpers agree with each other.
	weak := sicmac.FromDB(15)
	strong := sicmac.EqualRateStrongSNR(weak)
	if got := sicmac.BestPartnerSNR(strong); math.Abs(got-weak) > 1e-9 {
		t.Errorf("BestPartnerSNR(EqualRateStrongSNR(w)) = %v, want %v", got, weak)
	}
}

func TestPublicScheduler(t *testing.T) {
	clients := []sicmac.SchedClient{
		{ID: "a", SNR: sicmac.FromDB(32)},
		{ID: "b", SNR: sicmac.FromDB(16)},
		{ID: "c", SNR: sicmac.FromDB(28)},
		{ID: "d", SNR: sicmac.FromDB(13)},
		{ID: "e", SNR: sicmac.FromDB(22)},
	}
	opts := sicmac.SchedOptions{Channel: sicmac.Wifi20MHz, PacketBits: 12000, PowerControl: true}
	s, err := sicmac.NewSchedule(clients, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Gain() < 1 {
		t.Errorf("schedule gain %v < 1", s.Gain())
	}
	g, err := sicmac.GreedySchedule(clients, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Total > g.Total+1e-12 {
		t.Errorf("optimal (%v) worse than greedy (%v)", s.Total, g.Total)
	}
	// One solo slot for five clients.
	solo := 0
	for _, sl := range s.Slots {
		if sl.Mode == sicmac.ModeSolo {
			solo++
		}
	}
	if solo != 1 {
		t.Errorf("five clients need exactly one solo slot, got %d", solo)
	}
}

func TestPublicSimulation(t *testing.T) {
	stations := []sicmac.Station{
		{ID: 1, SNR: sicmac.FromDB(30), Backlog: 2},
		{ID: 2, SNR: sicmac.FromDB(15), Backlog: 2},
	}
	cfg := sicmac.DefaultMACConfig(sicmac.Wifi20MHz)
	opts := sicmac.SchedOptions{Channel: sicmac.Wifi20MHz, PacketBits: cfg.PacketBits}

	serial, err := sicmac.RunSerial(stations, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scheduled, err := sicmac.RunScheduled(stations, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if scheduled.Duration >= serial.Duration {
		t.Errorf("scheduled (%v) should beat serial (%v) on a matched pair", scheduled.Duration, serial.Duration)
	}
	for _, id := range []uint32{1, 2} {
		if serial.Delivered[id] != 2 || scheduled.Delivered[id] != 2 {
			t.Errorf("station %d not drained: serial=%d scheduled=%d",
				id, serial.Delivered[id], scheduled.Delivered[id])
		}
	}
}

func TestPublicRates(t *testing.T) {
	if sicmac.Dot11b.Len() != 4 || sicmac.Dot11g.Len() != 8 {
		t.Error("rate table sizes wrong through the facade")
	}
	rf := sicmac.Dot11g.RateFunc()
	if rf(sicmac.FromDB(24)) != 54e6 {
		t.Error("rate func wrong through the facade")
	}
}

func TestPublicTrace(t *testing.T) {
	cfg := sicmac.DefaultTraceConfig(3)
	cfg.Days = 1
	snaps, err := sicmac.GenerateUploadTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("empty trace")
	}
	survey, err := sicmac.GenerateSurveyTrace(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(survey) != 10 {
		t.Fatalf("survey has %d points", len(survey))
	}
}

func TestPublicCrossAndDownload(t *testing.T) {
	x := sicmac.Cross{S: [2][2]float64{
		{sicmac.FromDB(30), sicmac.FromDB(10)},
		{sicmac.FromDB(10), sicmac.FromDB(30)},
	}}
	if x.Case() != sicmac.CaseA {
		t.Errorf("Case() = %v, want CaseA", x.Case())
	}
	d := sicmac.Download{S1: sicmac.FromDB(30), S2: sicmac.FromDB(15)}
	if g := d.Gain(sicmac.Wifi20MHz, 12000); g <= 0 {
		t.Errorf("download gain %v", g)
	}
}

func TestPublicSICReceiver(t *testing.T) {
	ch := sicmac.Wifi20MHz
	rx := sicmac.SICReceiver{Channel: ch}
	strong, weak := sicmac.FromDB(30), sicmac.FromDB(15)
	ok := rx.Decode([]sicmac.Arrival{
		{StationID: 1, SNR: strong, RateBps: sicmac.Capacity(ch.BandwidthHz, strong/(weak+1))},
		{StationID: 2, SNR: weak, RateBps: sicmac.Capacity(ch.BandwidthHz, weak)},
	})
	if !ok[0] || !ok[1] {
		t.Errorf("feasible pair not decoded: %v", ok)
	}
}

func TestPublicAdaptation(t *testing.T) {
	fading, err := sicmac.NewFading(18, 5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sicmac.AdaptTrialConfig{
		Table:     sicmac.Dot11g,
		Fading:    *fading,
		Frames:    2000,
		FrameBits: 12000,
		Seed:      1,
	}
	oracle, err := sicmac.RunAdaptation(&sicmac.OracleAdapter{Table: sicmac.Dot11g}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arf, err := sicmac.RunAdaptation(sicmac.NewARF(sicmac.Dot11g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if arf.Throughput > oracle.Throughput {
		t.Errorf("ARF (%v) beat the oracle (%v)", arf.Throughput, oracle.Throughput)
	}
}

func TestPublicDeployment(t *testing.T) {
	d := sicmac.DefaultDeployment()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Scenarios()); got != 5 {
		t.Errorf("Scenarios() = %d, want 5", got)
	}
}

func TestPublicBaseband(t *testing.T) {
	res, err := sicmac.RunBaseband(sicmac.BasebandConfig{
		Mod: sicmac.QPSK, SNRStrongDB: 30, SNRWeakDB: 12,
		Symbols: 20000, Pilots: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SERStrong > 0.01 {
		t.Errorf("strong SER %v too high at 30 dB", res.SERStrong)
	}
	if res.ResidualBeta <= 0 {
		t.Errorf("pilot-estimated channel should leave residual, got %v", res.ResidualBeta)
	}
	ser, err := sicmac.RunBasebandSingle(sicmac.QPSK, 9, 100000, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := sicmac.TheoreticalSER(sicmac.QPSK, sicmac.FromDB(9))
	if ser < want/3 || ser > want*3 {
		t.Errorf("single-user SER %v far from theory %v", ser, want)
	}
}

func TestPublicMesh(t *testing.T) {
	pl, err := sicmac.NewPathLoss(3.2, 1, 58)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sicmac.NewMeshChain([]float64{30, 4, 30}, pl, sicmac.Wifi20MHz)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := n.ScheduleFlow([]int{0, 1, 2, 3}, 12000, false)
	if err != nil {
		t.Fatal(err)
	}
	sic, err := n.ScheduleFlow([]int{0, 1, 2, 3}, 12000, true)
	if err != nil {
		t.Fatal(err)
	}
	if sic.Throughput <= serial.Throughput {
		t.Errorf("SIC mesh throughput %v should beat serial %v", sic.Throughput, serial.Throughput)
	}
}

func TestPublicChainAndPacking(t *testing.T) {
	snrs := []float64{sicmac.FromDB(8), sicmac.FromDB(35), sicmac.FromDB(25)}
	rates, err := sicmac.ChainRates(sicmac.Wifi20MHz, snrs)
	if err != nil || len(rates) != 3 {
		t.Fatalf("ChainRates: %v %v", rates, err)
	}
	g, err := sicmac.GenericPackingGain(sicmac.Wifi20MHz, 12000, snrs)
	if err != nil {
		t.Fatal(err)
	}
	if g < 1 {
		t.Errorf("generic packing gain %v below 1", g)
	}
}

// TestFacadeSurface touches every remaining facade entry point once, so the
// re-export layer cannot silently rot.
func TestFacadeSurface(t *testing.T) {
	ch := sicmac.NewChannel(20e6, 1e-10)
	if ch.BandwidthHz != 20e6 {
		t.Error("NewChannel")
	}
	if r := sicmac.ShannonRate(sicmac.Wifi20MHz)(3); r != sicmac.Capacity(20e6, 3) {
		t.Error("ShannonRate")
	}

	stations := []sicmac.Station{
		{ID: 1, SNR: sicmac.FromDB(30)},
		{ID: 2, SNR: sicmac.FromDB(15)},
	}
	qc := sicmac.QueuedConfig{
		Config:      sicmac.DefaultMACConfig(sicmac.Wifi20MHz),
		ArrivalRate: 500,
		Horizon:     0.02,
	}
	opts := sicmac.SchedOptions{Channel: sicmac.Wifi20MHz, PacketBits: qc.PacketBits}
	if _, err := sicmac.RunQueuedSerial(stations, qc); err != nil {
		t.Errorf("RunQueuedSerial: %v", err)
	}
	if _, err := sicmac.RunQueuedScheduled(stations, qc, opts); err != nil {
		t.Errorf("RunQueuedScheduled: %v", err)
	}

	emuSts := []sicmac.Station{
		{ID: 1, SNR: sicmac.FromDB(30), Backlog: 1},
		{ID: 2, SNR: sicmac.FromDB(15), Backlog: 1},
	}
	if _, err := sicmac.RunEmulation(context.Background(), emuSts, sicmac.EmuConfig{
		Channel: sicmac.Wifi20MHz, PacketBits: 12000,
	}); err != nil {
		t.Errorf("RunEmulation: %v", err)
	}

	clients := []sicmac.SchedClient{
		{ID: "a", SNR: sicmac.FromDB(30)},
		{ID: "b", SNR: sicmac.FromDB(15)},
	}
	if _, err := sicmac.PlanDrain(clients, []int{2, 1}, opts); err != nil {
		t.Errorf("PlanDrain: %v", err)
	}
	if _, err := sicmac.GroupsOfUpTo3(clients, opts); err != nil {
		t.Errorf("GroupsOfUpTo3: %v", err)
	}
	if _, err := sicmac.RunDownload([]sicmac.DownloadClient{
		{ID: 1, SNRs: []float64{sicmac.FromDB(24), sicmac.FromDB(12)}, Backlog: 2},
	}, sicmac.DefaultMACConfig(sicmac.Wifi20MHz)); err != nil {
		t.Errorf("RunDownload: %v", err)
	}

	pl, err := sicmac.NewPathLoss(3.2, 1, 58)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sicmac.NewMeshNetwork([]sicmac.Point{{}, {X: 20}}, pl, sicmac.Wifi20MHz); err != nil {
		t.Errorf("NewMeshNetwork: %v", err)
	}
	if _, err := sicmac.ChainTime(sicmac.Wifi20MHz, 12000, []float64{15, 3}); err != nil {
		t.Errorf("ChainTime: %v", err)
	}
	if _, err := sicmac.PackGeneric(sicmac.Wifi20MHz, 12000, []float64{15, 3, 1}); err != nil {
		t.Errorf("PackGeneric: %v", err)
	}
	if a := sicmac.NewAARF(sicmac.Dot11g); a == nil {
		t.Error("NewAARF")
	}
	if m := sicmac.NewMinstrel(sicmac.Dot11g, rand.New(rand.NewSource(1))); m == nil {
		t.Error("NewMinstrel")
	}
}
