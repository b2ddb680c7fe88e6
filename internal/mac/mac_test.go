package mac

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sched"
)

func cfg() Config { return DefaultConfig(phy.Wifi20MHz) }

func stationsFromDB(backlog int, dbs ...float64) []Station {
	sts := make([]Station, len(dbs))
	for i, db := range dbs {
		sts[i] = Station{ID: uint32(i + 1), SNR: phy.FromDB(db), Backlog: backlog}
	}
	return sts
}

func schedOpts() sched.Options {
	return sched.Options{Channel: phy.Wifi20MHz, PacketBits: cfg().PacketBits}
}

func TestConfigValidation(t *testing.T) {
	good := cfg()
	muts := []func(*Config){
		func(c *Config) { c.Channel = phy.Channel{} },
		func(c *Config) { c.PacketBits = 0 },
		func(c *Config) { c.AckBits = 0 },
		func(c *Config) { c.BaseRate = 0 },
		func(c *Config) { c.SlotTime = -1 },
		func(c *Config) { c.CWMin = 0 },
		func(c *Config) { c.Residual = -0.1 },
		func(c *Config) { c.Residual = 1.5 },
	}
	for i, m := range muts {
		c := good
		m(&c)
		if _, err := RunSerial(stationsFromDB(1, 20), c); err == nil {
			t.Errorf("mutation %d accepted by RunSerial", i)
		}
	}
}

func TestStationValidation(t *testing.T) {
	cases := []struct {
		name string
		sts  []Station
	}{
		{"empty", nil},
		{"zero id", []Station{{ID: 0, SNR: 10, Backlog: 1}}},
		{"duplicate id", []Station{{ID: 1, SNR: 10, Backlog: 1}, {ID: 1, SNR: 20, Backlog: 1}}},
		{"bad snr", []Station{{ID: 1, SNR: -1, Backlog: 1}}},
		{"nan snr", []Station{{ID: 1, SNR: math.NaN(), Backlog: 1}}},
		{"negative backlog", []Station{{ID: 1, SNR: 10, Backlog: -1}}},
		{"broadcast id", []Station{{ID: ^uint32(0), SNR: 10, Backlog: 1}}},
	}
	for _, c := range cases {
		if _, err := RunSerial(c.sts, cfg()); err == nil {
			t.Errorf("%s accepted by RunSerial", c.name)
		}
		if _, err := RunScheduled(c.sts, cfg(), schedOpts()); err == nil {
			t.Errorf("%s accepted by RunScheduled", c.name)
		}
	}
}

func TestSerialDrainsEverything(t *testing.T) {
	sts := stationsFromDB(3, 30, 20, 15, 25)
	res, err := RunSerial(sts, cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sts {
		if res.Delivered[s.ID] != 3 {
			t.Errorf("station %d delivered %d, want 3", s.ID, res.Delivered[s.ID])
		}
	}
	if res.Duration <= 0 {
		t.Error("non-positive duration")
	}
	if res.AirtimeData <= 0 || res.AirtimeOverhead <= 0 {
		t.Error("airtime accounting missing")
	}
	// Duration accounts for data + overhead exactly.
	if math.Abs(res.Duration-(res.AirtimeData+res.AirtimeOverhead)) > 1e-9 {
		t.Errorf("duration %v != data %v + overhead %v", res.Duration, res.AirtimeData, res.AirtimeOverhead)
	}
}

func TestSerialDeterministic(t *testing.T) {
	sts := stationsFromDB(2, 30, 20, 15)
	a, err := RunSerial(sts, cfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSerial(sts, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Collisions != b.Collisions {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	c2 := cfg()
	c2.Seed = 999
	c, err := RunSerial(sts, c2)
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may legitimately coincide; just ensure it runs
}

func TestSerialMatchesAnalyticAirtime(t *testing.T) {
	// With one station there is no contention: data airtime must equal the
	// analytic solo time exactly, per packet.
	sts := stationsFromDB(5, 25)
	res, err := RunSerial(sts, cfg())
	if err != nil {
		t.Fatal(err)
	}
	want := 5 * cfg().PacketBits / phy.Wifi20MHz.Capacity(phy.FromDB(25))
	if math.Abs(res.AirtimeData-want) > 1e-9 {
		t.Errorf("data airtime %v, want %v", res.AirtimeData, want)
	}
	if res.Collisions != 0 {
		t.Errorf("single station collided %d times", res.Collisions)
	}
}

func TestScheduledDrainsEverything(t *testing.T) {
	sts := stationsFromDB(2, 32, 16, 28, 13)
	res, err := RunScheduled(sts, cfg(), schedOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sts {
		if res.Delivered[s.ID] != 2 {
			t.Errorf("station %d delivered %d, want 2", s.ID, res.Delivered[s.ID])
		}
	}
	if res.DecodeFailures != 0 {
		t.Errorf("perfect SIC produced %d decode failures", res.DecodeFailures)
	}
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (one per backlog unit)", res.Rounds)
	}
}

// The central validation: simulated SIC drain time must match the analytic
// schedule total once control overheads are subtracted.
func TestScheduledMatchesAnalyticPrediction(t *testing.T) {
	sts := stationsFromDB(1, 32, 16, 28, 13, 36, 19)
	res, err := RunScheduled(sts, cfg(), schedOpts())
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]sched.Client, len(sts))
	for i, s := range sts {
		clients[i] = sched.Client{ID: "x", SNR: s.SNR}
	}
	want, err := sched.New(context.Background(), clients, schedOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Data airtime may exceed the analytic total because a SIC slot holds
	// the medium until BOTH frames end (the analytic total is also defined
	// that way), so they should agree tightly.
	if math.Abs(res.AirtimeData-want.Total) > 1e-6*want.Total {
		t.Errorf("simulated data airtime %v vs analytic schedule %v", res.AirtimeData, want.Total)
	}
	// And the full duration exceeds it only by control overhead.
	if res.Duration < want.Total {
		t.Errorf("duration %v below the physical floor %v", res.Duration, want.Total)
	}
}

func TestScheduledBeatsSerialForGoodTopology(t *testing.T) {
	// Pairs near the SIC sweet spot (strong ≈ twice weak in dB) at modest
	// backlog: scheduled mode should finish faster despite announcements.
	sts := stationsFromDB(4, 30, 15, 28, 14)
	serial, err := RunSerial(sts, cfg())
	if err != nil {
		t.Fatal(err)
	}
	scheduled, err := RunScheduled(sts, cfg(), schedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if scheduled.Duration >= serial.Duration {
		t.Errorf("SIC scheduling (%v) did not beat serial CSMA (%v)", scheduled.Duration, serial.Duration)
	}
}

func TestScheduledPowerControl(t *testing.T) {
	sts := stationsFromDB(1, 26, 25)
	o := schedOpts()
	o.PowerControl = true
	res, err := RunScheduled(sts, cfg(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[1] != 1 || res.Delivered[2] != 1 {
		t.Errorf("power-controlled pair did not drain: %+v", res.Delivered)
	}
	if res.DecodeFailures != 0 {
		t.Errorf("power-controlled SIC failed %d decodes", res.DecodeFailures)
	}
}

func TestImperfectCancellationCausesRetries(t *testing.T) {
	sts := stationsFromDB(1, 30, 15, 28, 14)
	perfect, err := RunScheduled(sts, cfg(), schedOpts())
	if err != nil {
		t.Fatal(err)
	}
	imp := cfg()
	imp.Residual = 0.05 // 5% residual power after cancellation
	imperfect, err := RunScheduled(sts, imp, schedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if imperfect.DecodeFailures == 0 {
		t.Error("5% residual should break the weaker decode at least once")
	}
	if imperfect.Duration <= perfect.Duration {
		t.Errorf("imperfect SIC (%v) should be slower than perfect (%v)", imperfect.Duration, perfect.Duration)
	}
	// All packets still delivered via the solo-retry policy.
	for _, s := range sts {
		if imperfect.Delivered[s.ID] != 1 {
			t.Errorf("station %d delivered %d after retries, want 1", s.ID, imperfect.Delivered[s.ID])
		}
	}
}

func TestScheduledZeroBacklogStations(t *testing.T) {
	sts := []Station{
		{ID: 1, SNR: phy.FromDB(30), Backlog: 1},
		{ID: 2, SNR: phy.FromDB(20), Backlog: 0}, // nothing to send
	}
	res, err := RunScheduled(sts, cfg(), schedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[2] != 0 {
		t.Errorf("idle station delivered %d frames", res.Delivered[2])
	}
	if res.Delivered[1] != 1 {
		t.Errorf("active station delivered %d, want 1", res.Delivered[1])
	}
}

func TestSICReceiverDecode(t *testing.T) {
	ch := phy.Wifi20MHz
	rx := SICReceiver{Channel: ch}
	strong, weak := phy.FromDB(30), phy.FromDB(15)
	rStrong := ch.Capacity(phy.SINR(strong, weak))
	rWeak := ch.Capacity(weak)

	// Feasible SIC: both decode.
	ok := rx.Decode([]Arrival{
		{StationID: 1, SNR: strong, RateBps: rStrong},
		{StationID: 2, SNR: weak, RateBps: rWeak},
	})
	if !ok[0] || !ok[1] {
		t.Errorf("feasible SIC pair did not decode: %v", ok)
	}

	// Stronger overshoots its rate: nothing decodes (cannot cancel).
	ok = rx.Decode([]Arrival{
		{StationID: 1, SNR: strong, RateBps: rStrong * 1.5},
		{StationID: 2, SNR: weak, RateBps: rWeak},
	})
	if ok[0] || ok[1] {
		t.Errorf("undecodable strong signal must block everything: %v", ok)
	}

	// Weaker overshoots: strong decodes, weak does not.
	ok = rx.Decode([]Arrival{
		{StationID: 1, SNR: strong, RateBps: rStrong},
		{StationID: 2, SNR: weak, RateBps: rWeak * 1.5},
	})
	if !ok[0] || ok[1] {
		t.Errorf("want strong-only decode: %v", ok)
	}

	// Order of arrivals must not matter.
	ok = rx.Decode([]Arrival{
		{StationID: 2, SNR: weak, RateBps: rWeak},
		{StationID: 1, SNR: strong, RateBps: rStrong},
	})
	if !ok[0] || !ok[1] {
		t.Errorf("arrival order changed the outcome: %v", ok)
	}

	// Empty reception.
	if got := rx.Decode(nil); len(got) != 0 {
		t.Errorf("empty reception returned %v", got)
	}
}

func TestSICReceiverResidual(t *testing.T) {
	ch := phy.Wifi20MHz
	strong, weak := phy.FromDB(30), phy.FromDB(15)
	rStrong := ch.Capacity(phy.SINR(strong, weak))
	rWeak := ch.Capacity(weak)
	arr := []Arrival{
		{StationID: 1, SNR: strong, RateBps: rStrong},
		{StationID: 2, SNR: weak, RateBps: rWeak},
	}
	perfect := SICReceiver{Channel: ch}
	if ok := perfect.Decode(arr); !ok[1] {
		t.Fatal("perfect receiver should decode the weak signal")
	}
	dirty := SICReceiver{Channel: ch, Residual: 0.1}
	if ok := dirty.Decode(arr); ok[1] {
		t.Error("10% residual should break a rate chosen for perfect cancellation")
	}
}

func TestSICReceiverMaxDecodes(t *testing.T) {
	ch := phy.Wifi20MHz
	// Three wildly separated signals, each decodable in sequence...
	s1, s2, s3 := phy.FromDB(45), phy.FromDB(28), phy.FromDB(12)
	arr := []Arrival{
		{StationID: 1, SNR: s1, RateBps: ch.Capacity(phy.SINR(s1, s2+s3)) * 0.9},
		{StationID: 2, SNR: s2, RateBps: ch.Capacity(phy.SINR(s2, s3)) * 0.9},
		{StationID: 3, SNR: s3, RateBps: ch.Capacity(s3) * 0.9},
	}
	// ...but the default receiver stops at two (the paper's scope).
	two := SICReceiver{Channel: ch}
	ok := two.Decode(arr)
	if !ok[0] || !ok[1] || ok[2] {
		t.Errorf("default receiver should decode exactly the two strongest: %v", ok)
	}
	three := SICReceiver{Channel: ch, MaxDecodes: 3}
	ok = three.Decode(arr)
	if !ok[0] || !ok[1] || !ok[2] {
		t.Errorf("3-decode receiver should recover all: %v", ok)
	}
}

func TestRunScheduledMaxRounds(t *testing.T) {
	c := cfg()
	c.Residual = 0.9 // hopeless receiver
	c.MaxRounds = 3
	// With residual 0.9 SIC pairs always fail, but the solo-retry policy
	// still drains; MaxRounds=3 with enough stations must either drain or
	// error, never hang.
	sts := stationsFromDB(2, 30, 15, 28, 14, 26, 13)
	res, err := RunScheduled(sts, c, schedOpts())
	if err == nil {
		// Draining is acceptable — verify it really finished.
		for _, s := range sts {
			if res.Delivered[s.ID] != 2 {
				t.Fatalf("claimed success but station %d has %d/2", s.ID, res.Delivered[s.ID])
			}
		}
	} else if !strings.Contains(err.Error(), "did not drain") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestScheduledMultirateMatchesAnalytic(t *testing.T) {
	// Two clients with close SNRs: the stronger is the SIC bottleneck, so
	// multirate packetization should shorten the slot, and the simulated
	// data airtime must match core's MultirateTime exactly.
	sts := stationsFromDB(1, 25, 23)
	base := schedOpts()
	mr := base
	mr.Multirate = true

	plain, err := RunScheduled(sts, cfg(), base)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunScheduled(sts, cfg(), mr)
	if err != nil {
		t.Fatal(err)
	}
	if multi.DecodeFailures != 0 {
		t.Fatalf("multirate run failed %d decodes", multi.DecodeFailures)
	}
	if multi.AirtimeData >= plain.AirtimeData {
		t.Errorf("multirate airtime %v should beat plain SIC %v", multi.AirtimeData, plain.AirtimeData)
	}
	want := core.Pair{S1: phy.FromDB(25), S2: phy.FromDB(23)}.MultirateTime(cfg().Channel, cfg().PacketBits)
	if math.Abs(multi.AirtimeData-want) > 1e-9*want {
		t.Errorf("simulated multirate airtime %v != analytic %v", multi.AirtimeData, want)
	}
}

func TestScheduledMultirateDrains(t *testing.T) {
	sts := stationsFromDB(3, 30, 15, 27, 24)
	mr := schedOpts()
	mr.Multirate = true
	res, err := RunScheduled(sts, cfg(), mr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sts {
		if res.Delivered[s.ID] != 3 {
			t.Errorf("station %d delivered %d/3", s.ID, res.Delivered[s.ID])
		}
	}
}

func TestResidualAwarePlanNeverFails(t *testing.T) {
	// When the scheduler plans with the receiver's true β, every SIC slot
	// decodes and the drain time grows smoothly with β.
	sts := stationsFromDB(2, 30, 15, 28, 14)
	prev := 0.0
	for _, beta := range []float64{0, 1e-4, 1e-3, 1e-2} {
		c := cfg()
		c.Residual = beta
		o := schedOpts()
		o.Residual = beta
		res, err := RunScheduled(sts, c, o)
		if err != nil {
			t.Fatalf("β=%v: %v", beta, err)
		}
		if res.DecodeFailures != 0 {
			t.Errorf("β=%v: residual-aware plan failed %d decodes", beta, res.DecodeFailures)
		}
		if res.Duration < prev-1e-12 {
			t.Errorf("β=%v: drain %v shrank below %v", beta, res.Duration, prev)
		}
		prev = res.Duration
	}
}

func TestScheduledCaptureLog(t *testing.T) {
	var buf bytes.Buffer
	w, err := capture.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.Capture = w
	sts := stationsFromDB(1, 30, 15, 22)
	res, err := RunScheduled(sts, c, schedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := capture.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// One schedule announcement plus one data frame per delivered packet.
	delivered := 0
	for _, n := range res.Delivered {
		delivered += n
	}
	var schedules, data int
	var prevTS uint64
	for i, rec := range recs {
		f, err := rec.Decode()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		switch f.Type {
		case frame.TypeSchedule:
			schedules++
			if _, err := frame.DecodeSchedule(f.Payload); err != nil {
				t.Fatalf("record %d schedule payload: %v", i, err)
			}
		case frame.TypeData:
			data++
		}
		if rec.TimestampNanos < prevTS {
			t.Fatalf("record %d timestamp went backwards", i)
		}
		prevTS = rec.TimestampNanos
	}
	if schedules != res.Rounds {
		t.Errorf("captured %d schedules, want %d (one per round)", schedules, res.Rounds)
	}
	if data != delivered {
		t.Errorf("captured %d data frames, want %d", data, delivered)
	}
}

// The analytic multi-round drain plan (sched.Drain) must equal the
// simulator's data airtime for the same backlogs: both recompute the
// schedule over the remaining clients each round.
func TestScheduledMatchesDrainPlan(t *testing.T) {
	dbs := []float64{32, 16, 28, 13}
	backlogs := []int{3, 1, 2, 2}
	sts := make([]Station, len(dbs))
	clients := make([]sched.Client, len(dbs))
	for i := range dbs {
		sts[i] = Station{ID: uint32(i + 1), SNR: phy.FromDB(dbs[i]), Backlog: backlogs[i]}
		clients[i] = sched.Client{ID: "c", SNR: sts[i].SNR}
	}
	res, err := RunScheduled(sts, cfg(), schedOpts())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Drain(context.Background(), clients, backlogs, schedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AirtimeData-plan.Total) > 1e-9*plan.Total {
		t.Errorf("simulated airtime %v != drain plan %v", res.AirtimeData, plan.Total)
	}
	if res.Rounds != len(plan.Rounds) {
		t.Errorf("rounds %d != plan rounds %d", res.Rounds, len(plan.Rounds))
	}
}

func TestRunDownloadValidation(t *testing.T) {
	c := cfg()
	if _, err := RunDownload(nil, c); err == nil {
		t.Error("no clients accepted")
	}
	if _, err := RunDownload([]DownloadClient{{ID: 0, SNRs: []float64{10}, Backlog: 1}}, c); err == nil {
		t.Error("zero id accepted")
	}
	if _, err := RunDownload([]DownloadClient{{ID: 1, SNRs: nil, Backlog: 1}}, c); err == nil {
		t.Error("no SNRs accepted")
	}
	if _, err := RunDownload([]DownloadClient{{ID: 1, SNRs: []float64{-1}, Backlog: 1}}, c); err == nil {
		t.Error("negative SNR accepted")
	}
	dup := []DownloadClient{
		{ID: 1, SNRs: []float64{10}, Backlog: 1},
		{ID: 1, SNRs: []float64{10}, Backlog: 1},
	}
	if _, err := RunDownload(dup, c); err == nil {
		t.Error("duplicate ids accepted")
	}
}

// The paper's Fig. 8 conclusion, end to end: download gains are tiny even
// when SIC pairing is applied wherever it helps.
func TestRunDownloadModestGains(t *testing.T) {
	// Client on the Fig. 8 ridge: second AP at about half the dB of the first.
	ridge := DownloadClient{ID: 1, SNRs: []float64{phy.FromDB(24), phy.FromDB(12)}, Backlog: 10}
	// Client with nearly equal APs: SIC pairing is a loss, strategy must
	// fall back to serial (gain exactly 1).
	equal := DownloadClient{ID: 2, SNRs: []float64{phy.FromDB(25), phy.FromDB(24)}, Backlog: 10}

	res, err := RunDownload([]DownloadClient{ridge}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.SICPairsUsed == 0 {
		t.Error("ridge client should use SIC pairs")
	}
	if g := res.Gain(); g <= 1 || g > 1.3 {
		t.Errorf("ridge download gain %v, want small but real (paper: ≤ ~1.25)", g)
	}

	res, err = RunDownload([]DownloadClient{equal}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.SICPairsUsed != 0 {
		t.Error("equal-AP client should never pair")
	}
	if g := res.Gain(); math.Abs(g-1) > 1e-12 {
		t.Errorf("equal-AP gain %v, want exactly 1", g)
	}
}

// Simulated download gain must equal the analytic core.Download gain for a
// two-packet backlog.
func TestRunDownloadMatchesAnalytic(t *testing.T) {
	s1, s2 := phy.FromDB(24), phy.FromDB(12)
	client := DownloadClient{ID: 1, SNRs: []float64{s1, s2}, Backlog: 2}
	res, err := RunDownload([]DownloadClient{client}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	want := core.Download{S1: s1, S2: s2}.Gain(cfg().Channel, cfg().PacketBits)
	if want < 1 {
		want = 1
	}
	if math.Abs(res.Gain()-want) > 1e-9 {
		t.Errorf("simulated gain %v != analytic %v", res.Gain(), want)
	}
}

func TestRunDownloadOddBacklog(t *testing.T) {
	client := DownloadClient{ID: 1, SNRs: []float64{phy.FromDB(24), phy.FromDB(12)}, Backlog: 5}
	res, err := RunDownload([]DownloadClient{client}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.SICPairsUsed != 2 {
		t.Errorf("5 packets should form 2 pairs, got %d", res.SICPairsUsed)
	}
	if res.SICDuration >= res.SerialDuration {
		t.Errorf("pairing should help on the ridge: %v vs %v", res.SICDuration, res.SerialDuration)
	}
}

func TestFaultCountersAddTotal(t *testing.T) {
	a := FaultCounters{FramesLost: 1, CRCRejects: 2, Retries: 3, TimedOutSlots: 4, Stalls: 5}
	b := FaultCounters{FramesLost: 10, Retries: 1}
	a.Add(b)
	want := FaultCounters{FramesLost: 11, CRCRejects: 2, Retries: 4, TimedOutSlots: 4, Stalls: 5}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
	if got := a.Total(); got != 11+2+4+4+5 {
		t.Errorf("Total = %d", got)
	}
}

func TestSerialCollisionsCountedAsRetries(t *testing.T) {
	// Many equal stations with small contention windows collide often;
	// each collision re-contends every collider, so the shared retry
	// counter must grow at least twice as fast as the collision counter.
	cfg := DefaultConfig(phy.Wifi20MHz)
	cfg.CWMin = 2
	cfg.Seed = 4
	sts := make([]Station, 6)
	for i := range sts {
		sts[i] = Station{ID: uint32(i + 1), SNR: phy.FromDB(20), Backlog: 3}
	}
	res, err := RunSerial(sts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collisions == 0 {
		t.Skip("no collisions with this seed; scenario needs retuning")
	}
	if res.Faults.Retries < 2*res.Collisions {
		t.Errorf("Retries = %d, want >= 2×Collisions (%d)", res.Faults.Retries, res.Collisions)
	}
}
