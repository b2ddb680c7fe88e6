package emu

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sched"
)

func emuCfg() Config {
	return Config{
		Channel:    phy.Wifi20MHz,
		PacketBits: 12000,
	}
}

func emuStations(backlog int, dbs ...float64) []mac.Station {
	sts := make([]mac.Station, len(dbs))
	for i, db := range dbs {
		sts[i] = mac.Station{ID: uint32(i + 1), SNR: phy.FromDB(db), Backlog: backlog}
	}
	return sts
}

func TestEmuValidation(t *testing.T) {
	ctx := context.Background()
	bad := emuCfg()
	bad.Channel = phy.Channel{}
	if _, err := Run(ctx, emuStations(1, 20), bad); err == nil {
		t.Error("missing channel accepted")
	}
	bad = emuCfg()
	bad.PacketBits = 100
	if _, err := Run(ctx, emuStations(1, 20), bad); err == nil {
		t.Error("tiny packets accepted")
	}
	bad = emuCfg()
	bad.Residual = 2
	if _, err := Run(ctx, emuStations(1, 20), bad); err == nil {
		t.Error("residual > 1 accepted")
	}
	if _, err := Run(ctx, []mac.Station{{ID: 0, SNR: 10, Backlog: 1}}, emuCfg()); err == nil {
		t.Error("AP id accepted as station")
	}
	if _, err := Run(ctx, []mac.Station{
		{ID: 1, SNR: 10, Backlog: 1}, {ID: 1, SNR: 20, Backlog: 1},
	}, emuCfg()); err == nil {
		t.Error("duplicate ids accepted")
	}
	for _, snr := range []float64{math.NaN(), math.Inf(1)} {
		_, err := Run(ctx, []mac.Station{{ID: 1, SNR: snr, Backlog: 1}}, emuCfg())
		if err == nil || !strings.Contains(err.Error(), "invalid SNR") {
			t.Errorf("SNR %v: Run = %v, want an invalid-SNR error", snr, err)
		}
	}
}

func TestEmuDrainsEverything(t *testing.T) {
	sts := emuStations(3, 30, 15, 28, 14)
	res, err := Run(context.Background(), sts, emuCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sts {
		if res.Delivered[s.ID] != 3 {
			t.Errorf("station %d delivered %d, want 3", s.ID, res.Delivered[s.ID])
		}
	}
	if res.DecodeFailures != 0 {
		t.Errorf("perfect SIC failed %d decodes", res.DecodeFailures)
	}
	if res.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", res.Rounds)
	}
	if !res.Drained {
		t.Error("full drain not reported as Drained")
	}
}

// The emulation must reproduce the event-driven simulator's data airtime —
// the protocol is the same, only the execution machinery differs.
// Commanded rates are quantised to kbit/s on the trigger frame, so allow
// that much slack.
func TestEmuMatchesEventSimulator(t *testing.T) {
	sts := emuStations(2, 32, 16, 28, 13, 24, 11)
	emuRes, err := Run(context.Background(), sts, emuCfg())
	if err != nil {
		t.Fatal(err)
	}
	macCfg := mac.DefaultConfig(phy.Wifi20MHz)
	opts := sched.Options{Channel: phy.Wifi20MHz, PacketBits: 12000}
	macRes, err := mac.RunScheduled(sts, macCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(emuRes.AirtimeData-macRes.AirtimeData) / macRes.AirtimeData; d > 1e-3 {
		t.Errorf("emulated airtime %v vs simulated %v (rel diff %v)",
			emuRes.AirtimeData, macRes.AirtimeData, d)
	}
	for _, s := range sts {
		if emuRes.Delivered[s.ID] != macRes.Delivered[s.ID] {
			t.Errorf("station %d delivered %d (emu) vs %d (mac)",
				s.ID, emuRes.Delivered[s.ID], macRes.Delivered[s.ID])
		}
	}
}

func TestEmuDeterministic(t *testing.T) {
	sts := emuStations(2, 30, 15, 22)
	a, err := Run(context.Background(), sts, emuCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), sts, emuCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.AirtimeData != b.AirtimeData || a.Rounds != b.Rounds {
		t.Errorf("identical runs differ: %+v vs %+v", a, b)
	}
}

func TestEmuPowerControl(t *testing.T) {
	cfg := emuCfg()
	cfg.Sched = sched.Options{Channel: cfg.Channel, PacketBits: cfg.PacketBits, PowerControl: true}
	sts := emuStations(1, 26, 25)
	res, err := Run(context.Background(), sts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[1] != 1 || res.Delivered[2] != 1 {
		t.Errorf("power-controlled pair did not drain: %+v", res.Delivered)
	}
	if res.DecodeFailures != 0 {
		t.Errorf("decode failures: %d", res.DecodeFailures)
	}
}

func TestEmuResidualAware(t *testing.T) {
	cfg := emuCfg()
	cfg.Residual = 0.01
	cfg.Sched = sched.Options{Channel: cfg.Channel, PacketBits: cfg.PacketBits, Residual: 0.01}
	sts := emuStations(2, 30, 15)
	res, err := Run(context.Background(), sts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodeFailures != 0 {
		t.Errorf("residual-aware emulation failed %d decodes", res.DecodeFailures)
	}
	if res.Delivered[1] != 2 || res.Delivered[2] != 2 {
		t.Errorf("did not drain: %+v", res.Delivered)
	}
}

func TestEmuUnawareResidualRetries(t *testing.T) {
	cfg := emuCfg()
	cfg.Residual = 0.05 // receiver imperfect, scheduler unaware
	sts := emuStations(1, 30, 15)
	res, err := Run(context.Background(), sts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodeFailures == 0 {
		t.Error("unaware schedule should fail at least one decode")
	}
	if res.Delivered[1] != 1 || res.Delivered[2] != 1 {
		t.Errorf("ARQ recovery incomplete: %+v", res.Delivered)
	}
}

func TestEmuContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must abort promptly
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, emuStations(50, 30, 15, 28, 14), emuCfg())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled run reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

func TestEmuPollOverheadAccounted(t *testing.T) {
	res, err := Run(context.Background(), emuStations(1, 30, 15), emuCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.AirtimeOverhead <= 0 {
		t.Error("backlog polling should cost overhead airtime")
	}
	if res.AirtimeOverhead >= res.AirtimeData {
		t.Errorf("tiny report frames (%v) should cost less than data (%v)",
			res.AirtimeOverhead, res.AirtimeData)
	}
}

func TestEmuBacklogReportsDriveTermination(t *testing.T) {
	// A station with zero backlog participates in polls but never data.
	sts := []mac.Station{
		{ID: 1, SNR: phy.FromDB(30), Backlog: 2},
		{ID: 2, SNR: phy.FromDB(18), Backlog: 0},
	}
	res, err := Run(context.Background(), sts, emuCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[2] != 0 {
		t.Errorf("idle station delivered %d frames", res.Delivered[2])
	}
	if res.Delivered[1] != 2 {
		t.Errorf("active station delivered %d, want 2", res.Delivered[1])
	}
}

func TestTxAirtimeZeroRate(t *testing.T) {
	if got := txAirtime(transmission{rate: 0, wire: []byte{1}}); !math.IsInf(got, 1) {
		t.Errorf("zero-rate airtime = %v, want +Inf", got)
	}
}

func TestMediumRejectsUnknownSlot(t *testing.T) {
	med := &medium{}
	if err := med.transmit(transmission{slot: slotKey(99)}); err == nil {
		t.Error("transmission with no slot open accepted")
	}
	if err := med.markAbsent(slotKey(99), 1); err == nil {
		t.Error("absence report with no slot open accepted")
	}
	med.openSlot(slotKey(1))
	if err := med.transmit(transmission{slot: slotKey(99)}); err == nil {
		t.Error("transmission into a slot other than the open one accepted")
	}
	if err := med.markAbsent(slotKey(99), 1); err == nil {
		t.Error("absence report for a slot other than the open one accepted")
	}
	if err := med.transmit(transmission{slot: slotKey(1), station: 1}); err != nil {
		t.Errorf("transmission into the open slot: %v", err)
	}
	med.resolve()
	if err := med.markAbsent(slotKey(1), 2); err == nil {
		t.Error("absence report for a resolved slot accepted")
	}
}

func TestStationRejectsBadTrigger(t *testing.T) {
	// A queued frame and an open slot, so each bad trigger below fails on
	// its own check rather than on an empty queue or an unknown slot.
	med := &medium{}
	med.openSlot(slotKey(1))
	s := &stationActor{id: 7, snr: 100, backlog: 1, ch: phy.Wifi20MHz, bits: 12000, med: med}
	// Garbage payload.
	bad := &frame.Frame{Type: frame.TypePoll, Seq: 1, Payload: []byte{1, 2, 3}}
	if err := s.handleTrigger(bad); err == nil || !strings.Contains(err.Error(), "bad trigger") {
		t.Errorf("garbage trigger: %v, want a bad-trigger error", err)
	}
	// Zero commanded rate.
	payload, err := frame.MarshalSchedule([]frame.ScheduleEntry{{A: 7, B: frame.Broadcast, WeakScaleMicros: 1000000}})
	if err != nil {
		t.Fatal(err)
	}
	zero := &frame.Frame{Type: frame.TypePoll, Seq: 1, Payload: payload, DurationUS: 0}
	if err := s.handleTrigger(zero); err == nil || !strings.Contains(err.Error(), "zero rate") {
		t.Errorf("zero-rate trigger: %v, want a zero-rate error", err)
	}
	if len(med.got) != 0 || len(med.absent) != 0 {
		t.Errorf("rejected triggers reached the medium: %d transmissions, %d absences", len(med.got), len(med.absent))
	}
	// Trigger for another station: silently ignored.
	payload2, err := frame.MarshalSchedule([]frame.ScheduleEntry{{A: 99, B: frame.Broadcast, WeakScaleMicros: 1000000}})
	if err != nil {
		t.Fatal(err)
	}
	other := &frame.Frame{Type: frame.TypePoll, Seq: 1, Payload: payload2, DurationUS: 1000}
	if err := s.handleTrigger(other); err != nil {
		t.Errorf("trigger for another station errored: %v", err)
	}
}
