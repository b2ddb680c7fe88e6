package emu

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/phy"
)

// TestEmuMidRunCancellation cancels a large run mid-flight: Run must
// return promptly with the context error.
func TestEmuMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Backlog sized so the run is still mid-flight when cancel fires,
		// even on a fast machine; the cancel keeps the test itself quick.
		_, err := Run(ctx, emuStations(50000, 30, 15, 28, 14, 22, 11), emuCfg())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

// TestStationErrorDuringDeliver: a station that fails on a frame the AP
// delivers to it — here it cannot build a data frame past
// frame.MaxPayload — ends the run with its error.
func TestStationErrorDuringDeliver(t *testing.T) {
	cfg := emuCfg()
	cfg.PacketBits = 8 * (frame.MaxPayload + 64)
	_, err := Run(context.Background(), emuStations(1, 30, 15), cfg)
	if !errors.Is(err, frame.ErrTooLarge) {
		t.Fatalf("Run = %v, want the station's frame.ErrTooLarge", err)
	}
}

// TestStationActorErrorPropagates: a station triggered for a slot the
// medium does not have open returns the medium's rejection.
func TestStationActorErrorPropagates(t *testing.T) {
	s := &stationActor{id: 7, snr: 100, backlog: 1, med: &medium{}, ch: phy.Wifi20MHz, bits: 12000}
	payload, err := frame.MarshalSchedule([]frame.ScheduleEntry{{A: 7, B: frame.Broadcast, WeakScaleMicros: 1_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	err = s.handleFrame(&frame.Frame{Type: frame.TypePoll, Seq: 42, DurationUS: 6000, Payload: payload})
	if err == nil || !strings.Contains(err.Error(), "unknown slot") {
		t.Errorf("station error = %v, want the medium's unknown-slot rejection", err)
	}
}
