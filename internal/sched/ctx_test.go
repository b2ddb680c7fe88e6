package sched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/phy"
)

func randClients(rng *rand.Rand, n int) []Client {
	cs := make([]Client, n)
	for i := range cs {
		cs[i] = Client{ID: string(rune('a' + i%26)), SNR: phy.FromDB(5 + 30*rng.Float64())}
	}
	return cs
}

// TestNewCtxMatchesNew: a live context that never fires arms every
// cancellation probe, and must reproduce New under a background context
// exactly.
func TestNewCtxMatchesNew(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	rng := rand.New(rand.NewSource(11))
	opts := Options{Channel: phy.Wifi20MHz, PacketBits: 12000}
	for trial := 0; trial < 10; trial++ {
		cs := randClients(rng, 3+rng.Intn(10))
		a, err := New(context.Background(), cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(ctx, cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Total-b.Total) > 1e-12 {
			t.Fatalf("totals differ: %v vs %v", a.Total, b.Total)
		}
	}
}

// TestNewCtxCancelled: a cancelled context aborts the solve with the
// context's error.
func TestNewCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(12))
	_, err := New(ctx, randClients(rng, 30), Options{Channel: phy.Wifi20MHz, PacketBits: 12000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	_, err = Greedy(ctx, randClients(rng, 30), Options{Channel: phy.Wifi20MHz, PacketBits: 12000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("greedy: got %v, want context.Canceled", err)
	}
}

// TestSerialSchedule: the serial fallback is all-solo with gain 1 and the
// same validation as the other entry points.
func TestSerialSchedule(t *testing.T) {
	opts := Options{Channel: phy.Wifi20MHz, PacketBits: 12000}
	cs := []Client{{ID: "a", SNR: phy.FromDB(30)}, {ID: "b", SNR: phy.FromDB(15)}, {ID: "c", SNR: phy.FromDB(10)}}
	s, err := Serial(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Slots) != 3 {
		t.Fatalf("want 3 solo slots, got %d", len(s.Slots))
	}
	for _, sl := range s.Slots {
		if sl.Mode != ModeSolo || sl.B != -1 {
			t.Fatalf("non-solo slot in serial schedule: %+v", sl)
		}
	}
	if g := s.Gain(); math.Abs(g-1) > 1e-12 {
		t.Fatalf("serial gain = %v, want 1", g)
	}
	if _, err := Serial(nil, opts); !errors.Is(err, ErrNoClients) {
		t.Fatalf("empty: got %v", err)
	}
	if _, err := Serial([]Client{{ID: "x", SNR: math.NaN()}}, opts); err == nil {
		t.Fatal("NaN SNR accepted")
	}
	if _, err := Serial(cs, Options{}); err == nil {
		t.Fatal("zero Options accepted")
	}
}

// TestGreedyValidatesOptions: the ablation/ladder entry point now performs
// the same boundary validation as New (it used to rely on callers).
func TestGreedyValidatesOptions(t *testing.T) {
	cs := []Client{{ID: "a", SNR: phy.FromDB(30)}, {ID: "b", SNR: phy.FromDB(15)}}
	if _, err := Greedy(context.Background(), cs, Options{}); err == nil {
		t.Fatal("Greedy accepted a zero Options")
	}
	if _, err := Greedy(context.Background(), cs, Options{Channel: phy.Wifi20MHz}); err == nil {
		t.Fatal("Greedy accepted zero PacketBits")
	}
}
