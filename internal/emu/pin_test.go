package emu

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sched"
)

// pinnedFaultModels are the fault models of TestEmuResultsPinned, each with
// the SHA-256 of its rows as recorded when the pin was written. A change to
// any Result field or to the fault model's own tally moves the digest of
// the model it happened under.
var pinnedFaultModels = []struct {
	name   string
	model  FaultModel
	digest string
}{
	{"perfect", FaultModel{},
		"abe8c0222054515956a6cf4ece40a509461fbd09ec90882b28dec4d17a753199"},
	{"loss-0.02", FaultModel{Loss: 0.02},
		"cf77ba05bfa5c42950c446aa14b9600bae0e3caafa6ee27ae6377cad09ace523"},
	{"loss-0.10", FaultModel{Loss: 0.1},
		"d8b2f07d7b6fd9d41a57d88e7bd9c48c6f77434a3ab0de8794342192a0b6c57a"},
	{"corrupt-0.05", FaultModel{Corrupt: 0.05},
		"af4895a19fafc98655882c3c6fce15eacf1c1247406c95fa3732cbc73b84d537"},
	{"stall-0.15", FaultModel{Stall: 0.15},
		"f07871e92ea1c6e71f45500496da9ba2eb2f51e7f988eb42a963bb87d9c6ab8a"},
	{"stall-0.10x1", FaultModel{Stall: 0.1, StallSlots: 1},
		"74f6f04535a47c6a6d23ce20ff35e3ec3504c4f417fe3b7fcbc17517a0962449"},
	{"ack-only-0.40", FaultModel{LossByType: map[frame.Type]float64{frame.TypeAck: 0.4}},
		"8fc78b89e0b7d8f57c9e801d24473417b80b781e8340c99dca5f021faee6b22f"},
	{"poll-only-0.30", FaultModel{LossByType: map[frame.Type]float64{frame.TypePoll: 0.3}},
		"ca5d8da24004f668b6d2d2d914dae851a53b399c90a3efefebdce872a1f37230"},
	{"data-only-0.20", FaultModel{LossByType: map[frame.Type]float64{frame.TypeData: 0.2}},
		"2329a243f8581ce50e61e6074d63ac81dd1cc646b05dfe5227962a86c2500d9e"},
	{"mixed", FaultModel{Loss: 0.05, Corrupt: 0.02, Stall: 0.1},
		"f3917ccb135e9bb2a57594eb3bc39c39f1d9b75a06db711fa98646643d036c6a"},
	{"heavy", FaultModel{Loss: 0.15, Corrupt: 0.1, Stall: 0.2, StallSlots: 5},
		"3c127629249407807578a9a9e234a85f4e758638c1ed4bbd9e376a82e92a1812"},
	{"total-loss", FaultModel{Loss: 1},
		"43287f4b95281d7ae95b615ac677d6ac4c4fe0ed21bb6338b9e8bbf7fd664c86"},
}

// TestEmuResultsPinned runs 5 topologies × 12 fault models × 3 seeds × 5
// configuration variants and pins every Result, field by field, together
// with the fault model's own injection tally. One row is formatted per run
// (%v prints floats as their shortest round-trip form and maps sorted by
// key) and the rows of each fault model are hashed, so a drift names the
// model it appeared under.
func TestEmuResultsPinned(t *testing.T) {
	topologies := []struct {
		name     string
		stations []mac.Station
	}{
		{"sicsim4", emuStations(3, 30, 15, 28, 14)},
		{"six", emuStations(2, 32, 16, 28, 13, 24, 11)},
		{"near-equal", emuStations(2, 26, 25)},
		{"odd-mixed", []mac.Station{
			{ID: 1, SNR: phy.FromDB(30), Backlog: 2},
			{ID: 2, SNR: phy.FromDB(15), Backlog: 0},
			{ID: 3, SNR: phy.FromDB(22), Backlog: 3},
			{ID: 4, SNR: phy.FromDB(9), Backlog: 1},
			{ID: 5, SNR: phy.FromDB(18), Backlog: 2},
		}},
		{"solo", emuStations(3, 20)},
	}
	variants := []struct {
		name  string
		apply func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"power-control", func(c *Config) { c.Sched.PowerControl = true }},
		{"residual-unplanned", func(c *Config) { c.Residual = 0.02 }},
		{"residual-planned", func(c *Config) { c.Residual = 0.02; c.Sched.Residual = 0.02 }},
		{"retries1-rounds6", func(c *Config) { c.MaxRetries = 1; c.MaxRounds = 6 }},
	}
	seeds := []int64{1, 7, 42}

	for _, fm := range pinnedFaultModels {
		h := sha256.New()
		for _, topo := range topologies {
			for _, seed := range seeds {
				for _, v := range variants {
					cfg := emuCfg()
					cfg.Sched = sched.Options{Channel: cfg.Channel, PacketBits: cfg.PacketBits}
					cfg.Seed = seed
					cfg.Faults = fm.model
					v.apply(&cfg)
					var tally mac.FaultCounters
					cfg.faultObserver = func(c mac.FaultCounters) { tally = c }
					res, err := Run(context.Background(), topo.stations, cfg)
					if err != nil {
						t.Fatalf("%s/%s/seed=%d/%s: %v", fm.name, topo.name, seed, v.name, err)
					}
					fmt.Fprintf(h, "%s/seed=%d/%s %+v tally=%+v\n", topo.name, seed, v.name, res, tally)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != fm.digest {
			t.Errorf("fault model %s: Results digest %s, pinned %s", fm.name, got, fm.digest)
		}
	}
}
