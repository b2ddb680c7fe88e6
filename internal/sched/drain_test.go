package sched

import (
	"context"
	"math"
	"testing"

	"repro/internal/phy"
)

func TestDrainValidation(t *testing.T) {
	cs := clientsFromDB(30, 15)
	if _, err := Drain(context.Background(), cs, []int{1}, opts); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Drain(context.Background(), cs, []int{1, -1}, opts); err == nil {
		t.Error("negative backlog accepted")
	}
	if _, err := Drain(context.Background(), cs, []int{0, 0}, opts); err == nil {
		t.Error("empty drain accepted")
	}
}

func TestDrainEqualBacklogs(t *testing.T) {
	cs := clientsFromDB(30, 15, 28, 14)
	plan, err := Drain(context.Background(), cs, []int{3, 3, 3, 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(plan.Rounds))
	}
	// Equal backlogs: every round schedules the same set, so the total is
	// 3× one round.
	if math.Abs(plan.Total-3*plan.Rounds[0].Total) > 1e-9*plan.Total {
		t.Errorf("total %v != 3 × round %v", plan.Total, plan.Rounds[0].Total)
	}
	if plan.Gain() <= 1 {
		t.Errorf("gain %v should exceed 1 for matched pairs", plan.Gain())
	}
}

func TestDrainUnequalBacklogs(t *testing.T) {
	cs := clientsFromDB(30, 15, 22)
	plan, err := Drain(context.Background(), cs, []int{3, 1, 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds: {c0,c1}, {c0}, {c0} — client 2 never appears.
	if len(plan.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(plan.Rounds))
	}
	if got := plan.RoundClients[0]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("round 0 clients = %v, want [0 1]", got)
	}
	for r := 1; r < 3; r++ {
		if got := plan.RoundClients[r]; len(got) != 1 || got[0] != 0 {
			t.Errorf("round %d clients = %v, want [0]", r, got)
		}
	}
	// Baseline counts 3 packets of c0 and 1 of c1.
	solo0 := 12000 / phy.Wifi20MHz.Capacity(cs[0].SNR)
	solo1 := 12000 / phy.Wifi20MHz.Capacity(cs[1].SNR)
	want := 3*solo0 + solo1
	if math.Abs(plan.SerialBaseline-want) > 1e-9*want {
		t.Errorf("baseline %v, want %v", plan.SerialBaseline, want)
	}
}

func TestDrainGainDegenerate(t *testing.T) {
	if g := (DrainPlan{}).Gain(); g != 1 {
		t.Errorf("zero plan gain = %v, want 1", g)
	}
}

func TestDrainNeverWorseThanSerial(t *testing.T) {
	cs := clientsFromDB(31, 17, 25, 12, 29, 15)
	plan, err := Drain(context.Background(), cs, []int{4, 2, 3, 5, 1, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total > plan.SerialBaseline*(1+1e-9) {
		t.Errorf("drain %v worse than serial %v", plan.Total, plan.SerialBaseline)
	}
}
