package sched

import (
	"context"
	"errors"
	"fmt"
)

// DrainPlan is a multi-round schedule draining unequal per-client backlogs:
// every round pairs the clients that still have packets (one packet each),
// exactly as the AP in the simulator and the emulation do.
type DrainPlan struct {
	// Rounds holds one Schedule per round, over that round's pending
	// clients (RoundClients gives the index mapping).
	Rounds []Schedule
	// RoundClients[i][j] is the original client index of round i's client j.
	RoundClients [][]int
	// Total is the summed drain time across rounds.
	Total float64
	// SerialBaseline is the time to serialise every packet of every client.
	SerialBaseline float64
}

// Gain is the drain-time speedup over fully serial upload.
func (d DrainPlan) Gain() float64 {
	if d.Total == 0 {
		return 1
	}
	return d.SerialBaseline / d.Total
}

// Drain plans the multi-round drain of the given backlogs. backlogs[i] is
// the packet count of clients[i]; clients with zero backlog are skipped.
// Cancelling ctx abandons the plan with ctx's error.
func Drain(ctx context.Context, clients []Client, backlogs []int, o Options) (DrainPlan, error) {
	if len(clients) != len(backlogs) {
		return DrainPlan{}, fmt.Errorf("sched: %d clients but %d backlogs", len(clients), len(backlogs))
	}
	remaining := make([]int, len(backlogs))
	total := 0
	for i, b := range backlogs {
		if b < 0 {
			return DrainPlan{}, fmt.Errorf("sched: negative backlog for client %d", i)
		}
		remaining[i] = b
		total += b
	}
	if total == 0 {
		return DrainPlan{}, errors.New("sched: nothing to drain")
	}

	var plan DrainPlan
	for {
		var round []Client
		var idx []int
		for i, c := range clients {
			if remaining[i] > 0 {
				round = append(round, c)
				idx = append(idx, i)
			}
		}
		if len(round) == 0 {
			break
		}
		s, err := New(ctx, round, o)
		if err != nil {
			return DrainPlan{}, fmt.Errorf("sched: round %d: %w", len(plan.Rounds)+1, err)
		}
		plan.Rounds = append(plan.Rounds, s)
		plan.RoundClients = append(plan.RoundClients, idx)
		plan.Total += s.Total
		for _, i := range idx {
			remaining[i]--
		}
	}

	// Serial baseline: every packet alone at its best rate.
	for i, c := range clients {
		if backlogs[i] == 0 {
			continue
		}
		s, err := New(ctx, []Client{c}, o)
		if err != nil {
			return DrainPlan{}, err
		}
		plan.SerialBaseline += float64(backlogs[i]) * s.Total
	}
	return plan, nil
}
