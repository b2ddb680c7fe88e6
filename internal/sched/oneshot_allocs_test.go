//go:build !race

package sched

import (
	"context"
	"math/rand"
	"testing"
)

// TestOneShotAllocs pins New and Greedy at one allocation per call, the
// returned schedule's slots, once the planner pool holds a Planner grown
// for the instance. Under -race, sync.Pool drops a random quarter of its
// Puts, so the count is only deterministic without it.
func TestOneShotAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{2, 5, 10, 30} {
		clients := plannerClients(rng, n)
		for name, solve := range map[string]func(context.Context, []Client, Options) (Schedule, error){
			"New": New, "Greedy": Greedy,
		} {
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := solve(context.Background(), clients, plannerOpts); err != nil {
					panic(err)
				}
			})
			if allocs != 1 {
				t.Errorf("n=%d: %s made %v allocations per call, want 1", n, name, allocs)
			}
		}
	}
}
