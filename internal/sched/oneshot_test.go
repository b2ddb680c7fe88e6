package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/phy"
	"repro/internal/rates"
)

// optionShapes covers every cost-model branch of pairCost.
var optionShapes = func() []Options {
	base := Options{Channel: phy.Wifi20MHz, PacketBits: 12000}
	pc, mr, both, rate, res := base, base, base, base, base
	pc.PowerControl = true
	mr.Multirate = true
	both.PowerControl, both.Multirate = true, true
	rate.Rate = rates.Dot11g.RateFunc()
	res.Residual = 0.05
	return []Options{base, pc, mr, both, rate, res}
}()

// oneShotClients draws n clients at 6–40 dB, all reachable under every
// option shape (802.11g's lowest rate needs 6 dB).
func oneShotClients(rng *rand.Rand, n int) []Client {
	cs := make([]Client, n)
	for i := range cs {
		cs[i] = Client{ID: fmt.Sprintf("c%d", i), SNR: phy.FromDB(6 + 34*rng.Float64())}
	}
	return cs
}

// countdownCtx reports cancellation from its (left+1)-th Err call on, so a
// test can abandon a query at a fixed point mid-way through the table
// build or the blossom search.
type countdownCtx struct {
	context.Context
	done chan struct{}
	left int
}

func newCountdownCtx(left int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), done: make(chan struct{}), left: left}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// oneShotCall is one New or Greedy query. ctx builds a fresh context per
// run, so a stateful countdown aborts the pooled call and its fresh-Planner
// reference at the same point; fails says the query must return an error.
type oneShotCall struct {
	greedy  bool
	clients []Client
	opts    Options
	ctx     func() context.Context
	fails   bool
}

func (c oneShotCall) String() string {
	entry := "New"
	if c.greedy {
		entry = "Greedy"
	}
	return fmt.Sprintf("%s(n=%d, %+v)", entry, len(c.clients), c.opts)
}

// check runs the call through the one-shot entry point and through a fresh
// Planner, and describes the first difference between the two ("" when
// they agree bit for bit, or fail as the call expects with the same
// error).
func (c oneShotCall) check() string {
	ctx := context.Background
	if c.ctx != nil {
		ctx = c.ctx
	}
	var got, want Schedule
	var gotErr, wantErr error
	fresh := NewPlanner(c.opts)
	if c.greedy {
		got, gotErr = Greedy(ctx(), c.clients, c.opts)
		want, wantErr = fresh.PlanGreedy(ctx(), c.clients)
	} else {
		got, gotErr = New(ctx(), c.clients, c.opts)
		want, wantErr = fresh.Plan(ctx(), c.clients)
	}
	if (gotErr != nil) != c.fails || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("%v: err %v, fresh Planner err %v, want failure %v", c, gotErr, wantErr, c.fails)
	}
	if c.fails {
		return ""
	}
	if d := scheduleBitsDiff(got, want); d != "" {
		return fmt.Sprintf("%v: %s", c, d)
	}
	return ""
}

// scheduleBitsDiff compares two schedules slot for slot, floats by their
// bits.
func scheduleBitsDiff(got, want Schedule) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.Slots) != len(want.Slots) {
		return fmt.Sprintf("%d slots, want %d", len(got.Slots), len(want.Slots))
	}
	for i, g := range got.Slots {
		w := want.Slots[i]
		if g.A != w.A || g.B != w.B || g.Mode != w.Mode || !same(g.WeakScale, w.WeakScale) || !same(g.Time, w.Time) {
			return fmt.Sprintf("slot %d = %+v, want %+v", i, g, w)
		}
	}
	if !same(got.Total, want.Total) || !same(got.SerialBaseline, want.SerialBaseline) {
		return fmt.Sprintf("total %v baseline %v, want %v and %v",
			got.Total, got.SerialBaseline, want.Total, want.SerialBaseline)
	}
	return ""
}

// TestOneShotIndependentOfPriorCalls: New and Greedy run on pooled
// Planners, yet each call must return bit for bit what a fresh Planner
// returns, whatever ran on the pooled one before — a larger instance, a
// cancelled or failed query, or the same client IDs under other Options
// or other SNRs, which a Planner keeping its cached table or its previous
// Options would answer from stale costs.
func TestOneShotIndependentOfPriorCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	base := optionShapes[0]
	same := oneShotClients(rng, 10)
	moved := append([]Client(nil), same...)
	for i := range moved {
		moved[i].SNR *= 1 + 0.3*rng.Float64()
	}
	invalid := oneShotClients(rng, 6)
	invalid[3].SNR = math.NaN()
	unreachable := oneShotClients(rng, 6)
	unreachable[2].SNR = 1 // 0 dB

	var calls []oneShotCall
	add := func(clients []Client, o Options) {
		calls = append(calls,
			oneShotCall{clients: clients, opts: o},
			oneShotCall{greedy: true, clients: clients, opts: o})
	}
	for _, n := range []int{1, 2, 7, 10} {
		for _, o := range optionShapes {
			add(oneShotClients(rng, n), o)
		}
	}
	for _, o := range optionShapes {
		add(same, o)
	}
	add(same, base)
	add(moved, base)
	add(same, optionShapes[1])
	add(moved, optionShapes[3])
	add(oneShotClients(rng, 31), base)
	add(same, base)
	cancelled := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	calls = append(calls,
		oneShotCall{clients: oneShotClients(rng, 24), opts: base, ctx: cancelled, fails: true},
		oneShotCall{greedy: true, clients: same, opts: base, ctx: cancelled, fails: true})
	add(same, optionShapes[1])
	// A 40-client query polls ctx once per table row, then at the start of
	// the solve and every few dozen blossom steps: 20 polls stop it in the
	// table build, 45 in the blossom search.
	for _, left := range []int{20, 45} {
		calls = append(calls, oneShotCall{clients: oneShotClients(rng, 40), opts: base,
			ctx: func() context.Context { return newCountdownCtx(left) }, fails: true})
		add(same, base)
	}
	add(moved, base)
	calls = append(calls,
		oneShotCall{clients: invalid, opts: base, fails: true},
		oneShotCall{greedy: true, clients: invalid, opts: base, fails: true})
	add(same, optionShapes[2])
	calls = append(calls,
		oneShotCall{clients: unreachable, opts: optionShapes[4], fails: true},
		oneShotCall{greedy: true, clients: unreachable, opts: optionShapes[4], fails: true})
	add(same, optionShapes[4])
	add(same, optionShapes[5])

	for _, c := range calls {
		if d := c.check(); d != "" {
			t.Error(d)
		}
	}
}

// TestOneShotConcurrent: goroutines sharing the planner pool each get
// exactly the schedules a private fresh Planner gives.
func TestOneShotConcurrent(t *testing.T) {
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for k := 0; k < perWorker; k++ {
				c := oneShotCall{
					greedy:  k%2 == 1,
					clients: oneShotClients(rng, 1+rng.Intn(16)),
					opts:    optionShapes[(w+k)%len(optionShapes)],
				}
				if d := c.check(); d != "" {
					t.Errorf("worker %d call %d: %s", w, k, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
