package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// This file extends the §6 scheduler beyond the paper: the paper restricts
// itself to two-signal SIC, but names K-signal chains and generic packing
// as future directions. GroupsOfUpTo3 schedules slots of one, two or three
// concurrent uploaders, the three-client slots decoded by a 3-stage SIC
// chain (core.ChainTime). Optimal grouping into triples is 3-dimensional
// matching (NP-hard), so the planner is greedy by airtime saved; the tests
// quantify what it buys over the optimal pairwise matching.

// GroupSlot is one slot of a grouped schedule.
type GroupSlot struct {
	// Members indexes the clients transmitting concurrently (1–3 of them).
	Members []int
	// Time is the slot's completion time.
	Time float64
}

// GroupSchedule is the grouped scheduler's output.
type GroupSchedule struct {
	// Slots in arbitrary order.
	Slots []GroupSlot
	// Total is the summed slot time.
	Total float64
	// SerialBaseline is the all-solo drain time.
	SerialBaseline float64
}

// Gain is the speedup over serial upload.
func (g GroupSchedule) Gain() float64 {
	if g.Total == 0 {
		return 1
	}
	return g.SerialBaseline / g.Total
}

// groupCand is one candidate slot. members is fixed-width so the O(n³)
// candidate sweep never allocates per candidate; pairs pad members[2]
// with -1, which also makes the lexicographic tie-break order pairs
// before the triples that extend them — exactly the order the old
// variable-length comparator produced.
type groupCand struct {
	members [3]int
	time    float64
	saved   float64
}

// groupCands sorts by airtime saved (descending), then members
// lexicographically — a total order, so the greedy pass is deterministic.
type groupCands []groupCand

func (c groupCands) Len() int      { return len(c) }
func (c groupCands) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c groupCands) Less(a, b int) bool {
	if c[a].saved != c[b].saved {
		return c[a].saved > c[b].saved
	}
	if c[a].members[0] != c[b].members[0] {
		return c[a].members[0] < c[b].members[0]
	}
	if c[a].members[1] != c[b].members[1] {
		return c[a].members[1] < c[b].members[1]
	}
	return c[a].members[2] < c[b].members[2]
}

// Grouper plans grouped drains while reusing its O(n³) candidate scratch
// across calls, so a trace sweep evaluating hundreds of snapshots does not
// rebuild the candidate arena each time. The zero value is ready to use; a
// Grouper is not safe for concurrent Plan calls. Returned schedules are
// freshly allocated and remain valid after further Plan calls.
type Grouper struct {
	solo  []float64
	cands groupCands
	used  []bool
}

// GroupsOfUpTo3 plans a one-packet-per-client drain allowing slots of up to
// three concurrent transmitters. Slot costs: solo airtime, the §6 pair cost
// (with the serial fallback), and the 3-chain completion time (again with
// the fallback). Groups are chosen greedily by airtime saved. Costs are at
// Shannon capacity: the 3-chain time has no discrete-rate form, so an
// Options.Rate is rejected.
func GroupsOfUpTo3(clients []Client, o Options) (GroupSchedule, error) {
	var g Grouper
	return g.Plan(clients, o)
}

// Plan is GroupsOfUpTo3 with the receiver's scratch reused: same
// validation, same schedule, same errors.
func (g *Grouper) Plan(clients []Client, o Options) (GroupSchedule, error) {
	if len(clients) == 0 {
		return GroupSchedule{}, ErrNoClients
	}
	if o.Channel.BandwidthHz <= 0 || o.PacketBits <= 0 {
		return GroupSchedule{}, errors.New("sched: Options.Channel and PacketBits are required")
	}
	if o.Rate != nil {
		return GroupSchedule{}, errors.New("sched: grouped schedules support Shannon rates only; Options.Rate must be nil")
	}
	n := len(clients)
	if cap(g.solo) < n {
		g.solo = make([]float64, n)
		g.used = make([]bool, n)
	}
	solo := g.solo[:n]
	var baseline float64
	for i, c := range clients {
		if !(c.SNR > 0) || math.IsNaN(c.SNR) || math.IsInf(c.SNR, 1) {
			return GroupSchedule{}, fmt.Errorf("sched: client %d (%q) has invalid SNR %v", i, c.ID, c.SNR)
		}
		solo[i] = soloTime(c, o)
		if math.IsInf(solo[i], 1) {
			return GroupSchedule{}, fmt.Errorf("sched: client %q unreachable", c.ID)
		}
		baseline += solo[i]
	}

	cands := g.cands[:0]
	add := func(m [3]int, k int, t float64) {
		serial := solo[m[0]] + solo[m[1]]
		if k == 3 {
			serial += solo[m[2]]
		}
		if t >= serial {
			return // no savings: not a useful group
		}
		cands = append(cands, groupCand{members: m, time: t, saved: serial - t})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t, _, _ := pairCost(clients[i], clients[j], solo[i], solo[j], o)
			add([3]int{i, j, -1}, 2, t)
			for k := j + 1; k < n; k++ {
				chain := [3]float64{clients[i].SNR, clients[j].SNR, clients[k].SNR}
				ct, err := core.ChainTime(o.Channel, o.PacketBits, chain[:])
				if err != nil {
					return GroupSchedule{}, err
				}
				add([3]int{i, j, k}, 3, ct)
			}
		}
	}
	g.cands = cands // keep the grown arena for the next Plan
	sort.Sort(cands)

	used := g.used[:n]
	for i := range used {
		used[i] = false
	}
	// One backing array holds every slot's members: each client joins at
	// most one slot, so n ints bound the whole schedule. The backing is
	// per-call — callers own the returned schedule.
	membersBuf := make([]int, 0, n)
	out := GroupSchedule{Slots: make([]GroupSlot, 0, n)}
	for ci := range cands {
		c := &cands[ci]
		k := 3
		if c.members[2] < 0 {
			k = 2
		}
		ok := true
		for _, i := range c.members[:k] {
			if used[i] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		start := len(membersBuf)
		for _, i := range c.members[:k] {
			used[i] = true
			membersBuf = append(membersBuf, i)
		}
		out.Slots = append(out.Slots, GroupSlot{Members: membersBuf[start:len(membersBuf):len(membersBuf)], Time: c.time})
		out.Total += c.time
	}
	for i := 0; i < n; i++ {
		if !used[i] {
			start := len(membersBuf)
			membersBuf = append(membersBuf, i)
			out.Slots = append(out.Slots, GroupSlot{Members: membersBuf[start:len(membersBuf):len(membersBuf)], Time: solo[i]})
			out.Total += solo[i]
		}
	}
	out.SerialBaseline = baseline
	return out, nil
}
