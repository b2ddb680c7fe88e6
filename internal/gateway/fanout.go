package gateway

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/schedd"
	"repro/internal/serve"
)

// shardReply is a shard's SCHED answer: the schedule, or the error reply
// in its place.
type shardReply struct {
	serve.ErrorReply
	schedd.SchedReply
}

// partOutcome is one fan-out target's final verdict: the winning reply
// (primary or hedge) or the error after every attempt failed.
type partOutcome struct {
	target int // primary shard index
	shard  int // shard that actually answered (hedge may differ)
	hedged bool
	shadow bool // replica-slice query (shadow AP namespace)
	reply  *shardReply
	err    error
}

// shardPart reports one target's outcome inside a merged reply.
type shardPart struct {
	Shard   string `json:"shard"`
	Level   string `json:"level,omitempty"`
	Clients int    `json:"clients"`
	Hedged  bool   `json:"hedged,omitempty"`
	Shadow  bool   `json:"shadow,omitempty"`
	Error   string `json:"error,omitempty"`
}

// schedResponse is the gateway's merged schedule. Degraded is the tier's
// honesty flag: true whenever a station's primary shard is off the live
// ring or a fan-out target failed every attempt, meaning the schedule may
// be missing stations that have fresh reports somewhere.
type schedResponse struct {
	AP       uint32        `json:"ap"`
	Degraded bool          `json:"degraded"`
	Epoch    uint64        `json:"epoch"`
	Clients  int           `json:"clients"`
	TotalMS  float64       `json:"total_ms"`
	Gain     float64       `json:"gain"`
	Slots    []schedd.Slot `json:"slots"`
	Shards   []shardPart   `json:"shards"`
	ElapsMS  float64       `json:"elapsed_ms"`
}

// shardStatus is one shard's line in the gateway HEALTH reply.
type shardStatus struct {
	Name     string `json:"name"`
	Live     bool   `json:"live"`
	Instance string `json:"instance,omitempty"`
}

// healthResponse is the gateway's HEALTH reply.
type healthResponse struct {
	UptimeMS int64            `json:"uptime_ms"`
	Epoch    uint64           `json:"epoch"`
	Stations int              `json:"stations"`
	APs      int              `json:"aps"`
	Degraded bool             `json:"degraded"`
	Shards   []shardStatus    `json:"shards"`
	Counters map[string]int64 `json:"counters"`
}

// command answers one newline-delimited query command:
//
//	SCHED <apID>   -> one-line JSON merged schedule with a degraded flag
//	HEALTH         -> one-line JSON tier health (shards, epoch, counters)
//	QUIT           -> close the connection
func (s *Server) command(fields []string) (reply any, quit bool) {
	switch fields[0] {
	case "SCHED":
		if len(fields) != 2 {
			s.queryEvents.Inc("bad")
			return serve.ErrorReply{Error: "usage: SCHED <apID>"}, false
		}
		ap, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			s.queryEvents.Inc("bad")
			return serve.ErrorReply{Error: "bad ap id: " + fields[1]}, false
		}
		s.queryEvents.Inc("queries")
		if s.inflight.Add(1) > int64(s.cfg.MaxInflight) {
			s.inflight.Add(-1)
			s.queryEvents.Inc("overload")
			return serve.ErrorReply{
				Error:        "gateway overloaded",
				RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
			}, false
		}
		defer s.inflight.Add(-1)
		return s.serveSched(s.baseCtx, uint32(ap)), false
	case "HEALTH":
		s.queryEvents.Inc("health")
		return s.health(), false
	case "QUIT":
		return nil, true
	default:
		s.queryEvents.Inc("bad")
		return serve.ErrorReply{Error: "unknown command: " + fields[0]}, false
	}
}

// health assembles the gateway HEALTH reply.
func (s *Server) health() healthResponse {
	s.ringMu.Lock()
	epoch := s.epoch
	degraded := false
	shards := make([]shardStatus, len(s.shards))
	for i, sh := range s.shards {
		shards[i] = shardStatus{Name: sh.addr.Name, Live: sh.live, Instance: sh.instance}
		if !sh.live {
			degraded = true
		}
	}
	s.ringMu.Unlock()
	s.idxMu.Lock()
	stations, aps := len(s.stations), len(s.apStations)
	s.idxMu.Unlock()
	counters := s.ingestEvents.Snapshot()
	for _, g := range []map[string]int64{
		s.queryEvents.Snapshot(), s.tierEvents.Snapshot(), s.rebalanceEvents.Snapshot(),
	} {
		for k, v := range g {
			counters[k] = v
		}
	}
	return healthResponse{
		UptimeMS: s.cfg.now().Sub(s.started).Milliseconds(),
		Epoch:    epoch,
		Stations: stations,
		APs:      aps,
		Degraded: degraded,
		Shards:   shards,
		Counters: counters,
	}
}

// serveSched fans one AP's schedule query out to the shards owning its
// stations and merges the answers. Partial failure degrades: whatever
// parts arrive are merged and the reply says so.
func (s *Server) serveSched(ctx context.Context, ap uint32) any {
	start := s.cfg.now()
	stations := s.apStationSnapshot(ap)

	s.ringMu.Lock()
	live, full, epoch := s.live, s.full, s.epoch
	s.ringMu.Unlock()

	targets, shadows, primaryDown := s.planTargets(live, full, stations)
	if ap&replicaAPBit != 0 {
		// The AP id already names a shadow slice (a diagnostic query);
		// re-marking it would just duplicate every part.
		shadows = nil
	}
	if len(targets) == 0 {
		s.queryEvents.Inc("ok")
		s.queryEvents.Inc("degraded")
		s.queryEvents.Inc("empty")
		return schedResponse{
			AP: ap, Degraded: true, Epoch: epoch,
			ElapsMS: float64(s.cfg.now().Sub(start)) / 1e6,
		}
	}
	if len(stations) == 0 {
		s.queryEvents.Inc("fanout_blind")
	}

	qctx, cancel := context.WithTimeout(ctx, s.cfg.QueryDeadline)
	defer cancel()
	launched := len(targets) + len(shadows)
	results := make(chan partOutcome, launched)
	for t, sts := range targets {
		s.queryEvents.Inc("fanout")
		go s.queryWithHedge(qctx, t, s.hedgeTarget(live, sts, targets), ap, results)
		if !shadows[t] {
			continue
		}
		// The target inherited stations whose primary is off the live ring;
		// their warm reports sit in this shard's shadow (replica) namespace
		// until fresh traffic lands under the real AP. Ask for that slice too.
		s.queryEvents.Inc("fanout")
		go func(t int) {
			reply, err := s.queryShard(qctx, t, ap|replicaAPBit)
			results <- partOutcome{target: t, shard: t, shadow: true, reply: reply, err: err}
		}(t)
	}
	parts := make([]partOutcome, 0, launched)
	for i := 0; i < launched; i++ {
		parts = append(parts, <-results)
	}
	resp := s.merge(ap, epoch, parts, primaryDown)
	elapsed := s.cfg.now().Sub(start)
	resp.ElapsMS = float64(elapsed) / 1e6
	s.queryHist.Observe(elapsed.Seconds())
	s.queryEvents.Inc("ok")
	if resp.Degraded {
		s.queryEvents.Inc("degraded")
	}
	if len(resp.Slots) == 0 {
		s.queryEvents.Inc("empty")
	}
	return resp
}

// planTargets groups the AP's stations by live-ring owner. A station whose
// full-ring owner is off the live ring marks the query degraded before a
// single shard is asked — its primary may hold fresher reports than the
// replica now serving it — and marks the serving shard for a shadow-slice
// query, because the inherited stations live in its replica namespace
// until fresh traffic lands under the real AP. With no indexed stations
// (a cold gateway) the fan-out goes blind, real and shadow, to every live
// shard.
func (s *Server) planTargets(live, full *hashRing, stations []uint32) (map[int][]uint32, map[int]bool, bool) {
	targets := make(map[int][]uint32)
	shadows := make(map[int]bool)
	primaryDown := false
	if len(stations) == 0 {
		for i := range s.shards {
			if i < len(live.live) && live.live[i] {
				targets[i] = nil
				shadows[i] = true
			}
		}
		return targets, shadows, primaryDown
	}
	for _, st := range stations {
		lo, ok := live.owner(st)
		if !ok {
			primaryDown = true
			continue
		}
		targets[lo] = append(targets[lo], st)
		if fo, ok := full.owner(st); ok && !live.live[fo] {
			primaryDown = true
			shadows[lo] = true
		}
	}
	return targets, shadows, primaryDown
}

// hedgeTarget picks where to hedge a slow target's query: the live-ring
// successor holding replicas for the most of the target's stations
// (majority vote, lowest index on ties, so the choice is deterministic).
// Returns -1 when there is no useful hedge — no stations, no distinct
// successor, or the best successor is already a fan-out target whose own
// answer covers the replicas anyway.
func (s *Server) hedgeTarget(live *hashRing, stations []uint32, targets map[int][]uint32) int {
	votes := make(map[int]int)
	for _, st := range stations {
		succ := live.successors(st, 2)
		if len(succ) == 2 {
			votes[succ[1]]++
		}
	}
	best, bestVotes := -1, 0
	for idx, v := range votes {
		if v > bestVotes || (v == bestVotes && best >= 0 && idx < best) {
			best, bestVotes = idx, v
		}
	}
	if best < 0 {
		return -1
	}
	if _, alreadyTarget := targets[best]; alreadyTarget {
		return -1
	}
	return best
}

// queryWithHedge drives one fan-out target to a single outcome: the
// primary shard's answer, or — when the primary is slow or failing and a
// replica shard exists — the hedge's. The hedge asks the replica for its
// shadow slice, since that is where the primary's stations are mirrored.
// It fires after HedgeDelay, or immediately if the primary fails first;
// first success wins.
func (s *Server) queryWithHedge(ctx context.Context, primary, hedge int, ap uint32, out chan<- partOutcome) {
	type oneResult struct {
		shard  int
		hedged bool
		reply  *shardReply
		err    error
	}
	inner := make(chan oneResult, 2)
	launch := func(shard int, hedged bool) {
		go func() {
			apArg := ap
			if hedged {
				apArg |= replicaAPBit
			}
			reply, err := s.queryShard(ctx, shard, apArg)
			inner <- oneResult{shard: shard, hedged: hedged, reply: reply, err: err}
		}()
	}
	launch(primary, false)

	var hedgeCh <-chan time.Time
	if hedge >= 0 {
		t := time.NewTimer(s.cfg.HedgeDelay)
		defer t.Stop()
		hedgeCh = t.C
	}
	fireHedge := func() {
		hedgeCh = nil
		s.queryEvents.Inc("hedges")
		launch(hedge, true)
	}

	outstanding := 1
	hedgeFired := false
	var firstErr error
	for {
		select {
		case r := <-inner:
			if r.err == nil {
				if r.hedged {
					s.queryEvents.Inc("hedge_wins")
				}
				out <- partOutcome{target: primary, shard: r.shard, hedged: r.hedged, reply: r.reply}
				return
			}
			if firstErr == nil {
				firstErr = r.err
			}
			outstanding--
			if outstanding == 0 {
				if hedge >= 0 && !hedgeFired {
					// The primary burned out before the hedge timer; the
					// replica is the only path left. Fire it now.
					hedgeFired = true
					outstanding++
					fireHedge()
					continue
				}
				out <- partOutcome{target: primary, shard: primary, err: firstErr}
				return
			}
		case <-hedgeCh:
			hedgeFired = true
			outstanding++
			fireHedge()
		}
	}
}

// queryShard runs one shard's SCHED query under the per-attempt deadline,
// retrying with capped doubling backoff. A "no fresh reports" refusal is
// an empty success — the shard is healthy, it just has nothing for this
// AP — while overload answers are retried after the shard's own hint.
func (s *Server) queryShard(ctx context.Context, idx int, ap uint32) (*shardReply, error) {
	sh := s.shards[idx]
	line := fmt.Sprintf("SCHED %d\n", ap)
	backoff := s.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < s.cfg.ShardRetries; attempt++ {
		if attempt > 0 {
			s.queryEvents.Inc("retries")
			if err := sleepCtx(ctx, backoff); err != nil {
				break
			}
			if backoff *= 2; backoff > 4*s.cfg.RetryBackoff {
				backoff = 4 * s.cfg.RetryBackoff
			}
		}
		var reply shardReply
		if err := s.roundTrip(ctx, sh, line, s.cfg.ShardDeadline, &reply); err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if reply.Error != "" {
			if strings.Contains(reply.Error, "no fresh reports") {
				return &shardReply{SchedReply: schedd.SchedReply{AP: ap}}, nil
			}
			lastErr = errors.New(reply.Error)
			if reply.RetryAfterMS > 0 {
				if hint := time.Duration(reply.RetryAfterMS) * time.Millisecond; hint > backoff {
					backoff = hint
				}
			}
			continue
		}
		return &reply, nil
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return nil, fmt.Errorf("gateway: shard %s: %w", sh.addr.Name, lastErr)
}

// merge folds the fan-out parts into one schedule. Parts are processed in
// a deterministic order (real primaries first, then replica slices —
// shadow and hedge answers — by shard index) and a slot is dropped — and
// counted — when any of its stations already appeared in an earlier part:
// after a failover a station can be live in both the real and the shadow
// namespace, and it must not be scheduled twice in one frame.
func (s *Server) merge(ap uint32, epoch uint64, parts []partOutcome, primaryDown bool) schedResponse {
	sort.Slice(parts, func(i, j int) bool {
		ri := parts[i].hedged || parts[i].shadow
		rj := parts[j].hedged || parts[j].shadow
		if ri != rj {
			return !ri
		}
		return parts[i].shard < parts[j].shard
	})
	resp := schedResponse{AP: ap, Epoch: epoch, Degraded: primaryDown}
	emitted := make(map[uint32]bool)
	var gainNum, gainDen float64
	for _, p := range parts {
		part := shardPart{Shard: s.shards[p.shard].addr.Name, Hedged: p.hedged, Shadow: p.shadow}
		if p.err != nil {
			s.queryEvents.Inc("shard_err")
			resp.Degraded = true
			part.Shard = s.shards[p.target].addr.Name
			part.Error = p.err.Error()
			resp.Shards = append(resp.Shards, part)
			continue
		}
		if p.hedged {
			// The hedge answered for the primary, but only for the stations
			// replicated there; the primary's full table never spoke.
			resp.Degraded = true
		}
		part.Level = p.reply.Level
		for _, slot := range p.reply.Slots {
			if emitted[slot.A] || (slot.B != 0 && emitted[slot.B]) {
				s.queryEvents.Inc("merge_dup_slots")
				continue
			}
			emitted[slot.A] = true
			if slot.B != 0 {
				emitted[slot.B] = true
			}
			resp.Slots = append(resp.Slots, slot)
			resp.TotalMS += slot.MS
			part.Clients++
			if slot.B != 0 {
				part.Clients++
			}
		}
		if p.reply.TotalMS > 0 {
			gainNum += p.reply.Gain * p.reply.TotalMS
			gainDen += p.reply.TotalMS
		}
		resp.Shards = append(resp.Shards, part)
	}
	resp.Clients = len(emitted)
	if gainDen > 0 {
		resp.Gain = gainNum / gainDen
	}
	return resp
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
