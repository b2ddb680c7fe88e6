package gateway

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/serve"
)

// move is one planned session migration: pull station's session out of the
// shard at src and install it at dst, by asking src to run the MOVE
// handoff protocol.
type move struct {
	station  uint32
	src, dst int
}

// rebalanceRings migrates every indexed station whose owner differs
// between the two rings. Sessions sourced at a shard that is dead on the
// new ring cannot be pulled — those are skipped and counted, and the
// station's replica stream (forwarded while the shard was alive) is what
// the new owner already holds. The whole pass is timed into
// sicgw_rebalance_seconds.
func (s *Server) rebalanceRings(ctx context.Context, oldRing, newRing *hashRing) {
	var moves []move
	skipDead := 0
	for _, st := range s.stationSnapshot() {
		oldOwner, ok := oldRing.owner(st)
		if !ok {
			continue
		}
		newOwner, ok := newRing.owner(st)
		if !ok || oldOwner == newOwner {
			continue
		}
		if !newRing.live[oldOwner] {
			skipDead++
			continue
		}
		moves = append(moves, move{station: st, src: oldOwner, dst: newOwner})
	}
	s.rebalanceEvents.Add("skip_dead", int64(skipDead))
	s.runMoves(ctx, moves)
}

// remigrate re-pulls the sessions of a restarted shard from their replica
// shards: the shard is still the ring owner of its stations, but its
// in-memory table is empty, and the first live successor holds the warm
// replica stream.
func (s *Server) remigrate(ctx context.Context, idx int) {
	s.ringMu.Lock()
	ring := s.live
	s.ringMu.Unlock()
	var moves []move
	for _, st := range s.stationSnapshot() {
		succ := ring.successors(st, 2)
		if len(succ) < 2 || succ[0] != idx {
			continue
		}
		moves = append(moves, move{station: st, src: succ[1], dst: idx})
	}
	s.rebalanceEvents.Add("remigrations", int64(len(moves)))
	s.runMoves(ctx, moves)
}

// runMoves executes planned migrations on a bounded worker pool and
// records the pass duration.
func (s *Server) runMoves(ctx context.Context, moves []move) {
	s.rebalanceEvents.Inc("rebalances")
	start := s.cfg.now()
	defer func() {
		s.rebalanceHist.Observe(s.cfg.now().Sub(start).Seconds())
	}()
	if len(moves) == 0 {
		return
	}
	work := make(chan move)
	var wg sync.WaitGroup
	workers := s.cfg.RebalanceWorkers
	if workers > len(moves) {
		workers = len(moves)
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for mv := range work {
				s.moveStation(ctx, mv)
			}
		}()
	}
	for _, mv := range moves {
		if ctx.Err() != nil {
			break
		}
		work <- mv
	}
	close(work)
	wg.Wait()
}

// moveStation asks the source shard to hand one station's session to the
// destination shard's query listener. A "no session" refusal is a no-op,
// not a failure: the station never reported to the source, or already
// went stale there.
func (s *Server) moveStation(ctx context.Context, mv move) {
	var resp serve.ErrorReply
	line := fmt.Sprintf("MOVE %d %s\n", mv.station, s.shards[mv.dst].addr.TCP)
	if err := s.roundTrip(ctx, s.shards[mv.src], line, s.cfg.MoveTimeout, &resp); err != nil {
		s.rebalanceEvents.Inc("move_err")
		return
	}
	switch {
	case resp.Error == "":
		s.rebalanceEvents.Inc("moves")
	case strings.Contains(resp.Error, "no session"):
		s.rebalanceEvents.Inc("move_noop")
	default:
		s.rebalanceEvents.Inc("move_err")
	}
}
