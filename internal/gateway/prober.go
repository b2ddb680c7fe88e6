package gateway

import (
	"context"
	"fmt"
	"time"
)

// shardHealth is the slice of the daemon's HEALTH reply the prober cares
// about: identity and epoch. Instance is a per-boot nonce; RingEpoch is
// the last epoch the gateway pushed, which an in-memory restart resets to
// zero — together they let the prober tell "healthy", "restarted and lost
// its sessions" and "never saw my ring" apart.
type shardHealth struct {
	Instance  string `json:"instance"`
	RingEpoch uint64 `json:"ring_epoch"`
}

// probeLoop probes one shard at the configured interval until shutdown.
func (s *Server) probeLoop(sh *shardState) {
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.front.Done():
			return
		case <-t.C:
			s.probeOnce(s.baseCtx, sh)
		}
	}
}

// probeOnce runs one HEALTH round trip and applies the verdict to the
// shard's state machine.
func (s *Server) probeOnce(ctx context.Context, sh *shardState) {
	s.tierEvents.Inc("probes")
	sh.probes.Inc()
	var health shardHealth
	err := s.roundTrip(ctx, sh, "HEALTH\n", s.cfg.ProbeTimeout, &health)
	if err == nil && health.Instance == "" {
		err = fmt.Errorf("gateway: shard %s HEALTH reply carries no instance nonce", sh.addr.Name)
	}
	if err != nil {
		s.tierEvents.Inc("probe_fail")
		sh.probeFails.Inc()
	}
	s.applyProbe(ctx, sh, health, err == nil)
}

// applyProbe advances one shard's state machine under the ring lock.
// The interesting transitions:
//
//   - live, FailThreshold consecutive failures → ejected: the ring is
//     rebuilt without the shard, the epoch bumps, and ownership diffs are
//     migrated. MOVEs sourced at the dead shard are skipped (counted) —
//     its successor already holds the replica stream.
//   - ejected, RecoverThreshold consecutive successes → re-admitted: ring
//     rebuilt with the shard back, epoch bumps, and the interim owners
//     MOVE its sessions home.
//   - live, instance nonce changed → the shard restarted between probes
//     without ever failing one. Its table is empty, so its stations are
//     re-pulled from their replica shards.
func (s *Server) applyProbe(ctx context.Context, sh *shardState, health shardHealth, ok bool) {
	s.ringMu.Lock()
	var (
		oldRing, newRing *hashRing
		restarted        bool
	)
	switch {
	case sh.live && ok:
		sh.fails = 0
		if sh.instance != "" && sh.instance != health.Instance {
			restarted = true
			s.tierEvents.Inc("restarts")
			sh.restarts.Inc()
		}
		sh.instance = health.Instance
	case sh.live && !ok:
		sh.fails++
		if sh.fails >= s.cfg.FailThreshold {
			sh.live = false
			sh.oks = 0
			sh.up.Set(0)
			s.tierEvents.Inc("ejections")
			sh.ejectedCount.Inc()
			oldRing, newRing = s.rebuildLocked()
		}
	case !sh.live && ok:
		sh.oks++
		if sh.oks >= s.cfg.RecoverThreshold {
			sh.live = true
			sh.fails = 0
			sh.up.Set(1)
			// Probation re-admits a shard whether it was partitioned (kept
			// its state) or restarted (lost it); either way the readmit
			// rebalance MOVEs every one of its stations home, which covers
			// both cases. Record the fresh instance so a later restart is
			// still detectable.
			sh.instance = health.Instance
			s.tierEvents.Inc("readmits")
			sh.readmits.Inc()
			oldRing, newRing = s.rebuildLocked()
		}
	case !sh.live && !ok:
		sh.oks = 0
	}
	epoch := s.epoch
	staleEpoch := ok && sh.live && !restarted && newRing == nil && health.RingEpoch < epoch
	s.ringMu.Unlock()

	if newRing != nil {
		s.pushEpochAll(ctx)
		s.front.Go(func() { s.rebalanceRings(ctx, oldRing, newRing) })
		return
	}
	if restarted {
		// Membership did not change, so no epoch bump — but the restarted
		// shard forgot the current epoch and its sessions. Re-push and
		// re-migrate.
		s.pushEpoch(ctx, sh, epoch)
		s.front.Go(func() { s.remigrate(ctx, sh.idx) })
		return
	}
	if staleEpoch {
		s.pushEpoch(ctx, sh, epoch)
	}
}

// rebuildLocked rebuilds the live ring from current shard liveness under a
// bumped epoch. Caller holds ringMu; returns the old and new rings for
// migration planning.
func (s *Server) rebuildLocked() (oldRing, newRing *hashRing) {
	oldRing = s.live
	live := make([]bool, len(s.shards))
	for i, sh := range s.shards {
		live[i] = sh.live
	}
	s.epoch++
	s.live = buildRing(s.shardNames(), live, s.cfg.VNodes, s.epoch)
	s.epochGauge.Set(float64(s.epoch))
	return oldRing, s.live
}

// pushEpochAll pushes the current epoch to every live shard.
func (s *Server) pushEpochAll(ctx context.Context) {
	s.ringMu.Lock()
	epoch := s.epoch
	var targets []*shardState
	for _, sh := range s.shards {
		if sh.live {
			targets = append(targets, sh)
		}
	}
	s.ringMu.Unlock()
	for _, sh := range targets {
		s.pushEpoch(ctx, sh, epoch)
	}
}

// pushEpoch tells one shard the current ring epoch via the EPOCH command.
// Best-effort: a failed push is counted and retried implicitly by the next
// probe's stale-epoch check.
func (s *Server) pushEpoch(ctx context.Context, sh *shardState, epoch uint64) {
	if err := s.roundTrip(ctx, sh, fmt.Sprintf("EPOCH %d\n", epoch), s.cfg.ProbeTimeout, nil); err != nil {
		s.tierEvents.Inc("epoch_push_err")
		return
	}
	s.tierEvents.Inc("epoch_push")
}
