package gateway

import (
	"repro/internal/schedd"
)

// replicaAPBit marks a forwarded report as a replica copy: the gateway
// rewrites the AP id of every non-owner copy to ap|replicaAPBit before
// forwarding, so replica stations live in a shadow AP namespace at the
// shard and never pollute the owner's schedule. The primary fan-out
// queries the real AP; hedges and dead-shard fallbacks query the shadow
// one. Real AP ids must therefore stay below 1<<31 — reports claiming a
// reserved AP are rejected at ingest.
const replicaAPBit = uint32(1) << 31

// ingest validates one datagram and, if it advances the station's sequence
// number, forwards the original bytes to the station's owner shard and its
// ring replicas. The shards re-validate — the gateway filter is a shield,
// not the trust boundary.
func (s *Server) ingest(pkt []byte) {
	if err := FastReject(pkt); err != nil {
		s.ingestEvents.Inc("fast_reject")
		s.dropEvents.Inc(schedd.DropReason(err))
		return
	}
	r, err := schedd.DecodeReport(pkt)
	if err != nil {
		s.dropEvents.Inc(schedd.DropReason(err))
		return
	}
	if r.AP&replicaAPBit != 0 {
		s.ingestEvents.Inc("ap_reserved")
		return
	}
	if !s.admit(r) {
		return
	}
	s.forward(r, pkt)
}

// admit applies the gateway's dedup and bound checks and keeps the
// station→AP index current. Sequence comparison is serial-number
// arithmetic (RFC 1982 style, like the daemon's table): a report advances
// if its sequence is ahead of the last accepted one by less than half the
// number space, so reboots that wrap the counter still get through.
func (s *Server) admit(r schedd.Report) bool {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	rec, ok := s.stations[r.Station]
	if !ok {
		if len(s.stations) >= s.cfg.MaxStations {
			s.ingestEvents.Inc("station_limit")
			return false
		}
		s.stations[r.Station] = &stationRec{ap: r.AP, seq: r.Seq}
		s.addToAP(r.AP, r.Station)
		s.ingestEvents.Inc("accepted")
		return true
	}
	if diff := r.Seq - rec.seq; diff == 0 || diff >= 1<<31 {
		s.ingestEvents.Inc("dup")
		return false
	}
	rec.seq = r.Seq
	if rec.ap != r.AP {
		s.removeFromAP(rec.ap, r.Station)
		rec.ap = r.AP
		s.addToAP(r.AP, r.Station)
		s.ingestEvents.Inc("roam")
	}
	s.ingestEvents.Inc("accepted")
	return true
}

func (s *Server) addToAP(ap, station uint32) {
	set := s.apStations[ap]
	if set == nil {
		set = make(map[uint32]struct{})
		s.apStations[ap] = set
	}
	set[station] = struct{}{}
}

func (s *Server) removeFromAP(ap, station uint32) {
	if set := s.apStations[ap]; set != nil {
		delete(set, station)
		if len(set) == 0 {
			delete(s.apStations, ap)
		}
	}
}

// apStationSnapshot returns the stations currently indexed under one AP.
func (s *Server) apStationSnapshot(ap uint32) []uint32 {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	set := s.apStations[ap]
	out := make([]uint32, 0, len(set))
	for st := range set {
		out = append(out, st)
	}
	return out
}

// stationSnapshot returns every indexed station.
func (s *Server) stationSnapshot() []uint32 {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	out := make([]uint32, 0, len(s.stations))
	for st := range s.stations {
		out = append(out, st)
	}
	return out
}

// forward sends the accepted datagram to the station's owner and, under
// the shadow AP id, to its Replication-1 distinct live-ring successors,
// through the gateway's own UDP socket. Replicas are what make hedged
// queries and dead-shard rebalances answerable: the successor already
// holds the station's warm report stream when it inherits the arc, while
// the shadow namespace keeps that stream out of the successor's own
// schedules until it is asked for.
func (s *Server) forward(r schedd.Report, pkt []byte) {
	s.ringMu.Lock()
	ring := s.live
	s.ringMu.Unlock()
	var shadow []byte
	for i, idx := range ring.successors(r.Station, s.cfg.Replication) {
		out := pkt
		if i > 0 {
			if shadow == nil {
				rep := r
				rep.AP |= replicaAPBit
				var err error
				// Marshal cannot fail here: station and SNR already passed
				// the decoder, and the AP field is unvalidated by design.
				if shadow, err = rep.Marshal(); err != nil {
					s.ingestEvents.Inc("forward_err")
					return
				}
			}
			out = shadow
		}
		if _, err := s.front.WriteToUDP(out, s.shards[idx].udpAddr); err != nil {
			s.ingestEvents.Inc("forward_err")
			continue
		}
		s.ingestEvents.Inc("forwarded")
	}
}
