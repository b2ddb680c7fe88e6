package schedd

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/session"
)

// Config parameterises the daemon. The zero value of every field gets a
// sensible default from fillDefaults; addresses default to loopback with
// kernel-assigned ports so tests can run many daemons concurrently.
type Config struct {
	// UDPAddr receives report datagrams.
	UDPAddr string
	// TCPAddr serves schedule and health queries.
	TCPAddr string
	// Sched configures cost computation; Channel and PacketBits are
	// defaulted to Wifi20MHz / 12000 bits when zero.
	Sched sched.Options
	// TTL is the client staleness bound: reports older than this are
	// evicted and never scheduled. Default 30s.
	TTL time.Duration
	// MaxClients bounds the per-AP client table. Default 64.
	MaxClients int
	// MaxAPs bounds how many APs the table tracks. Default 1024.
	MaxAPs int
	// QueueDepth bounds the ingest queue between the UDP reader and the
	// decode worker; overflow sheds oldest-first. Default 1024.
	QueueDepth int
	// Budgets are the per-rung time budgets of the degradation ladder.
	// Defaults: 50ms blossom, 10ms greedy.
	Budgets Budgets
	// QueryDeadline is the overall per-query budget; the ladder runs inside
	// it. Default 250ms.
	QueryDeadline time.Duration
	// MaxInflight bounds concurrently-served schedule queries; excess
	// queries are answered with an overload error and a retry-after hint
	// instead of queueing. Default 32.
	MaxInflight int
	// RetryAfter is the hint returned with overload responses. Default
	// 100ms.
	RetryAfter time.Duration
	// IdleTimeout closes query connections with no traffic. Default 60s.
	IdleTimeout time.Duration
	// Registry receives the daemon's metrics (event counters, per-rung
	// ladder latency histograms, query latency). Default: a fresh private
	// registry; pass a shared one to expose the daemon on an admin
	// endpoint alongside other subsystems.
	Registry *obs.Registry
	// DataDir enables durable sessions: the session table is persisted
	// there (snapshot + WAL) and recovered on restart. Empty keeps
	// sessions memory-only.
	DataDir string
	// MaxSessions bounds the durable session table. Default 4096.
	MaxSessions int
	// SessionHistory caps each session's retained report history.
	// Default 8.
	SessionHistory int
	// HandoffAttempts bounds AP-to-AP transfer tries before degrading to a
	// cold session at the peer. Default 4.
	HandoffAttempts int
	// HandoffBackoff is the initial retry delay, doubled per attempt with
	// ±50% jitter and capped at HandoffMaxBackoff. Defaults 50ms / 1s.
	HandoffBackoff    time.Duration
	HandoffMaxBackoff time.Duration
	// HandoffTimeout is the per-attempt deadline covering dial, write and
	// response. Default 2s.
	HandoffTimeout time.Duration
	// ShardID names this daemon inside a sharded gateway tier; it is
	// echoed (with a per-boot instance nonce and the last ring epoch the
	// gateway pushed) in HEALTH responses so a gateway can tell a healthy
	// shard from a restarted one that lost its sessions. Empty means the
	// daemon is standalone; the fields are still served.
	ShardID string

	// now is the daemon's clock: table staleness, uptime, read deadlines,
	// rung timing. A test hook — every time read in the daemon goes
	// through it, so a fake clock sees exactly the daemon's time
	// arithmetic.
	now func() time.Time
	// setReadDeadline applies a read deadline to a query connection
	// (default: the connection's own). A test hook paired with now:
	// fake-clock tests intercept it to check deadline arithmetic and bridge
	// to real deadlines.
	setReadDeadline func(net.Conn, time.Time) error
	// slowLevel is a test hook invoked before each ladder rung runs, with
	// the rung's ctx; tests use it to simulate pathological solver latency.
	slowLevel func(context.Context, Level)
	// holdIngest, when non-nil, blocks the decode worker until closed —
	// a test hook to fill the ingest queue deterministically.
	holdIngest chan struct{}
}

func (c Config) fillDefaults() Config {
	if c.UDPAddr == "" {
		c.UDPAddr = "127.0.0.1:0"
	}
	if c.TCPAddr == "" {
		c.TCPAddr = "127.0.0.1:0"
	}
	if c.Sched.Channel.BandwidthHz <= 0 {
		c.Sched.Channel = phy.Wifi20MHz
	}
	if c.Sched.PacketBits <= 0 {
		c.Sched.PacketBits = 12000
	}
	if c.TTL <= 0 {
		c.TTL = 30 * time.Second
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 64
	}
	if c.MaxAPs <= 0 {
		c.MaxAPs = 1024
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Budgets.Blossom <= 0 {
		c.Budgets.Blossom = 50 * time.Millisecond
	}
	if c.Budgets.Greedy <= 0 {
		c.Budgets.Greedy = 10 * time.Millisecond
	}
	if c.QueryDeadline <= 0 {
		c.QueryDeadline = 250 * time.Millisecond
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 100 * time.Millisecond
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.SessionHistory <= 0 {
		c.SessionHistory = 8
	}
	if c.HandoffAttempts <= 0 {
		c.HandoffAttempts = 4
	}
	if c.HandoffBackoff <= 0 {
		c.HandoffBackoff = 50 * time.Millisecond
	}
	if c.HandoffMaxBackoff <= 0 {
		c.HandoffMaxBackoff = time.Second
	}
	if c.HandoffTimeout <= 0 {
		c.HandoffTimeout = 2 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the live scheduling daemon. Create with Start; stop with
// Shutdown. Counters stay readable after shutdown so the final flush can be
// reported.
type Server struct {
	cfg      Config
	counters *obs.Group
	// ladderHist is indexed by Level: wall time of every rung attempt.
	ladderHist [3]*obs.Histogram
	// queryHist is the end-to-end SCHED latency (snapshot + ladder).
	queryHist *obs.Histogram
	table     *clientTable
	started   time.Time

	// front is the ingest socket and query listener (internal/serve).
	front    *serve.Listener
	inflight atomic.Int64

	// sessions is the durable session layer; sessionEvents counts its
	// lifecycle outcomes and recoveryHist times startup recovery.
	sessions      *session.Manager
	sessionEvents *obs.Group
	recoveryHist  *obs.Histogram
	// transferBase ^ transferSeq yields unique handoff transfer IDs; the
	// random base keeps IDs from colliding across daemon restarts.
	transferBase uint64
	transferSeq  atomic.Uint64
	// instance is a per-boot random nonce echoed in HEALTH; a gateway that
	// sees it change knows the shard restarted (and, without a data dir,
	// lost its sessions). ringEpoch is the last epoch a gateway pushed via
	// the EPOCH command — in-memory only, so a restart resets it to 0,
	// which is the second restart tell.
	instance  string
	ringEpoch atomic.Uint64
	jitterMu  sync.Mutex
	jitter    *rand.Rand

	// baseCtx parents every per-query deadline context. It lives as long
	// as the server and is cancelled only when a shutdown drain is cut
	// short, aborting in-flight ladder solves whose clients are gone.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// planners holds one warm-startable sched.Planner per AP, so repeated
	// queries for a mostly-stable client population reuse the cost table
	// and resume the matcher from the previous solution. plannerEvents
	// counts how each query's optimal solve ran (its own metric group so
	// the serving-event counters stay byte-compatible for scrapers).
	plannerMu     sync.Mutex
	planners      map[uint32]*apPlanner
	plannerEvents *obs.Group
}

// apPlanner is the per-AP planner slot. Its mutex serialises queries for
// the same AP through the (not concurrency-safe) Planner; concurrent
// queries for one AP do not wait — they fall back to a plannerless ladder
// rather than queue behind the lock.
type apPlanner struct {
	mu sync.Mutex
	pl *sched.Planner
}

// counterNames is every counter the daemon maintains.
func counterNames() []string {
	names := dropReasons()
	names = append(names,
		"ingest_datagrams", // datagrams read off the socket
		"ingest_shed",      // datagrams shed by the bounded queue (oldest first)
		"reports_ok",       // reports folded into the table
		"drop_duplicate",   // reports rejected by sequence-number dedup
		"drop_aps_full",    // reports for a new AP past the AP budget
		"table_evictions",  // fresh clients displacing stale ones at a full AP
		"queries",          // SCHED commands received
		"served_blossom",   // queries answered at ladder level 0
		"served_greedy",    // level 1
		"served_serial",    // level 2
		"served_empty",     // queries for APs with no fresh clients
		"query_overload",   // queries shed with a retry-after hint
		"query_bad",        // malformed query lines
		"query_failed",     // ladder returned an error (validation failure)
		"health_queries",   // HEALTH commands
		"epoch_updates",    // EPOCH commands that advanced the ring epoch
	)
	return names
}

// sessionEventNames is every session-lifecycle counter
// (sicschedd_session_total{event=...}).
func sessionEventNames() []string {
	return []string{
		"cold",              // a station seen for the first time
		"resume",            // a reconnect resumed its session (reboot or gap)
		"roam",              // a station moved APs with its session intact
		"handoff_ok",        // outbound transfer acknowledged by the peer
		"handoff_retry",     // an outbound transfer attempt was retried
		"handoff_abandoned", // retries exhausted; peer gets a cold session
		"handoff_in",        // inbound transfer installed
		"handoff_dup",       // inbound transfer replay suppressed by its ID
		"wal_replay",        // WAL records replayed at startup
		"wal_torn",          // a torn WAL tail was truncated at startup
		"snapshot_restore",  // sessions restored from the startup snapshot
	}
}

// Start binds the sockets and launches the serving goroutines.
func Start(cfg Config) (*Server, error) {
	cfg = cfg.fillDefaults()
	front, err := serve.Listen(cfg.UDPAddr, cfg.TCPAddr)
	if err != nil {
		return nil, fmt.Errorf("schedd: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		counters: cfg.Registry.Group("sicschedd_events_total", "daemon serving events", "event", counterNames()...),
		queryHist: cfg.Registry.Histogram("sicschedd_query_seconds",
			"end-to-end SCHED latency (table snapshot + degradation ladder)",
			obs.DefLatencyBuckets(), nil),
		table:    newClientTable(cfg.TTL, cfg.MaxClients, cfg.MaxAPs),
		started:  cfg.now(),
		front:    front,
		planners: make(map[uint32]*apPlanner),
		plannerEvents: cfg.Registry.Group("sicschedd_planner_total",
			"per-AP planner reuse: how each query's optimal solve ran", "path",
			"plan_cold", "plan_warm", "plan_contended"),
	}
	for _, lvl := range []Level{LevelBlossom, LevelGreedy, LevelSerial} {
		s.ladderHist[lvl] = cfg.Registry.Histogram("sicschedd_ladder_seconds",
			"wall time of each degradation-ladder rung attempt",
			obs.DefLatencyBuckets(), obs.Labels{"level": lvl.String()})
	}
	s.sessionEvents = cfg.Registry.Group("sicschedd_session_total",
		"session lifecycle: recovery, resume/roam, handoff outcomes", "event",
		sessionEventNames()...)
	s.recoveryHist = cfg.Registry.Histogram("sicschedd_recovery_seconds",
		"startup session recovery time (snapshot load + WAL replay + table restore)",
		obs.DefLatencyBuckets(), nil)

	var seed [16]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		front.Close()
		return nil, fmt.Errorf("schedd: seeding transfer IDs: %w", err)
	}
	s.transferBase = binary.BigEndian.Uint64(seed[:8])
	s.jitter = rand.New(rand.NewSource(int64(s.transferBase)))
	s.instance = fmt.Sprintf("%016x", binary.BigEndian.Uint64(seed[8:]))

	// Recover the durable session layer and rebuild the scheduling table
	// from it, so the first post-restart SCHED answers with pre-crash
	// context.
	recoverStart := cfg.now()
	s.sessions, err = session.Open(session.Config{
		Dir:           cfg.DataDir,
		MaxSessions:   cfg.MaxSessions,
		HistoryLen:    cfg.SessionHistory,
		ResumeGap:     cfg.TTL,
		SnapshotEvery: 4096,
	}, recoverStart)
	if err != nil {
		front.Close()
		return nil, err
	}
	rec := s.sessions.Recovery()
	s.sessionEvents.Add("wal_replay", int64(rec.WALRecords))
	s.sessionEvents.Add("snapshot_restore", int64(rec.SnapshotSessions))
	if rec.WALTorn {
		s.sessionEvents.Inc("wal_torn")
	}
	if cfg.DataDir != "" {
		for _, st := range s.sessions.Sessions() {
			s.table.restore(st.Station, st.AP, st.SNRMilliDB, st.Seq, time.Unix(0, st.LastSeen))
		}
		s.recoveryHist.Observe(cfg.now().Sub(recoverStart).Seconds())
	}

	//lint:allow ctxfirst the daemon owns its queries' lifetimes; this is the one root context, cancelled by Shutdown
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	front.Serve(serve.Config{
		QueueDepth:      cfg.QueueDepth,
		IdleTimeout:     cfg.IdleTimeout,
		Datagram:        s.ingest,
		Command:         s.command,
		Counters:        s.counters,
		Read:            "ingest_datagrams",
		Shed:            "ingest_shed",
		Now:             cfg.now,
		SetReadDeadline: cfg.setReadDeadline,
		Hold:            cfg.holdIngest,
	})
	return s, nil
}

// UDPAddr returns the bound report-ingest address.
func (s *Server) UDPAddr() net.Addr { return s.front.UDPAddr() }

// TCPAddr returns the bound query address.
func (s *Server) TCPAddr() net.Addr { return s.front.TCPAddr() }

// Counters exposes the serving counters (live; also valid after Shutdown).
func (s *Server) Counters() *obs.Group { return s.counters }

// Registry exposes the daemon's metrics registry — the same one passed in
// Config.Registry, or the private default — for mounting on an admin
// endpoint.
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// LadderHist returns the latency histogram of one ladder rung, for
// quantile reporting at drain time.
func (s *Server) LadderHist(l Level) *obs.Histogram { return s.ladderHist[l] }

// Occupancy reports the current AP and client table sizes (fresh entries
// only).
func (s *Server) Occupancy() (aps, clients int) { return s.table.occupancy(s.cfg.now()) }

// SessionEvents exposes the session-lifecycle counters (resume, roam,
// handoff outcomes, recovery).
func (s *Server) SessionEvents() *obs.Group { return s.sessionEvents }

// SessionRecovery reports what startup recovery found on disk.
func (s *Server) SessionRecovery() session.RecoveryStats { return s.sessions.Recovery() }

// Sessions reports the durable session count.
func (s *Server) Sessions() int { return s.sessions.Len() }

// Session returns a copy of one station's durable session.
func (s *Server) Session(station uint32) (session.State, bool) { return s.sessions.Get(station) }

// PlannerEvents exposes the planner-reuse counters (plan_cold, plan_warm,
// plan_contended).
func (s *Server) PlannerEvents() *obs.Group { return s.plannerEvents }

// plannerFor returns the AP's planner slot, creating it on first use. The
// map is bounded by the same MaxAPs budget as the client table; past it an
// arbitrary planner is evicted — losing only warm-start state, never
// correctness.
func (s *Server) plannerFor(ap uint32) *apPlanner {
	s.plannerMu.Lock()
	defer s.plannerMu.Unlock()
	if p, ok := s.planners[ap]; ok {
		return p
	}
	if len(s.planners) >= s.cfg.MaxAPs {
		for k := range s.planners {
			delete(s.planners, k)
			break
		}
	}
	p := &apPlanner{pl: sched.NewPlanner(s.cfg.Sched)}
	s.planners[ap] = p
	return p
}

// ingest decodes one datagram and folds the report into the client table,
// or counts the reason it was dropped.
func (s *Server) ingest(pkt []byte) {
	r, err := DecodeReport(pkt)
	if err != nil {
		s.counters.Inc(DropReason(err))
		return
	}
	now := s.cfg.now()
	switch s.table.upsert(r, now) {
	case upsertDuplicate:
		s.counters.Inc("drop_duplicate")
		return
	case upsertEvicted:
		s.counters.Inc("table_evictions")
	case upsertAPsFull:
		s.counters.Inc("drop_aps_full")
		return
	}
	// Accepted reports feed the durable session layer; a roam cleans up
	// the station's entry at the AP it left so it is never scheduled in
	// two cells at once.
	res := s.sessions.Observe(session.Obs{
		Station:    r.Station,
		AP:         r.AP,
		Seq:        r.Seq,
		SNRMilliDB: r.SNRMilliDB,
		At:         now,
	})
	if res.Roamed {
		s.table.remove(res.PrevAP, r.Station)
	}
	switch res.Outcome {
	case session.OutcomeNew:
		s.sessionEvents.Inc("cold")
	case session.OutcomeResume:
		s.sessionEvents.Inc("resume")
	case session.OutcomeRoam:
		s.sessionEvents.Inc("roam")
	}
	// Counted last, so whoever sees reports_ok tick also sees the report's
	// session event and table effects.
	s.counters.Inc("reports_ok")
}

// command answers one newline-delimited query command:
//
//	SCHED <apID>            -> one-line JSON schedule (or error) for the AP
//	HEALTH                  -> one-line JSON counters + table occupancy
//	HANDOFF <base64>        -> install a session transferred from a peer
//	MOVE <station> <addr>   -> hand this station's session off to a peer
//	EPOCH <n>               -> record the gateway's ring epoch (monotonic)
//	QUIT                    -> close the connection
func (s *Server) command(fields []string) (reply any, quit bool) {
	switch strings.ToUpper(fields[0]) {
	case "QUIT":
		return nil, true
	case "HEALTH":
		s.counters.Inc("health_queries")
		aps, clients := s.table.occupancy(s.cfg.now())
		return healthResponse{
			UptimeMS:  s.cfg.now().Sub(s.started).Milliseconds(),
			APs:       aps,
			Clients:   clients,
			Sessions:  s.sessions.Len(),
			Counters:  s.counters.Snapshot(),
			Shard:     s.cfg.ShardID,
			Instance:  s.instance,
			RingEpoch: s.ringEpoch.Load(),
		}, false
	case "EPOCH":
		if len(fields) != 2 {
			return s.badQuery("usage: EPOCH <n>"), false
		}
		epoch, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return s.badQuery("bad epoch: " + fields[1]), false
		}
		// Epochs only advance: a delayed push from a gateway that
		// already moved on cannot rewind the shard's view.
		for {
			cur := s.ringEpoch.Load()
			if epoch <= cur {
				break
			}
			if s.ringEpoch.CompareAndSwap(cur, epoch) {
				s.counters.Inc("epoch_updates")
				break
			}
		}
		return epochResponse{RingEpoch: s.ringEpoch.Load()}, false
	case "HANDOFF":
		if len(fields) != 2 {
			return s.badQuery("usage: HANDOFF <base64 transfer>"), false
		}
		return s.serveHandoff(fields[1]), false
	case "MOVE":
		if len(fields) != 3 {
			return s.badQuery("usage: MOVE <station> <host:port>"), false
		}
		sta, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return s.badQuery("bad station id: " + fields[1]), false
		}
		transfer, err := s.Handoff(s.baseCtx, uint32(sta), fields[2])
		if err != nil {
			return serve.ErrorReply{Error: err.Error()}, false
		}
		return moveResponse{Station: uint32(sta), Transfer: fmt.Sprintf("%016x", transfer)}, false
	case "SCHED":
		if len(fields) != 2 {
			return s.badQuery("usage: SCHED <apID>"), false
		}
		ap, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return s.badQuery("bad AP id: " + fields[1]), false
		}
		return s.serveSched(uint32(ap)), false
	default:
		return s.badQuery("unknown command " + fields[0]), false
	}
}

// badQuery counts a malformed query line and returns its error reply.
func (s *Server) badQuery(msg string) serve.ErrorReply {
	s.counters.Inc("query_bad")
	return serve.ErrorReply{Error: msg}
}

// healthResponse answers HEALTH. APs/Clients count fresh schedulable
// entries; Sessions counts durable sessions (which outlive freshness).
// Shard/Instance/RingEpoch were appended for the gateway tier — appended
// JSON fields, so pre-gateway clients parse the response unchanged. A
// gateway watches Instance (fresh random nonce per boot) and RingEpoch
// (resets to 0 on restart, since EPOCH pushes are in-memory) to detect a
// restarted shard that lost its sessions.
type healthResponse struct {
	UptimeMS  int64            `json:"uptime_ms"`
	APs       int              `json:"aps"`
	Clients   int              `json:"clients"`
	Sessions  int              `json:"sessions"`
	Counters  map[string]int64 `json:"counters"`
	Shard     string           `json:"shard,omitempty"`
	Instance  string           `json:"instance"`
	RingEpoch uint64           `json:"ring_epoch"`
}

// epochResponse answers EPOCH with the (possibly already newer) stored
// ring epoch.
type epochResponse struct {
	RingEpoch uint64 `json:"ring_epoch"`
}

// handoffResponse answers an inbound HANDOFF; Applied is false when the
// transfer ID was already consumed (an idempotent replay).
type handoffResponse struct {
	Transfer string `json:"transfer"`
	Applied  bool   `json:"applied"`
}

// moveResponse answers MOVE after the transfer completed.
type moveResponse struct {
	Station  uint32 `json:"station"`
	Transfer string `json:"transfer"`
}

// serveHandoff installs a session transferred from a peer daemon. The
// transfer ID makes replays (peer retries after a lost ack) harmless; a
// duplicate still acknowledges success so the peer stops retrying.
func (s *Server) serveHandoff(b64 string) any {
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		s.counters.Inc("query_bad")
		return serve.ErrorReply{Error: "handoff: bad base64: " + err.Error()}
	}
	transfer, st, err := session.DecodeHandoff(raw)
	if err != nil {
		s.counters.Inc("query_bad")
		return serve.ErrorReply{Error: err.Error()}
	}
	now := s.cfg.now()
	applied := s.sessions.ApplyHandoff(transfer, st, now)
	if applied {
		s.sessionEvents.Inc("handoff_in")
		// The handed-in station becomes schedulable here immediately,
		// carrying the peer's freshness so TTL semantics are unchanged.
		s.table.restore(st.Station, st.AP, st.SNRMilliDB, st.Seq, time.Unix(0, st.LastSeen))
	} else {
		s.sessionEvents.Inc("handoff_dup")
	}
	return handoffResponse{Transfer: fmt.Sprintf("%016x", transfer), Applied: applied}
}

// serveSched answers one SCHED query under the daemon's admission control
// and query deadline.
func (s *Server) serveSched(ap uint32) any {
	s.counters.Inc("queries")
	if s.inflight.Add(1) > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		s.counters.Inc("query_overload")
		return serve.ErrorReply{
			Error:        "overloaded",
			RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
		}
	}
	defer s.inflight.Add(-1)

	start := s.cfg.now()
	clients, ids := s.table.snapshot(ap, start)
	if len(clients) == 0 {
		s.counters.Inc("served_empty")
		return serve.ErrorReply{Error: fmt.Sprintf("no fresh reports for ap %d", ap)}
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.QueryDeadline)
	defer cancel()
	hooks := ladderHooks{
		slow: s.cfg.slowLevel,
		now:  s.cfg.now,
		observe: func(l Level, d time.Duration) {
			s.ladderHist[l].Observe(d.Seconds())
		},
	}
	// Serve through the AP's warm planner when it is free; under
	// contention (two concurrent queries for one AP) fall back to a
	// plannerless ladder rather than serialise queries behind the lock.
	var res ladderResult
	var err error
	if slot := s.plannerFor(ap); slot.mu.TryLock() {
		before := slot.pl.Stats()
		res, err = runLadder(ctx, clients, s.cfg.Sched, s.cfg.Budgets, hooks, slot.pl)
		after := slot.pl.Stats()
		slot.mu.Unlock()
		s.plannerEvents.Add("plan_cold", int64(after.Cold-before.Cold))
		s.plannerEvents.Add("plan_warm", int64(after.Warm-before.Warm))
	} else {
		s.plannerEvents.Inc("plan_contended")
		res, err = runLadder(ctx, clients, s.cfg.Sched, s.cfg.Budgets, hooks, nil)
	}
	if err != nil {
		s.counters.Inc("query_failed")
		return serve.ErrorReply{Error: err.Error()}
	}
	s.counters.Inc("served_" + res.level.String())
	elapsed := s.cfg.now().Sub(start)
	s.queryHist.Observe(elapsed.Seconds())

	resp := SchedReply{
		AP:      ap,
		Level:   res.level.String(),
		Clients: len(clients),
		TotalMS: res.schedule.Total * 1e3,
		Gain:    res.schedule.Gain(),
		ElapsMS: float64(elapsed.Microseconds()) / 1e3,
	}
	for _, sl := range res.schedule.Slots {
		out := Slot{
			Mode: sl.Mode.String(),
			A:    ids[sl.A],
			MS:   sl.Time * 1e3,
		}
		if sl.B >= 0 {
			out.B = ids[sl.B]
			out.Scale = sl.WeakScale
			// Record the pairing in both stations' sessions so a handoff
			// or restart carries the planner's last verdict with it.
			s.sessions.NotePairing(ids[sl.A], ids[sl.B], uint8(res.level), start)
			s.sessions.NotePairing(ids[sl.B], ids[sl.A], uint8(res.level), start)
		} else {
			s.sessions.NotePairing(ids[sl.A], 0, uint8(res.level), start)
		}
		resp.Slots = append(resp.Slots, out)
	}
	return resp
}

// Shutdown stops the daemon gracefully: ingest stops, the queued
// datagrams already accepted are flushed into the table, the sockets
// close, in-flight queries run to completion, and idle connections are
// released. If ctx expires
// before the drain completes, in-flight ladder solves are aborted and the
// remaining connections force-closed. The counters survive shutdown for a
// final flush.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.front.Shutdown(ctx, s.cancelBase)
	if errors.Is(err, serve.ErrClosed) {
		return fmt.Errorf("schedd: %w", err)
	}
	s.cancelBase()
	if err != nil {
		return errors.Join(fmt.Errorf("schedd: %w", err), s.sessions.Close())
	}
	// A clean close compacts: the WAL empties and the snapshot alone
	// restores the table at next start.
	return s.sessions.Close()
}

// Instance returns the per-boot random nonce echoed in HEALTH responses.
func (s *Server) Instance() string { return s.instance }

// RingEpoch returns the last ring epoch pushed by a gateway via EPOCH.
func (s *Server) RingEpoch() uint64 { return s.ringEpoch.Load() }

// Kill simulates an abrupt crash, for recovery tests and chaos tooling
// (cmd/sicsoak kills shards mid-run with it): sockets close and goroutines
// stop, but the ingest queue is not flushed, no session snapshot is
// written, and connections are severed mid-stream. Recovery must come from
// the WAL alone.
//
//lint:allow ctxfirst a simulated crash must not be cancellable: the waits here are process teardown, and a ctx would soften the failure being modelled
func (s *Server) Kill() {
	if s.front.Kill(s.cancelBase) == nil {
		s.sessions.Kill()
	}
}
