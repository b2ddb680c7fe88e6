// Package gateway implements the fault-tolerant front tier of the sharded
// scheduling deployment: a sicgw process that stands between stations/APs
// and a ring of sicschedd scheduler shards.
//
// The gateway does four jobs, each designed to degrade rather than fail:
//
//   - Ingest filtering (ingest.go): report datagrams are validated with a
//     cheap fixed-prefix reject (filter.go) and a full CRC decode before
//     any shard sees them, then deduplicated by per-station sequence
//     number, so a corrupted or replayed flood burns gateway cycles, never
//     shard table space.
//   - Replicated forwarding (ingest.go): each accepted report is forwarded
//     to the station's owner shard and its next Replication-1 distinct
//     ring successors, so a replica can answer for a dead or deaf owner.
//   - Health-checked fan-out (fanout.go): SCHED queries fan out to the
//     shards owning the AP's stations under per-shard deadlines, with
//     capped-backoff retries and a hedged request to the stations' replica
//     shard when the owner is slow. Partial answers merge into one
//     schedule carrying an explicit degraded flag — the tier returns what
//     it has instead of nothing.
//   - Session-aware rebalancing (prober.go, rebalance.go): an active
//     prober ejects shards after consecutive HEALTH failures and re-admits
//     them after a probation streak; every ring change bumps a monotonic
//     epoch, pushes it to the shards, and migrates affected sessions with
//     the MOVE handoff protocol so stations keep their scheduling context
//     across shard churn.
//
// Everything observable lands in sicgw_* metrics: per-shard health
// (sicgw_shard_*), ingest and drop counters aligned with the daemon's
// reject reasons, fan-out/hedge outcomes, and rebalance latency.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/schedd"
	"repro/internal/serve"
)

// ShardAddr names one scheduler shard and its two listeners. Name is the
// shard's ring identity: it must be stable across shard restarts (the ring
// arc follows the name, not the address) and unique within the tier.
type ShardAddr struct {
	Name string
	// TCP is the shard's query listener (SCHED/HEALTH/MOVE/EPOCH).
	TCP string
	// UDP is the shard's report ingest listener.
	UDP string
}

// Config parameterises the gateway. Zero values get defaults from
// fillDefaults; addresses default to loopback with kernel-assigned ports.
type Config struct {
	// UDPAddr receives station report datagrams.
	UDPAddr string
	// TCPAddr serves AP-facing SCHED/HEALTH queries.
	TCPAddr string
	// Shards is the scheduler tier. At least one shard is required.
	Shards []ShardAddr
	// Replication is how many shards receive each accepted report: the
	// ring owner plus Replication-1 distinct successors. Default 2, so
	// every station has one warm replica.
	Replication int
	// VNodes is the number of ring points per shard. Default 64.
	VNodes int
	// MaxStations bounds the gateway's station index. Default 1<<20.
	MaxStations int
	// QueueDepth bounds the ingest queue between the UDP reader and the
	// filter worker; overflow sheds oldest-first. Default 4096.
	QueueDepth int

	// ProbeInterval is the per-shard HEALTH probe period. Default 500ms;
	// tests park it at an hour to take the prober out of the picture.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip. Default 250ms.
	ProbeTimeout time.Duration
	// FailThreshold ejects a live shard after this many consecutive probe
	// failures. Default 3.
	FailThreshold int
	// RecoverThreshold re-admits an ejected shard after this many
	// consecutive probe successes (its probation streak). Default 2.
	RecoverThreshold int

	// QueryDeadline bounds one AP-facing SCHED query end to end. Default
	// 500ms.
	QueryDeadline time.Duration
	// ShardDeadline bounds one shard query attempt. Default 150ms.
	ShardDeadline time.Duration
	// ShardRetries is the attempt budget per shard query. Default 2.
	ShardRetries int
	// RetryBackoff is the initial delay between shard query attempts,
	// doubled per retry and capped at 4x. Default 20ms.
	RetryBackoff time.Duration
	// HedgeDelay is how long a shard query may run before the gateway
	// hedges it to the stations' replica shard. Default 30ms.
	HedgeDelay time.Duration
	// MaxInflight bounds concurrently-served SCHED queries; excess is
	// answered with an overload error and a retry-after hint. Default 64.
	MaxInflight int
	// RetryAfter is the hint returned with overload responses. Default
	// 50ms.
	RetryAfter time.Duration
	// IdleTimeout closes query connections with no traffic. Default 60s.
	IdleTimeout time.Duration

	// RebalanceWorkers bounds concurrent MOVE transfers during one
	// rebalance. Default 8.
	RebalanceWorkers int
	// MoveTimeout bounds one MOVE round trip. Default 2s.
	MoveTimeout time.Duration

	// Registry receives the gateway's sicgw_* metrics. Default: a fresh
	// private registry.
	Registry *obs.Registry

	// now is the gateway's clock; a test hook like the daemon's.
	now func() time.Time
}

func (c Config) fillDefaults() Config {
	if c.UDPAddr == "" {
		c.UDPAddr = "127.0.0.1:0"
	}
	if c.TCPAddr == "" {
		c.TCPAddr = "127.0.0.1:0"
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxStations <= 0 {
		c.MaxStations = 1 << 20
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RecoverThreshold <= 0 {
		c.RecoverThreshold = 2
	}
	if c.QueryDeadline <= 0 {
		c.QueryDeadline = 500 * time.Millisecond
	}
	if c.ShardDeadline <= 0 {
		c.ShardDeadline = 150 * time.Millisecond
	}
	if c.ShardRetries <= 0 {
		c.ShardRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 20 * time.Millisecond
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 30 * time.Millisecond
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.RebalanceWorkers <= 0 {
		c.RebalanceWorkers = 8
	}
	if c.MoveTimeout <= 0 {
		c.MoveTimeout = 2 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// shardState is the prober's per-shard view. Transitions happen under the
// server's ring mutex so a probe verdict, the ring rebuild it triggers and
// the epoch bump are one atomic step.
type shardState struct {
	idx     int
	addr    ShardAddr
	udpAddr *net.UDPAddr

	live bool
	// fails counts consecutive probe failures while live; oks counts
	// consecutive probe successes while ejected (the probation streak).
	fails, oks int
	// instance is the shard's last-seen per-boot nonce; a change means the
	// shard restarted and (without a data dir) lost its sessions.
	instance string

	// poolMu guards the idle query-connection pool (conn.go) and nothing
	// else, so no I/O ever runs under it: idle is a LIFO stack of at most
	// MaxInflight connections, and poolClosed is set once Shutdown has
	// closed them.
	poolMu     sync.Mutex
	idle       []*shardConn
	poolClosed bool

	up           *obs.Gauge
	probes       *obs.Counter
	probeFails   *obs.Counter
	ejectedCount *obs.Counter
	readmits     *obs.Counter
	restarts     *obs.Counter
}

// stationRec is the gateway's per-station index entry: enough to dedup
// reports and to know which AP's fan-out the station belongs to.
type stationRec struct {
	ap  uint32
	seq uint32
}

// Server is the gateway tier. Create with Start; stop with Shutdown.
type Server struct {
	cfg     Config
	started time.Time

	// front is the ingest socket and query listener (internal/serve). It
	// also runs the probers and rebalances, so its drain waits for them.
	front    *serve.Listener
	inflight atomic.Int64

	// ringMu guards shard state and bothrings. full maps stations over
	// every configured shard (the no-failure assignment); live maps over
	// the currently-admitted shards and is what ingest and fan-out use.
	ringMu sync.Mutex
	shards []*shardState
	full   *hashRing
	live   *hashRing
	epoch  uint64

	// idxMu guards the station index.
	idxMu      sync.Mutex
	stations   map[uint32]*stationRec
	apStations map[uint32]map[uint32]struct{}

	ingestEvents    *obs.Group
	dropEvents      *obs.Group
	queryEvents     *obs.Group
	tierEvents      *obs.Group
	rebalanceEvents *obs.Group
	epochGauge      *obs.Gauge
	queryHist       *obs.Histogram
	rebalanceHist   *obs.Histogram

	// baseCtx parents probes, fan-outs and rebalances; cancelled by
	// Shutdown.
	baseCtx    context.Context
	cancelBase context.CancelFunc
}

// ingestEventNames is every sicgw_ingest_total event.
func ingestEventNames() []string {
	return []string{
		"datagrams",     // datagrams read off the socket
		"shed",          // datagrams shed by the bounded queue
		"fast_reject",   // datagrams rejected by the prefix filter alone
		"accepted",      // reports admitted to the index and forwarded
		"dup",           // reports rejected by sequence-number dedup
		"roam",          // accepted reports that moved a station between APs
		"station_limit", // reports for a new station past MaxStations
		"ap_reserved",   // reports claiming an AP in the shadow replica namespace
		"forwarded",     // report copies forwarded to shards
		"forward_err",   // forward writes that failed
	}
}

// queryEventNames is every sicgw_query_total event.
func queryEventNames() []string {
	return []string{
		"queries",         // SCHED commands received
		"ok",              // queries answered (possibly degraded)
		"degraded",        // answers carrying degraded=true
		"empty",           // answers with no slots at all
		"bad",             // malformed query lines
		"overload",        // queries shed with a retry-after hint
		"health",          // HEALTH commands
		"fanout",          // shard queries launched (primaries)
		"fanout_blind",    // fan-outs to every live shard (unknown AP)
		"retries",         // shard query attempts after the first
		"hedges",          // hedged requests fired
		"hedge_wins",      // answers where the hedge beat the primary
		"shard_err",       // shard queries that failed all attempts
		"merge_dup_slots", // merged-out slots whose station already appeared
	}
}

// tierEventNames is every sicgw_tier_total event.
func tierEventNames() []string {
	return []string{
		"probes",         // HEALTH probes sent
		"probe_fail",     // probes that failed
		"ejections",      // live shards ejected
		"readmits",       // ejected shards re-admitted after probation
		"restarts",       // live shards seen restarting (instance changed)
		"epoch_push",     // EPOCH pushes acknowledged
		"epoch_push_err", // EPOCH pushes that failed
		"shard_dial",     // query connections opened to shards
		"shard_redial",   // pooled connections the shard had closed, replaced by a fresh dial in the same attempt
	}
}

// rebalanceEventNames is every sicgw_rebalance_total event.
func rebalanceEventNames() []string {
	return []string{
		"rebalances",   // rebalance passes run
		"moves",        // MOVE transfers acknowledged
		"move_noop",    // MOVEs skipped because the source held no session
		"move_err",     // MOVEs that failed
		"skip_dead",    // migrations skipped because the source is down
		"remigrations", // stations re-pulled from replicas after a restart
	}
}

// Start binds the sockets, builds the ring and launches the serving and
// probing goroutines. Every shard starts live; the prober ejects the dead
// ones within FailThreshold probes.
func Start(cfg Config) (*Server, error) {
	cfg = cfg.fillDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("gateway: at least one shard required")
	}
	names := make(map[string]bool, len(cfg.Shards))
	for _, sh := range cfg.Shards {
		if sh.Name == "" {
			return nil, errors.New("gateway: shard with empty name")
		}
		if names[sh.Name] {
			return nil, fmt.Errorf("gateway: duplicate shard name %q", sh.Name)
		}
		names[sh.Name] = true
	}
	if cfg.Replication > len(cfg.Shards) {
		cfg.Replication = len(cfg.Shards)
	}

	front, err := serve.Listen(cfg.UDPAddr, cfg.TCPAddr)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}

	s := &Server{
		cfg:        cfg,
		started:    cfg.now(),
		front:      front,
		stations:   make(map[uint32]*stationRec),
		apStations: make(map[uint32]map[uint32]struct{}),
		ingestEvents: cfg.Registry.Group("sicgw_ingest_total",
			"gateway report ingest: filtering, dedup and replicated forwarding", "event",
			ingestEventNames()...),
		dropEvents: cfg.Registry.Group("sicgw_drop_total",
			"report datagrams rejected before reaching any shard, by reason", "reason",
			schedd.DropReasons()...),
		queryEvents: cfg.Registry.Group("sicgw_query_total",
			"gateway query serving: fan-out, hedging and merge outcomes", "event",
			queryEventNames()...),
		tierEvents: cfg.Registry.Group("sicgw_tier_total",
			"shard tier management: probes, ejections, re-admissions, epoch pushes", "event",
			tierEventNames()...),
		rebalanceEvents: cfg.Registry.Group("sicgw_rebalance_total",
			"session migration driven by ring changes", "event",
			rebalanceEventNames()...),
		epochGauge: cfg.Registry.Gauge("sicgw_ring_epoch",
			"current ring epoch (bumped on every membership change)", nil),
		queryHist: cfg.Registry.Histogram("sicgw_query_seconds",
			"end-to-end gateway SCHED latency (fan-out + merge)",
			obs.DefLatencyBuckets(), nil),
		rebalanceHist: cfg.Registry.Histogram("sicgw_rebalance_seconds",
			"wall time of one session rebalance pass (plan + MOVE transfers)",
			obs.DefLatencyBuckets(), nil),
	}
	for i, sh := range cfg.Shards {
		ua, err := net.ResolveUDPAddr("udp", sh.UDP)
		if err != nil {
			front.Close()
			return nil, fmt.Errorf("gateway: resolving shard %q UDP addr: %w", sh.Name, err)
		}
		labels := obs.Labels{"shard": sh.Name}
		s.shards = append(s.shards, &shardState{
			idx:     i,
			addr:    sh,
			udpAddr: ua,
			live:    true,
			up: cfg.Registry.Gauge("sicgw_shard_up",
				"1 when the shard is admitted to the live ring, 0 when ejected", labels),
			probes: cfg.Registry.Counter("sicgw_shard_probes_total",
				"HEALTH probes sent to this shard", labels),
			probeFails: cfg.Registry.Counter("sicgw_shard_probe_failures_total",
				"HEALTH probes this shard failed", labels),
			ejectedCount: cfg.Registry.Counter("sicgw_shard_ejections_total",
				"times this shard was ejected from the live ring", labels),
			readmits: cfg.Registry.Counter("sicgw_shard_readmits_total",
				"times this shard was re-admitted after probation", labels),
			restarts: cfg.Registry.Counter("sicgw_shard_restarts_total",
				"times this shard was seen restarting (instance nonce changed)", labels),
		})
		s.shards[i].up.Set(1)
	}

	allLive := make([]bool, len(cfg.Shards))
	for i := range allLive {
		allLive[i] = true
	}
	s.full = buildRing(s.shardNames(), allLive, cfg.VNodes, 0)
	s.epoch = 1
	s.live = buildRing(s.shardNames(), allLive, cfg.VNodes, s.epoch)
	s.epochGauge.Set(float64(s.epoch))

	//lint:allow ctxfirst the gateway owns its tier's lifetimes; this is the one root context, cancelled by Shutdown
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	front.Serve(serve.Config{
		QueueDepth:  cfg.QueueDepth,
		IdleTimeout: cfg.IdleTimeout,
		Datagram:    s.ingest,
		Command:     s.command,
		Counters:    s.ingestEvents,
		Read:        "datagrams",
		Shed:        "shed",
		Now:         cfg.now,
	})
	for _, sh := range s.shards {
		front.Go(func() { s.probeLoop(sh) })
	}
	return s, nil
}

// shardNames returns the tier's ring identities in index order.
func (s *Server) shardNames() []string {
	names := make([]string, len(s.shards))
	for i, sh := range s.shards {
		names[i] = sh.addr.Name
	}
	return names
}

// UDPAddr returns the bound report-ingest address.
func (s *Server) UDPAddr() net.Addr { return s.front.UDPAddr() }

// TCPAddr returns the bound query address.
func (s *Server) TCPAddr() net.Addr { return s.front.TCPAddr() }

// Registry exposes the gateway's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// IngestEvents exposes the ingest counters (datagrams, dedup, forwards).
func (s *Server) IngestEvents() *obs.Group { return s.ingestEvents }

// DropEvents exposes the pre-shard drop counters, keyed like the daemon's.
func (s *Server) DropEvents() *obs.Group { return s.dropEvents }

// QueryEvents exposes the fan-out/hedge/merge counters.
func (s *Server) QueryEvents() *obs.Group { return s.queryEvents }

// TierEvents exposes the probe/ejection/epoch counters.
func (s *Server) TierEvents() *obs.Group { return s.tierEvents }

// RebalanceEvents exposes the session-migration counters.
func (s *Server) RebalanceEvents() *obs.Group { return s.rebalanceEvents }

// Epoch returns the current ring epoch.
func (s *Server) Epoch() uint64 {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	return s.epoch
}

// LiveShards returns the names of the shards currently on the live ring.
func (s *Server) LiveShards() []string {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	var names []string
	for _, sh := range s.shards {
		if sh.live {
			names = append(names, sh.addr.Name)
		}
	}
	return names
}

// Stations reports the station index size.
func (s *Server) Stations() int {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	return len(s.stations)
}

// Shutdown stops ingest, probing and query serving, draining in-flight
// queries, probes and rebalances until ctx expires, then closes the idle
// shard connections.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.front.Shutdown(ctx, s.cancelBase)
	if errors.Is(err, serve.ErrClosed) {
		return fmt.Errorf("gateway: %w", err)
	}
	s.cancelBase()
	// A hedge loser may still be mid round trip; it finds the pool closed
	// and closes its connection on return.
	for _, sh := range s.shards {
		sh.closePool()
	}
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	return nil
}
