package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/gateway"
	"repro/internal/schedd"
)

const (
	// window is the most work the harness lets sit inside the tier:
	// datagrams the gateway has not handled plus forwarded copies the
	// shards have not handled. A default loopback receive buffer holds
	// about 256 report datagrams, so at 64 the sustained rate measures the
	// tier rather than the kernel's buffers.
	window = 64
	// pollEvery is the flow-control poll period. While the tier is busy
	// the poller runs this often; once it idles, the runtime's network
	// poller sleeps in whole milliseconds, so the last poll of a drain can
	// be up to 1 ms late.
	pollEvery = 20 * time.Microsecond
	// stallAfter aborts a run whose pending work has not moved for this
	// long: a datagram lost between tiers leaves work that never finishes.
	stallAfter = 2 * time.Second
	// servingSetups is how many times a run builds the tier; setup_s is
	// the median and the last build is the one measured.
	servingSetups = 5
	// probeEvery is the report-ingest read probe's period (20/s).
	probeEvery = 50 * time.Millisecond
)

// serving is one serving-workload run: the tier, the harness's one report
// socket and one query connection, and the seeded inputs.
type serving struct {
	cfg    config
	pop    *population
	mix    *mixer
	t      *tier
	udp    net.Conn
	client *schedClient
	buf    []byte
	sent   int64 // datagrams written to the current tier
	rcv0   int64 // udp rcvbuf errors when the current tier started
	tw0    int64 // TIME_WAIT sockets when the run started

	tr     *tracer
	direct map[string]*schedClient // traced runs: one connection per shard
	reply  schedReply
	seen   []bool
}

func newServing(cfg config) *serving {
	s := &serving{
		cfg:  cfg,
		pop:  newPopulation(cfg.seed),
		buf:  make([]byte, schedd.ReportLen),
		seen: make([]bool, stationsPerAP),
		tw0:  tcpTimeWait(),
	}
	if cfg.trace {
		s.tr = newTracer()
	}
	return s
}

// close stops the tier and every connection the harness opened.
func (s *serving) close() {
	for _, c := range s.direct {
		c.close()
	}
	s.direct = nil
	if s.client != nil {
		s.client.close()
		s.client = nil
	}
	if s.udp != nil {
		s.udp.Close()
		s.udp = nil
	}
	if s.t != nil {
		s.t.stop()
		s.t = nil
	}
}

// setup is the program's start-up as a serving workload sees it: start
// the shards and the gateway, preload one report per station under flow
// control, then send one SCHED per AP (64 cold solves). Each build starts
// from the same seeded inputs.
func (s *serving) setup() (time.Duration, error) {
	s.close()
	// Collect the previous build's garbage now, so each build starts from
	// the same heap and pays only for its own allocation.
	runtime.GC()
	start := time.Now()
	t, err := startTier()
	if err != nil {
		return 0, err
	}
	s.t, s.sent, s.rcv0 = t, 0, udpRcvbufErrors()
	s.mix = newMixer(s.pop, s.cfg.seed)
	if s.udp, err = net.Dial("udp", t.gw.UDPAddr().String()); err != nil {
		return 0, fmt.Errorf("report socket: %w", err)
	}
	next := 0
	if err := s.pump(func() bool { return next == numStations }, func(buf []byte) {
		s.mix.valid(buf, next)
		next++
	}, nil); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	if _, err := s.drain(); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	if s.client, err = dialSched(t.gw.TCPAddr().String()); err != nil {
		return 0, fmt.Errorf("query connection: %w", err)
	}
	for k := range s.pop.aps {
		raw, err := s.client.sched(s.pop.aps[k])
		if err == nil {
			err = checkStations(s.pop, k, raw, &s.reply, s.seen)
		}
		if err != nil {
			return 0, fmt.Errorf("cold SCHED %d: %w", s.pop.aps[k], err)
		}
	}
	return time.Since(start), nil
}

// setups builds the tier servingSetups times and returns the median
// build time in seconds; the last tier stays up for measurement.
func (s *serving) setups(rep *report) (float64, error) {
	var ds []float64
	for i := 0; i < servingSetups; i++ {
		d, err := s.setup()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	rep.note("set-up: %.4g s each (tier start, flow-controlled preload of %d stations, %d cold SCHEDs)",
		ds, numStations, numAPs)
	return newDist(ds).median(), nil
}

// write sends one datagram to the gateway.
func (s *serving) write(buf []byte) error {
	if _, err := s.udp.Write(buf); err != nil {
		return fmt.Errorf("sending report: %w", err)
	}
	s.sent++
	return nil
}

// pump sends datagrams made by gen until done reports true, keeping at
// most window units of work pending in the tier. onPoll, when set, sees
// every counter read.
func (s *serving) pump(done func() bool, gen func(buf []byte), onPoll func(c ingestCounts, now time.Time)) error {
	last, lastMove := int64(-1), time.Now()
	for !done() {
		c := s.t.ingestCounts()
		now := time.Now()
		if onPoll != nil {
			onPoll(c, now)
		}
		p := c.pending(s.sent)
		if p != last {
			last, lastMove = p, now
		} else if now.Sub(lastMove) > stallAfter {
			return fmt.Errorf("tier stalled with %d units pending", p)
		}
		for ; p < window && !done(); p++ {
			gen(s.buf)
			if err := s.write(s.buf); err != nil {
				return err
			}
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// drain waits until the tier has handled everything sent.
func (s *serving) drain() (ingestCounts, error) {
	deadline := time.Now().Add(stallAfter)
	for {
		c := s.t.ingestCounts()
		if c.pending(s.sent) == 0 {
			return c, nil
		}
		if time.Now().After(deadline) {
			return c, fmt.Errorf("tier did not drain: %d units pending", c.pending(s.sent))
		}
		time.Sleep(pollEvery)
	}
}

// ledger prints the conservation laws over the tier's life and records a
// problem for every gap the kernel's drop counter does not explain.
func (s *serving) ledger(rep *report) {
	// Work that never drains was lost on the way; the laws below say
	// whether the kernel's drop counter explains it.
	c, err := s.drain()
	if err != nil {
		rep.note("ledger: %v", err)
	}
	lines, gaps := conservation(c, s.sent, udpRcvbufErrors()-s.rcv0)
	for _, l := range lines {
		rep.note("ledger: %s", l)
	}
	for _, g := range gaps {
		rep.problem("conservation gap: %s", g)
	}
}

// op runs one read-path operation: a gateway SCHED for AP apIdx, checked.
// Traced, it also sends the same AP's SCHED straight to each owning shard
// and records a span around every call; the gateway's own share is its
// span minus the slowest shard's.
func (s *serving) op(apIdx int, n int64, traced bool) (time.Duration, error) {
	ap := s.pop.aps[apIdx]
	root, g := -1, -1
	if traced {
		root = s.tr.begin("sched.op", -1, n)
		g = s.tr.begin("gateway.sched", root, n)
	}
	start := time.Now()
	raw, err := s.client.sched(ap)
	lat := time.Since(start)
	s.tr.end(g)
	if err == nil {
		err = checkStations(s.pop, apIdx, raw, &s.reply, s.seen)
	}
	if err != nil || !traced {
		s.tr.end(root)
		return lat, err
	}
	for _, part := range s.reply.Shards {
		c, err := s.shardClient(part.Shard)
		if err != nil {
			s.tr.end(root)
			return lat, err
		}
		sp := s.tr.begin("shard.sched", root, n)
		_, err = c.sched(ap)
		s.tr.end(sp)
		if err != nil {
			s.tr.end(root)
			return lat, fmt.Errorf("direct SCHED to %s: %w", part.Shard, err)
		}
	}
	s.tr.end(root)
	return lat, nil
}

// shardClient returns the traced run's connection to the named shard.
func (s *serving) shardClient(name string) (*schedClient, error) {
	if c, ok := s.direct[name]; ok {
		return c, nil
	}
	for i, sh := range s.t.shards {
		if fmt.Sprintf("shard-%d", i) != name {
			continue
		}
		c, err := dialSched(sh.TCPAddr().String())
		if err != nil {
			return nil, err
		}
		if s.direct == nil {
			s.direct = map[string]*schedClient{}
		}
		s.direct[name] = c
		return c, nil
	}
	return nil, fmt.Errorf("reply names unknown shard %q", name)
}

// tierSample is the read-path counters at one instant, summed over shards.
type tierSample struct {
	gwQuery                          map[string]int64
	queries, blossom, cold, warm     int64
	contended, overload, ladderCount int64
	ladderSum                        float64
	activeOpens                      int64
	proc                             procSample
}

func (s *serving) sampleTier() tierSample {
	ts := tierSample{gwQuery: s.t.gw.QueryEvents().Snapshot(), activeOpens: tcpActiveOpens(), proc: sampleProc()}
	for _, sh := range s.t.shards {
		c, pe := sh.Counters(), sh.PlannerEvents()
		ts.queries += c.Get("queries")
		ts.blossom += c.Get("served_blossom")
		ts.overload += c.Get("query_overload")
		ts.cold += pe.Get("plan_cold")
		ts.warm += pe.Get("plan_warm")
		ts.contended += pe.Get("plan_contended")
		h := sh.LadderHist(schedd.LevelBlossom)
		ts.ladderCount += h.Count()
		ts.ladderSum += h.Sum()
	}
	return ts
}

// readPathLayers turns two tier samples around n gateway SCHEDs into the
// read-path counters.
func readPathLayers(rep *report, a, b tierSample, n int64) {
	q := func(name string) float64 { return float64(b.gwQuery[name] - a.gwQuery[name]) }
	rep.layers["gateway.fanout_per_sched"] = ratio(q("fanout"), float64(n))
	for _, name := range []string{"hedges", "retries", "shard_err", "degraded", "merge_dup_slots"} {
		rep.layers["gateway."+name] = q(name)
	}
	rep.layers["schedd.blossom_ratio"] = ratio(float64(b.blossom-a.blossom), float64(b.queries-a.queries))
	rep.layers["schedd.plan_warm_ratio"] = ratio(float64(b.warm-a.warm), float64(b.warm-a.warm+b.cold-a.cold))
	rep.layers["schedd.plan_contended"] = float64(b.contended - a.contended)
	rep.layers["schedd.query_overload"] = float64(b.overload - a.overload)
	rep.layers["schedd.ladder_blossom_mean_ms"] = ratio(1e3*(b.ladderSum-a.ladderSum), float64(b.ladderCount-a.ladderCount))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readPathSpans fills the layer metrics and ledger that come from traced
// read-path ops: the shard's own SCHED, the gateway's share, and their sum
// against the untraced ops' median.
func readPathSpans(rep *report, spans []span, untraced []float64) {
	shardMS := map[int][]float64{}
	var gwMS, gwOwn, slowest, allShard []float64
	for _, sp := range spans {
		if sp.Name == "shard.sched" {
			shardMS[sp.Parent] = append(shardMS[sp.Parent], sp.ms())
			allShard = append(allShard, sp.ms())
		}
	}
	for i, sp := range spans {
		if sp.Name != "sched.op" {
			continue
		}
		ms := shardMS[i]
		if len(ms) == 0 {
			continue
		}
		worst := newDist(ms).sorted[len(ms)-1]
		for _, c := range spans[i+1:] {
			if c.Parent == i && c.Name == "gateway.sched" {
				gwMS = append(gwMS, c.ms())
				gwOwn = append(gwOwn, c.ms()-worst)
				slowest = append(slowest, worst)
				break
			}
		}
	}
	rep.layers["shard.sched_p50_ms"] = newDist(allShard).median()
	rep.layers["gateway.overhead_p50_ms"] = newDist(gwOwn).median()
	own, shard := newDist(gwOwn).median(), newDist(slowest).median()
	rep.ledger("SCHED", own+shard, newDist(gwMS).median(),
		fmt.Sprintf("gateway own %.4g ms + slowest shard %.4g ms (n=%d traced ops)", own, shard, len(gwMS)))
	rep.traceOverhead("gateway SCHED p50", newDist(gwMS).median(), newDist(untraced).median(), len(gwMS), len(untraced))
}

// runSchedQuery is the sched-query workload: a closed loop of gateway
// SCHEDs on one connection, round-robin over the APs, while every station
// re-reports about once a second, evenly spread.
func runSchedQuery(cfg config) (*report, error) {
	s := newServing(cfg)
	defer s.close()
	rep := newReport()
	setup, err := s.setups(rep)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	stop, done := make(chan struct{}), make(chan struct{})
	var worstLate time.Duration
	var trickleErr error
	go func() {
		defer close(done)
		worstLate, trickleErr = s.trickle(stop)
	}()

	var lat, untraced []float64
	var degraded int64
	var firstErr error
	runtime.GC() // the set-ups' garbage is not this phase's work
	a := s.sampleTier()
	start := time.Now()
	deadline := start.Add(cfg.duration())
	n := int64(0)
	for ; time.Now().Before(deadline); n++ {
		traced := s.tr != nil && n%2 == 1
		d, err := s.op(int(n%numAPs), n, traced)
		rep.attempted++
		if err != nil {
			rep.failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if s.reply.Degraded {
			degraded++
		}
		ms := float64(d) / 1e6
		lat = append(lat, ms)
		if !traced {
			untraced = append(untraced, ms)
		}
	}
	elapsed := time.Since(start)
	b := s.sampleTier()
	close(stop)
	<-done
	if trickleErr != nil {
		rep.problem("trickle: %v", trickleErr)
	}
	if firstErr != nil {
		rep.problem("%d SCHEDs failed, the first with: %v", rep.failed, firstErr)
	}

	d := newDist(lat)
	rep.e2e["latency_p50_ms"] = d.median()
	rep.e2e["throughput_per_s"] = float64(n) / elapsed.Seconds()
	rep.note("sched: %s ms over %d SCHEDs (%d failed, %d degraded) in %.3g s", d, n, rep.failed, degraded, elapsed.Seconds())
	rep.note("trickle: %d reports/s spread evenly, worst lateness %.3g ms", numStations, float64(worstLate)/1e6)

	readPathLayers(rep, a, b, n)
	cost := b.proc.sub(a.proc)
	rep.layers["process.alloc_kb_per_sched"] = ratio(float64(cost.totalAlloc)/1024, float64(n))
	rep.layers["process.gc_per_1k_sched"] = ratio(1000*float64(cost.numGC), float64(n))
	rep.layers["process.cpu_us_per_sched"] = ratio(float64(cost.cpu)/1e3, float64(n))
	rep.layers["tcp.active_opens_per_sched"] = ratio(float64(b.activeOpens-a.activeOpens), float64(n))
	if s.tr != nil {
		readPathSpans(rep, s.tr.snapshot(), untraced)
		rep.note("cost: %.4g us CPU per SCHED against %.4g us wall per SCHED", float64(cost.cpu)/1e3/float64(n), float64(elapsed)/1e3/float64(n))
	}
	s.ledger(rep)
	s.probeDatagrams(rep, func(buf []byte) kind { s.mix.trickle(buf); return kindValid })
	rep.note("tcp TIME_WAIT sockets: %d at start, %d at end", s.tw0, tcpTimeWait())
	return rep, s.finish()
}

// maxBurst caps the reports the trickle sends per wake-up. After a stall
// it catches up in steps of this size, yielding between them, so the
// gateway's receive buffer never sees a burst.
const maxBurst = 16

// trickle sends the background re-reports: numStations per second, each
// due at its own instant, sent as soon as the sender wakes after it. It
// returns the worst lateness against those instants.
func (s *serving) trickle(stop <-chan struct{}) (time.Duration, error) {
	period := time.Second / numStations
	start := time.Now()
	timer := time.NewTimer(period)
	defer timer.Stop()
	var worst time.Duration
	for j := int64(1); ; {
		select {
		case <-stop:
			return worst, nil
		case <-timer.C:
		}
		now := time.Now()
		for n, due := 0, start.Add(time.Duration(j)*period); n < maxBurst && !due.After(now); n, due = n+1, start.Add(time.Duration(j)*period) {
			worst = max(worst, now.Sub(due))
			s.mix.trickle(s.buf)
			if err := s.write(s.buf); err != nil {
				return worst, err
			}
			j++
		}
		timer.Reset(max(0, time.Until(start.Add(time.Duration(j)*period))))
	}
}

// block is 64 consecutive datagrams of the report-ingest stream, timed
// from sending its first until the gateway, then the shards, have handled
// it.
type block struct {
	start   time.Time
	end     int64 // s.sent after its last datagram
	gwDone  time.Time
	fwdMark int64 // forwarded copies when the gateway finished it
}

// runReportIngest is the report-ingest workload: the datagram mix under
// flow control, with an open-loop SCHED probe at 20/s.
func runReportIngest(cfg config) (*report, error) {
	s := newServing(cfg)
	defer s.close()
	rep := newReport()
	setup, err := s.setups(rep)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	stop, done := make(chan struct{}), make(chan struct{})
	var probe probeResult
	go func() {
		defer close(done)
		probe = s.probe(stop)
	}()

	runtime.GC() // the set-ups' garbage is not this phase's work
	c0 := s.t.ingestCounts()
	sent0 := s.sent
	p0 := sampleProc()
	rcv0 := udpRcvbufErrors()
	var kinds [numKinds]int64
	var open []block
	var gwWin, shWin []float64
	onPoll := func(c ingestCounts, now time.Time) {
		for len(open) > 0 {
			b := &open[0]
			if b.gwDone.IsZero() {
				if c.gwHandled() < b.end {
					return
				}
				b.gwDone, b.fwdMark = now, c.gwForwarded
			}
			if c.shHandled() < b.fwdMark {
				return
			}
			gwWin = append(gwWin, float64(b.gwDone.Sub(b.start))/1e6)
			shWin = append(shWin, float64(now.Sub(b.start))/1e6)
			if s.tr != nil {
				op := int64(len(gwWin))
				root := s.tr.record("ingest.block", -1, op, b.start, now)
				s.tr.record("gateway.window", root, op, b.start, b.gwDone)
				s.tr.record("shard.window", root, op, b.gwDone, now)
			}
			open = open[1:]
		}
	}
	start := time.Now()
	deadline := start.Add(cfg.duration())
	err = s.pump(func() bool { return !time.Now().Before(deadline) }, func(buf []byte) {
		if (s.sent-sent0)%window == 0 {
			open = append(open, block{start: time.Now(), end: s.sent + window})
		}
		kinds[s.mix.next(buf)]++
	}, onPoll)
	if err != nil {
		rep.problem("%v", err)
	}
	// The last block may be partial: it ends where sending stopped.
	if n := len(open); n > 0 && open[n-1].end > s.sent {
		open[n-1].end = s.sent
	}
	c1, derr := s.drain()
	elapsed := time.Since(start)
	onPoll(c1, time.Now())
	p1 := sampleProc()
	close(stop)
	<-done
	if derr != nil {
		rep.problem("%v", derr)
	}

	sent := s.sent - sent0
	valid := kinds[kindValid]
	d := c1.sub(c0)
	rep.attempted = 2*valid + probe.sent
	rep.failed = max(0, 2*valid-d.shOK) + probe.failed
	for _, m := range []struct {
		name      string
		got, want int64
	}{
		{"gateway accepted = valid", d.gwAccepted, valid},
		{"gateway dup = replayed", d.gwDup, kinds[kindReplay]},
		{"gateway drop_crc = bad CRC", d.gwDropCRC, kinds[kindBadCRC]},
		{"gateway fast_reject = bad magic", d.gwFastReject, kinds[kindBadMagic]},
		{"shard reports_ok = 2 x valid", d.shOK, 2 * valid},
	} {
		rep.note("mix: %s: %d = %d", m.name, m.got, m.want)
		if m.got != m.want {
			rep.problem("mix check failed: %s: got %d, want %d", m.name, m.got, m.want)
		}
	}
	if probe.err != nil {
		rep.problem("%d probes failed, the first with: %v", probe.failed, probe.err)
	}

	pd := newDist(probe.lat)
	rep.e2e["latency_p50_ms"] = pd.median()
	rep.e2e["throughput_per_s"] = float64(sent) / elapsed.Seconds()
	rep.note("ingest: %d datagrams in %.3g s (%s)", sent, elapsed.Seconds(), mixString(kinds))
	rep.note("probe: %s ms from due over %d SCHEDs (%d failed), worst lateness %.3g ms",
		pd, probe.sent, probe.failed, float64(probe.worstLate)/1e6)
	rep.note("window: gateway %s ms, shards %s ms", newDist(gwWin), newDist(shWin))

	cost := p1.sub(p0)
	rep.layers["gateway.window_p50_ms"] = newDist(gwWin).median()
	rep.layers["shard.window_p50_ms"] = newDist(shWin).median()
	rep.layers["process.cpu_us_per_report"] = ratio(float64(cost.cpu)/1e3, float64(sent))
	rep.layers["process.alloc_b_per_report"] = ratio(float64(cost.totalAlloc), float64(sent))
	rep.layers["process.gc_per_1m_reports"] = ratio(1e6*float64(cost.numGC), float64(sent))
	rep.layers["gateway.fast_reject"] = float64(d.gwFastReject)
	rep.layers["gateway.dup"] = float64(d.gwDup)
	rep.layers["gateway.shed"] = float64(d.gwShed)
	rep.layers["gateway.forward_err"] = float64(d.gwForwardErr)
	rep.layers["schedd.ingest_shed"] = float64(d.shShed)
	rep.layers["schedd.drop_crc"] = float64(d.shDropCRC)
	rep.layers["udp.rcvbuf_errors"] = float64(udpRcvbufErrors() - rcv0)
	if s.tr != nil {
		readPathSpans(rep, s.tr.snapshot(), probe.untraced)
		shOwn := make([]float64, len(shWin))
		for i := range shWin {
			shOwn[i] = shWin[i] - gwWin[i]
		}
		gw, sh := newDist(gwWin).median(), newDist(shOwn).median()
		rep.ledger("block of 64 datagrams", gw+sh, newDist(shWin).median(),
			fmt.Sprintf("gateway %.4g ms + shards %.4g ms (n=%d blocks)", gw, sh, len(gwWin)))
		rep.note("cost: %.4g us CPU per report against %.4g us wall per report",
			float64(cost.cpu)/1e3/float64(sent), float64(elapsed)/1e3/float64(sent))
	}
	s.ledger(rep)
	s.probeDatagrams(rep, s.mix.next)
	rep.note("tcp TIME_WAIT sockets: %d at start, %d at end", s.tw0, tcpTimeWait())
	return rep, s.finish()
}

func mixString(k [numKinds]int64) string {
	out := ""
	for i, n := range k {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %d", kindNames[i], n)
	}
	return out
}

// probeResult is what the report-ingest read probe saw.
type probeResult struct {
	sent, failed int64
	lat          []float64 // ms from when each probe was due
	untraced     []float64 // the same, untraced probes only
	worstLate    time.Duration
	err          error // the first failure
}

// probe sends one SCHED every probeEvery, round-robin over the APs, timing
// each from when it was due, until stop closes.
func (s *serving) probe(stop <-chan struct{}) probeResult {
	var r probeResult
	start := time.Now()
	timer := time.NewTimer(probeEvery)
	defer timer.Stop()
	for k := int64(1); ; k++ {
		select {
		case <-stop:
			return r
		case <-timer.C:
		}
		due := start.Add(time.Duration(k) * probeEvery)
		r.worstLate = max(r.worstLate, time.Since(due))
		traced := s.tr != nil && k%2 == 1
		_, err := s.op(int(k%numAPs), k, traced)
		ms := float64(time.Since(due)) / 1e6
		r.sent++
		if err != nil {
			r.failed++
			if r.err == nil {
				r.err = err
			}
		} else {
			r.lat = append(r.lat, ms)
			if !traced {
				r.untraced = append(r.untraced, ms)
			}
		}
		timer.Reset(max(0, time.Until(start.Add(time.Duration(k+1)*probeEvery))))
	}
}

// probeDatagrams times the gateway's prefix filter and the shard decoder
// over datagrams of this workload's own stream, after the tier is idle.
func (s *serving) probeDatagrams(rep *report, gen func(buf []byte) kind) {
	const n = 4096
	pkts := make([]byte, n*schedd.ReportLen)
	for i := 0; i < n; i++ {
		gen(pkts[i*schedd.ReportLen : (i+1)*schedd.ReportLen])
	}
	ns, _ := measure(15, 1, func() {
		for i := 0; i < n; i++ {
			sinkErr = gateway.FastReject(pkts[i*schedd.ReportLen : (i+1)*schedd.ReportLen])
		}
	})
	rep.layers["gateway.fast_reject_ns"] = ns / n
	ns, _ = measure(15, 1, func() {
		for i := 0; i < n; i++ {
			_, sinkErr = schedd.DecodeReport(pkts[i*schedd.ReportLen : (i+1)*schedd.ReportLen])
		}
	})
	rep.layers["schedd.decode_report_ns"] = ns / n
}

// finish stops the tier so that peak memory and the library probes see an
// idle process.
func (s *serving) finish() error {
	s.close()
	if s.tr != nil {
		return s.tr.write(s.cfg.tracePath())
	}
	return nil
}
