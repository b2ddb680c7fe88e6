package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/matching"
	"repro/internal/mc"
	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Sinks keep the compiler from discarding the probed calls. They are typed,
// not any, so storing a result never allocates inside a measured call.
var (
	sinkF         float64
	sinkI         int64
	sinkErr       error
	sinkGains     []float64
	sinkPlacement topo.TwoLinkPlacement
	sinkSnaps     []trace.Snapshot
	sinkSchedule  sched.Schedule
)

// measure times f: it runs f once to warm up, then samples times reps
// calls, and returns the median ns per call and the allocations per call
// (run with nothing else in the process allocating, so the count is exact).
func measure(samples, reps int, f func()) (nsPerCall, allocsPerCall float64) {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	allocsPerCall = float64(after.Mallocs-before.Mallocs) / float64(reps)
	ts := make([]float64, samples)
	for s := range ts {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		ts[s] = float64(time.Since(start).Nanoseconds()) / float64(reps)
	}
	return newDist(ts).median(), allocsPerCall
}

// probe records a library probe as <name>_<unit> and <name>_allocs.
func probe(rep *report, name, unit string, samples, reps int, f func()) {
	ns, allocs := measure(samples, reps, f)
	scale := map[string]float64{"ms": 1e6, "us": 1e3, "ns": 1}[unit]
	rep.layers[name+"_"+unit] = ns / scale
	rep.layers[name+"_allocs"] = allocs
}

// probeLibraries measures the library layers the figures and the
// scheduler run on, at the sizes the drivers and the daemon use. It runs
// after the workload, with the tier stopped, so nothing else allocates.
func probeLibraries(rep *report, seed int64) {
	ctx := context.Background()
	ch := phy.Wifi20MHz
	const bits = 12000
	pl, err := phy.NewPathLoss(4, 1, 60) // the Monte-Carlo figures' model
	if err != nil {
		panic(err)
	}
	cfg := mc.Config{Trials: 10000, Seed: seed, Separation: 20, Range: 20, PathLoss: pl, Channel: ch, PacketBits: bits}
	probe(rep, "mc.two_receiver_sweep", "ms", 5, 1, func() { sinkGains, sinkErr = mc.TwoReceiverGains(ctx, cfg) })
	probe(rep, "mc.technique_sweep", "ms", 5, 1, func() { sinkGains, sinkErr = mc.SameReceiverGains(ctx, cfg, mc.TechPowerControl) })

	// One engine block: 256-element columns.
	const col = 256
	rng := rand.New(rand.NewSource(seed))
	lin, db, in, sinr, dist, rate, dst := make([]float64, col), make([]float64, col), make([]float64, col),
		make([]float64, col), make([]float64, col), make([]float64, col), make([]float64, col)
	for i := range lin {
		db[i] = 40 * rng.Float64()
		lin[i] = phy.FromDB(db[i])
		in[i] = phy.FromDB(20 * rng.Float64())
		sinr[i] = lin[i] / (1 + in[i])
		dist[i] = 1 + 29*rng.Float64()
		rate[i] = ch.Capacity(sinr[i])
	}
	slice := func(name string, f func()) {
		ns, allocs := measure(15, 2000, f)
		rep.layers["phy."+name+"_slice_ns"] = ns / col
		rep.layers["phy."+name+"_slice_allocs"] = allocs
	}
	slice("db", func() { phy.DBSlice(dst, lin) })
	slice("from_db", func() { phy.FromDBSlice(dst, db) })
	slice("sinr", func() { phy.SINRSlice(dst, lin, in) })
	slice("capacity", func() { phy.CapacitySlice(dst, ch.BandwidthHz, sinr) })
	slice("snr_at", func() { pl.SNRAtSlice(dst, dist) })
	slice("tx_time", func() { phy.TxTimeSlice(dst, bits, rate) })

	probe(rep, "topo.place_two_links", "ns", 15, 100000, func() { sinkPlacement = topo.PlaceTwoLinks(rng, 20, 20) })
	k := 0
	probe(rep, "core.pair_gain", "ns", 15, 100000, func() {
		k = (k + 1) % col
		sinkF = core.Pair{S1: lin[k], S2: in[k]}.Gain(ch, bits)
	})
	triple := make([]float64, 3)
	probe(rep, "core.chain_time", "ns", 15, 100000, func() {
		k = (k + 1) % (col - 3)
		copy(triple, lin[k:k+3])
		sinkF, sinkErr = core.ChainTime(ch, bits, triple)
	})

	tcfg := trace.DefaultGenConfig(seed)
	tcfg.Days = experiments.DefaultParams().TraceDays // fig13 and fig14's input
	probe(rep, "trace.generate_upload", "ms", 3, 1, func() { sinkSnaps, sinkErr = trace.GenerateUpload(tcfg) })

	probeScheduler(rep, seed)
}

// probeScheduler measures the daemon's per-AP solve at the serving
// population's size: 64 clients from the workload seed's first AP. Warm
// solves alternate between two SNR sets in which 8 clients differ by
// 0.5 dB: between two queries for one AP, the sched-query trickle moves
// about 7 of its 64 stations.
func probeScheduler(rep *report, seed int64) {
	ctx := context.Background()
	opts := sched.Options{Channel: phy.Wifi20MHz, PacketBits: 12000} // the daemon's defaults
	pop := newPopulation(seed)
	a, b := make([]sched.Client, stationsPerAP), make([]sched.Client, stationsPerAP)
	for i := range a {
		id := fmt.Sprintf("sta%d", pop.stations[i])
		a[i] = sched.Client{ID: id, SNR: phy.FromDB(float64(pop.baseSNR[i]) / 1e3)}
		b[i] = a[i]
		if i < 8 {
			b[i].SNR = phy.FromDB(float64(pop.baseSNR[i])/1e3 + 0.5)
		}
	}
	probe(rep, "sched.plan_cold64", "ms", 15, 1, func() { sinkSchedule, sinkErr = sched.NewPlanner(opts).Plan(ctx, a) })
	pl := sched.NewPlanner(opts)
	flip := false
	probe(rep, "sched.plan_warm64", "us", 15, 20, func() {
		flip = !flip
		if flip {
			sinkSchedule, sinkErr = pl.Plan(ctx, b)
		} else {
			sinkSchedule, sinkErr = pl.Plan(ctx, a)
		}
	})

	cost := func(cs []sched.Client, i, j int) int64 {
		p := core.Pair{S1: cs[i].SNR, S2: cs[j].SNR}
		return int64(1e9 * min(p.SerialTime(opts.Channel, opts.PacketBits), p.SICTime(opts.Channel, opts.PacketBits)))
	}
	fill := func(s *matching.Solver, cs []sched.Client) {
		for i := range cs {
			for j := i + 1; j < len(cs); j++ {
				sinkErr = s.SetCost(i, j, cost(cs, i, j))
			}
		}
	}
	var cold matching.Solver
	probe(rep, "matching.solve_cold64", "ms", 15, 1, func() {
		sinkErr = cold.Reset(stationsPerAP)
		fill(&cold, a)
		sinkI, sinkErr = cold.Solve(ctx)
	})
	var warm matching.Solver
	sinkErr = warm.Reset(stationsPerAP)
	fill(&warm, a)
	sinkI, sinkErr = warm.Solve(ctx)
	flip = false
	probe(rep, "matching.solve_warm64", "us", 15, 20, func() {
		// One client's SNR moves: its row of costs changes.
		flip = !flip
		cs := a
		if flip {
			cs = b
		}
		for j := 1; j < stationsPerAP; j++ {
			sinkErr = warm.SetCost(0, j, cost(cs, 0, j))
		}
		sinkI, sinkErr = warm.Warm(ctx)
	})
}

// layerMetrics lists every per-layer metric a traced run prints, in
// print order. A layer a workload does not exercise reads 0.
func layerMetrics() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	for _, r := range suite() {
		add("ms", "driver."+r.ID+"_ms")
	}
	add("ms", "runner.overhead_ms")
	add("MB", "process.alloc_mb_per_suite")
	add("count", "process.gc_per_suite")
	for _, p := range []struct{ name, unit string }{
		{"mc.two_receiver_sweep", "ms"}, {"mc.technique_sweep", "ms"},
		{"phy.db_slice", "ns"}, {"phy.from_db_slice", "ns"}, {"phy.sinr_slice", "ns"},
		{"phy.capacity_slice", "ns"}, {"phy.snr_at_slice", "ns"}, {"phy.tx_time_slice", "ns"},
		{"topo.place_two_links", "ns"}, {"core.pair_gain", "ns"}, {"core.chain_time", "ns"},
		{"trace.generate_upload", "ms"},
		{"sched.plan_cold64", "ms"}, {"sched.plan_warm64", "us"},
		{"matching.solve_cold64", "ms"}, {"matching.solve_warm64", "us"},
	} {
		add(p.unit, p.name+"_"+p.unit)
		add("count", p.name+"_allocs")
	}
	add("ms", "shard.sched_p50_ms", "gateway.overhead_p50_ms")
	add("KB", "process.alloc_kb_per_sched")
	add("count", "process.gc_per_1k_sched")
	add("us", "process.cpu_us_per_sched")
	add("count", "tcp.active_opens_per_sched", "gateway.fanout_per_sched",
		"gateway.hedges", "gateway.retries", "gateway.shard_err", "gateway.degraded", "gateway.merge_dup_slots")
	add("ratio", "schedd.blossom_ratio", "schedd.plan_warm_ratio")
	add("count", "schedd.plan_contended", "schedd.query_overload")
	add("ms", "schedd.ladder_blossom_mean_ms")
	add("ns", "gateway.fast_reject_ns", "schedd.decode_report_ns")
	add("ms", "gateway.window_p50_ms", "shard.window_p50_ms")
	add("us", "process.cpu_us_per_report")
	add("B", "process.alloc_b_per_report")
	add("count", "process.gc_per_1m_reports", "gateway.fast_reject", "gateway.dup", "gateway.shed",
		"gateway.forward_err", "schedd.ingest_shed", "schedd.drop_crc", "udp.rcvbuf_errors")
	add("ms", "ledger.layers_sum_ms", "ledger.e2e_ms", "ledger.gap_ms", "trace.overhead_ms")
	return defs
}
