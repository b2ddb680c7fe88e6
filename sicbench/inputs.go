package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"

	"repro/internal/schedd"
)

// The serving population: 64 APs with 64 stations each, every station
// reporting its SNR at its AP.
const (
	numAPs        = 64
	stationsPerAP = 64
	numStations   = numAPs * stationsPerAP
	// maxStepMilliDB bounds one report's SNR change (0.5 dB);
	// maxDriftMilliDB bounds how far a station wanders from its base SNR.
	maxStepMilliDB  = 500
	maxDriftMilliDB = 3000
)

// population is the seeded station layout both serving workloads use.
// Station i sits on AP aps[i/stationsPerAP].
type population struct {
	aps      []uint32
	stations []uint32
	baseSNR  []int32 // milli-dB
	index    map[uint32]int
}

func newPopulation(seed int64) *population {
	rng := rand.New(rand.NewSource(seed))
	p := &population{
		aps:      distinctIDs(rng, numAPs),
		stations: distinctIDs(rng, numStations),
		baseSNR:  make([]int32, numStations),
		index:    make(map[uint32]int, numStations),
	}
	// Every AP gets the same spread of SNRs, 5 to 35 dB in even steps, in
	// a seeded order and with a seeded jitter of up to 0.2 dB: the seed
	// changes which station holds which SNR, not how hard an AP's schedule
	// is, so runs on different seeds measure the same work.
	const step = 30000 / stationsPerAP
	for k := 0; k < numAPs; k++ {
		for j, r := range rng.Perm(stationsPerAP) {
			i := k*stationsPerAP + j
			p.baseSNR[i] = int32(5000 + step*r + step/2 + rng.Intn(401) - 200)
		}
	}
	for i, st := range p.stations {
		p.index[st] = i
	}
	return p
}

// distinctIDs draws n distinct ids in [1, 2^31): valid station ids and AP
// ids outside the gateway's reserved replica namespace.
func distinctIDs(rng *rand.Rand, n int) []uint32 {
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		id := uint32(1 + rng.Int31n(1<<31-1))
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

func (p *population) apOf(i int) uint32 { return p.aps[i/stationsPerAP] }

// apStations returns the flat indices of AP k's stations.
func apStations(k int) (lo, hi int) { return k * stationsPerAP, (k + 1) * stationsPerAP }

// reporter produces every station's next valid report: the sequence number
// advances by one and the SNR takes a seeded step of at most 0.5 dB,
// staying within 3 dB of the station's base. order is a seeded visiting
// order, so a round over it reports every station once.
type reporter struct {
	pop   *population
	rng   *rand.Rand
	seq   []uint32
	snr   []int32
	order []int
	pos   int
}

func newReporter(pop *population, seed int64) *reporter {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	r := &reporter{
		pop:   pop,
		rng:   rng,
		seq:   make([]uint32, numStations),
		snr:   append([]int32(nil), pop.baseSNR...),
		order: rng.Perm(numStations),
	}
	return r
}

// report advances station i and returns its new report.
func (r *reporter) report(i int) schedd.Report {
	r.seq[i]++
	snr := r.snr[i] + int32(r.rng.Intn(2*maxStepMilliDB+1)-maxStepMilliDB)
	base := r.pop.baseSNR[i]
	if snr > base+maxDriftMilliDB {
		snr = base + maxDriftMilliDB
	}
	if snr < base-maxDriftMilliDB {
		snr = base - maxDriftMilliDB
	}
	r.snr[i] = snr
	return schedd.Report{AP: r.pop.apOf(i), Station: r.pop.stations[i], Seq: r.seq[i], SNRMilliDB: snr}
}

// nextStation returns the next station in the visiting order.
func (r *reporter) nextStation() int {
	i := r.order[r.pos]
	r.pos = (r.pos + 1) % numStations
	return i
}

// encodeReport writes r into dst (at least schedd.ReportLen bytes) in the
// daemon's wire format, as a station would; unlike schedd.Report.Marshal
// it reuses the caller's buffer, so the harness allocates nothing per
// datagram and the program's per-report allocation counts stay its own.
func encodeReport(dst []byte, r schedd.Report) {
	binary.BigEndian.PutUint16(dst[0:2], schedd.ReportMagic)
	dst[2] = schedd.ReportVersion
	dst[3] = 1 // RSSI report
	binary.BigEndian.PutUint32(dst[4:8], schedd.ReportLen)
	binary.BigEndian.PutUint32(dst[8:12], r.AP)
	binary.BigEndian.PutUint32(dst[12:16], r.Station)
	binary.BigEndian.PutUint32(dst[16:20], r.Seq)
	binary.BigEndian.PutUint32(dst[20:24], uint32(r.SNRMilliDB))
	binary.BigEndian.PutUint32(dst[24:28], crc32.ChecksumIEEE(dst[:24]))
}

// kind is one class of datagram in the report-ingest mix.
type kind int

const (
	kindValid    kind = iota // 80%: the station's next report
	kindReplay               // 10%: the station's last valid datagram again
	kindBadCRC               // 5%: a next report with its checksum broken
	kindBadMagic             // 5%: a next report with its magic broken
	numKinds
)

var kindNames = [numKinds]string{"valid", "replay", "bad_crc", "bad_magic"}

// mixer generates the report-ingest datagram stream. Replays resend a
// station's last valid datagram, so the gateway must reject each as a
// duplicate; corrupted datagrams never advance a station's state.
type mixer struct {
	rep  *reporter
	rng  *rand.Rand
	last []byte // numStations × ReportLen: each station's last valid datagram
}

// newMixer builds the stream for seed. The preload sends every station's
// first report, valid(buf, i) for each i, which fills last.
func newMixer(pop *population, seed int64) *mixer {
	return &mixer{
		rep:  newReporter(pop, seed),
		rng:  rand.New(rand.NewSource(seed ^ 0x0dd5eed)),
		last: make([]byte, numStations*schedd.ReportLen),
	}
}

// valid writes station i's next report into buf.
func (m *mixer) valid(buf []byte, i int) {
	encodeReport(buf, m.rep.report(i))
	copy(m.last[i*schedd.ReportLen:], buf[:schedd.ReportLen])
}

// trickle writes the next station's next valid report into buf: the
// sched-query workload's background re-reports, each station once per
// round.
func (m *mixer) trickle(buf []byte) {
	m.valid(buf, m.rep.nextStation())
}

// next writes the next datagram of the mix into buf and returns its kind.
func (m *mixer) next(buf []byte) kind {
	i := m.rep.nextStation()
	var k kind
	switch n := m.rng.Intn(20); {
	case n < 16:
		k = kindValid
	case n < 18:
		k = kindReplay
	case n < 19:
		k = kindBadCRC
	default:
		k = kindBadMagic
	}
	switch k {
	case kindValid:
		m.valid(buf, i)
	case kindReplay:
		copy(buf, m.last[i*schedd.ReportLen:(i+1)*schedd.ReportLen])
	case kindBadCRC, kindBadMagic:
		r := schedd.Report{AP: m.rep.pop.apOf(i), Station: m.rep.pop.stations[i],
			Seq: m.rep.seq[i] + 1, SNRMilliDB: m.rep.snr[i]}
		encodeReport(buf, r)
		if k == kindBadCRC {
			buf[27] ^= 0xff
		} else {
			buf[0] ^= 0xff
		}
	}
	return k
}
