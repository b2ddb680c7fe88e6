package main

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/schedd"
)

// stream renders everything a serving run sends for seed: the preload, n
// datagrams of the report-ingest mix and n trickle reports.
func stream(seed int64, n int) []byte {
	pop := newPopulation(seed)
	var out bytes.Buffer
	buf := make([]byte, schedd.ReportLen)
	m := newMixer(pop, seed)
	for i := 0; i < numStations; i++ {
		m.valid(buf, i)
		out.Write(buf)
	}
	for i := 0; i < n; i++ {
		m.next(buf)
		out.Write(buf)
	}
	t := newMixer(pop, seed)
	for i := 0; i < n; i++ {
		t.trickle(buf)
		out.Write(buf)
	}
	return out.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := newPopulation(7), newPopulation(7)
	for i := range a.stations {
		if a.stations[i] != b.stations[i] || a.baseSNR[i] != b.baseSNR[i] {
			t.Fatalf("station %d differs between two populations of seed 7", i)
		}
	}
	if !bytes.Equal(stream(7, 5000), stream(7, 5000)) {
		t.Fatal("seed 7 generated two different datagram streams")
	}
	if bytes.Equal(stream(7, 5000), stream(8, 5000)) {
		t.Fatal("seeds 7 and 8 generated the same stream")
	}
}

func TestPopulationShape(t *testing.T) {
	p := newPopulation(1)
	if len(p.index) != numStations {
		t.Fatalf("%d distinct stations, want %d", len(p.index), numStations)
	}
	for _, ap := range p.aps {
		if ap == 0 || ap >= 1<<31 {
			t.Errorf("AP id %d outside [1, 2^31)", ap)
		}
	}
}

func TestEncodeReportMatchesMarshal(t *testing.T) {
	buf := make([]byte, schedd.ReportLen)
	for _, r := range []schedd.Report{
		{AP: 1, Station: 2, Seq: 3, SNRMilliDB: 4},
		{AP: 1<<31 - 1, Station: 1<<32 - 2, Seq: 1<<32 - 1, SNRMilliDB: -schedd.MaxSNRMilliDB},
	} {
		want, err := r.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		encodeReport(buf, r)
		if !bytes.Equal(buf, want) {
			t.Errorf("%+v: encodeReport %x, Marshal %x", r, buf, want)
		}
	}
}

// TestMixDrift checks the report-ingest mix's proportions and that every
// valid report moves its station's SNR by at most 0.5 dB.
func TestMixDrift(t *testing.T) {
	pop := newPopulation(3)
	m := newMixer(pop, 3)
	buf := make([]byte, schedd.ReportLen)
	last := make(map[uint32]int32)
	for i := 0; i < numStations; i++ {
		m.valid(buf, i)
		r, err := schedd.DecodeReport(buf)
		if err != nil {
			t.Fatal(err)
		}
		last[r.Station] = r.SNRMilliDB
	}
	var kinds [numKinds]int
	const n = 100000
	for i := 0; i < n; i++ {
		k := m.next(buf)
		kinds[k]++
		r, err := schedd.DecodeReport(buf)
		switch k {
		case kindValid:
			if err != nil {
				t.Fatalf("valid datagram fails to decode: %v", err)
			}
			if d := r.SNRMilliDB - last[r.Station]; d > maxStepMilliDB || d < -maxStepMilliDB {
				t.Fatalf("station %d SNR moved %d milli-dB", r.Station, d)
			}
			last[r.Station] = r.SNRMilliDB
		case kindReplay:
			if err != nil {
				t.Fatalf("replay fails to decode: %v", err)
			}
		case kindBadCRC:
			if schedd.DropReason(err) != "drop_crc" {
				t.Fatalf("bad-CRC datagram decodes as %v", err)
			}
		case kindBadMagic:
			if schedd.DropReason(err) != "drop_magic" {
				t.Fatalf("bad-magic datagram decodes as %v", err)
			}
		}
	}
	for k, want := range [numKinds]float64{0.80, 0.10, 0.05, 0.05} {
		if got := float64(kinds[k]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("%s share %.3f, want %.2f", kindNames[k], got, want)
		}
	}
}

// recordingConn keeps a copy of everything written through it.
type recordingConn struct {
	net.Conn
	sent bytes.Buffer
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.sent.Write(b)
	return c.Conn.Write(b)
}

// TestProgramReceivesOnlyGeneratedInputs runs the report-ingest sender
// against a live tier and checks that the bytes it wrote are exactly the
// seed's generated stream, and that the tier counted exactly that many.
func TestProgramReceivesOnlyGeneratedInputs(t *testing.T) {
	const seed, n = 5, 20000
	s := newServing(config{seed: seed})
	defer s.close()
	if _, err := s.setup(); err != nil {
		t.Fatal(err)
	}
	rec := &recordingConn{Conn: s.udp}
	s.udp = rec
	sent := 0
	if err := s.pump(func() bool { return sent == n }, func(buf []byte) {
		s.mix.next(buf)
		sent++
	}, nil); err != nil {
		t.Fatal(err)
	}
	c, err := s.drain()
	if err != nil {
		t.Fatal(err)
	}
	want := stream(seed, n)[numStations*schedd.ReportLen : (numStations+n)*schedd.ReportLen]
	if !bytes.Equal(rec.sent.Bytes(), want) {
		t.Fatalf("sender wrote %d bytes that differ from the seed's %d-byte stream", rec.sent.Len(), len(want))
	}
	if c.gwDatagrams != int64(numStations+n) {
		t.Fatalf("gateway read %d datagrams, harness sent %d", c.gwDatagrams, numStations+n)
	}
	if _, gaps := conservation(c, s.sent, udpRcvbufErrors()-s.rcv0); len(gaps) > 0 {
		t.Fatalf("conservation gaps: %v", gaps)
	}
}
