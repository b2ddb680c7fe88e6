// Package schedd implements the live SIC scheduling service: a long-lived
// daemon that ingests client RSSI reports over UDP, maintains a bounded
// per-AP client table, and answers schedule queries over TCP under a hard
// per-query deadline.
//
// Robustness is the design headline, in three layers:
//
//   - The wire codec (this file) is length-prefixed and CRC-guarded;
//     malformed, oversized, truncated, corrupted or duplicate datagrams are
//     rejected with a per-reason drop counter rather than an error path that
//     could stall ingest.
//   - Scheduling runs on a degradation ladder (ladder.go): optimal blossom
//     matching, then greedy pairing, then a serial fallback, each under its
//     own time budget, so a slow or pathological instance can never hold the
//     serving loop past its deadline. Every response records which rung
//     answered.
//   - Load is shed instead of queued without bound: the ingest queue
//     (internal/serve, shared with the gateway) is bounded with
//     oldest-first drop, and query admission control (server.go) answers
//     "overloaded + retry-after" once the in-flight limit is hit.
//
// This file also declares the SCHED reply, the one query reply both tiers
// exchange, and its codec: shards write it through its own AppendJSON, and
// the gateway reads it with DecodeReply and re-emits its slots.
package schedd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strconv"

	"repro/internal/sched"
	"repro/internal/serve"
)

// Wire constants for the report datagram.
const (
	// ReportMagic identifies scheduling-daemon datagrams; deliberately
	// distinct from frame.Magic so a misdirected MAC frame is rejected at
	// the first two bytes.
	ReportMagic = 0x51CD
	// ReportVersion is the current wire version.
	ReportVersion = 1
	// reportTypeRSSI is the only datagram type so far.
	reportTypeRSSI = 1
	// ReportLen is the exact length of a report datagram:
	//
	//	offset  size  field
	//	0       2     magic 0x51CD
	//	2       1     version (1)
	//	3       1     type (1 = RSSI report)
	//	4       4     total datagram length (= 28; length prefix)
	//	8       4     AP id
	//	12      4     station id
	//	16      4     report sequence number (per station, monotonic)
	//	20      4     SNR at the AP in milli-dB (signed)
	//	24      4     CRC-32 (IEEE) over bytes [0, 24)
	ReportLen = 28
)

// MaxSNRMilliDB bounds the advertised SNR to ±100 dB: anything outside is a
// sensor bug or an attack, not a radio.
const MaxSNRMilliDB = 100_000

// Report is one client RSSI report: station's SNR as received at its AP.
// Seq is a per-station monotonic counter used for duplicate suppression —
// a report whose Seq does not advance past the table's last-seen value for
// that station is dropped as a duplicate.
type Report struct {
	AP, Station uint32
	Seq         uint32
	SNRMilliDB  int32
}

// SchedReply is a successful SCHED reply. Level records the
// degradation-ladder rung that answered. Errors are answered with
// serve.ErrorReply instead.
type SchedReply struct {
	AP      uint32  `json:"ap"`
	Level   string  `json:"level"`
	Clients int     `json:"clients"`
	TotalMS float64 `json:"total_ms"`
	Gain    float64 `json:"gain"`
	Slots   []Slot  `json:"slots"`
	ElapsMS float64 `json:"elapsed_ms"`
}

// Slot is one schedule slot in a SCHED reply. B and Scale are omitted for
// a single-station slot: station 0 is invalid on the wire, so B == 0 is
// unambiguous.
type Slot struct {
	Mode  string  `json:"mode"`
	A     uint32  `json:"a"`
	B     uint32  `json:"b,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	MS    float64 `json:"ms"`
}

// AppendJSON encodes the reply as json.Marshal does; see
// serve.JSONAppender.
func (r SchedReply) AppendJSON(dst []byte) ([]byte, error) {
	dst = strconv.AppendUint(append(dst, `{"ap":`...), uint64(r.AP), 10)
	dst = serve.AppendString(append(dst, `,"level":`...), r.Level)
	dst = strconv.AppendInt(append(dst, `,"clients":`...), int64(r.Clients), 10)
	var err error
	if dst, err = serve.AppendFloat(append(dst, `,"total_ms":`...), r.TotalMS); err != nil {
		return dst, err
	}
	if dst, err = serve.AppendFloat(append(dst, `,"gain":`...), r.Gain); err != nil {
		return dst, err
	}
	if dst, err = serve.AppendArray(append(dst, `,"slots":`...), r.Slots); err != nil {
		return dst, err
	}
	dst, err = serve.AppendFloat(append(dst, `,"elapsed_ms":`...), r.ElapsMS)
	return append(dst, '}'), err
}

// AppendJSON encodes the slot as json.Marshal does.
func (s Slot) AppendJSON(dst []byte) ([]byte, error) {
	dst = serve.AppendString(append(dst, `{"mode":`...), s.Mode)
	dst = strconv.AppendUint(append(dst, `,"a":`...), uint64(s.A), 10)
	if s.B != 0 {
		dst = strconv.AppendUint(append(dst, `,"b":`...), uint64(s.B), 10)
	}
	var err error
	if s.Scale != 0 {
		if dst, err = serve.AppendFloat(append(dst, `,"scale":`...), s.Scale); err != nil {
			return dst, err
		}
	}
	dst, err = serve.AppendFloat(append(dst, `,"ms":`...), s.MS)
	return append(dst, '}'), err
}

// DecodeReply parses a reply in the bytes a shard writes for SCHED — a
// SchedReply, or a serve.ErrorReply — and returns what json.Unmarshal
// leaves in a zero struct embedding both. It accepts only the canonical
// shape AppendJSON emits: that key order, no whitespace, strings of
// printable ASCII without escapes. On any other input (reordered, unknown
// or differently cased keys, whitespace, escapes, non-ASCII, out-of-range
// numbers) it returns zero values and false, and the caller decodes with
// json.Unmarshal. A canonical reply allocates only its slot slice and
// error text, since the level and mode names shards write are interned.
func DecodeReply(data []byte) (SchedReply, serve.ErrorReply, bool) {
	p := replyParser{b: data, ok: true}
	var r SchedReply
	var e serve.ErrorReply
	if p.lit(`{"error":`) {
		e.Error = string(p.str())
		if p.lit(`,"retry_after_ms":`) {
			e.RetryAfterMS = int64(p.uint(math.MaxInt64))
		}
	} else {
		p.want(`{"ap":`)
		r.AP = uint32(p.uint(math.MaxUint32))
		p.want(`,"level":`)
		r.Level = intern(p.str())
		p.want(`,"clients":`)
		r.Clients = int(p.uint(math.MaxInt))
		p.want(`,"total_ms":`)
		r.TotalMS = p.float()
		p.want(`,"gain":`)
		r.Gain = p.float()
		p.want(`,"slots":`)
		r.Slots = p.slots()
		p.want(`,"elapsed_ms":`)
		r.ElapsMS = p.float()
	}
	if p.want("}"); p.ok && len(p.b) == 0 {
		return r, e, true
	}
	return SchedReply{}, serve.ErrorReply{}, false
}

// replyParser walks one reply in the canonical shape. The first byte off
// that shape clears ok, and every later step is then a no-op.
type replyParser struct {
	b  []byte
	ok bool
}

// lit consumes s if the input continues with it.
func (p *replyParser) lit(s string) bool {
	if p.ok && len(p.b) >= len(s) && string(p.b[:len(s)]) == s {
		p.b = p.b[len(s):]
		return true
	}
	return false
}

// want consumes s, which must come next.
func (p *replyParser) want(s string) {
	if !p.lit(s) {
		p.ok = false
	}
}

// uint consumes a canonical non-negative integer no larger than max. It
// reads at most 19 digits, which cannot overflow; a longer number leaves
// a digit behind that fails the next step.
func (p *replyParser) uint(max uint64) uint64 {
	n, v := 0, uint64(0)
	for ; n < len(p.b) && n < 19 && p.b[n] >= '0' && p.b[n] <= '9'; n++ {
		v = 10*v + uint64(p.b[n]-'0')
	}
	if !p.ok || n == 0 || (n > 1 && p.b[0] == '0') || v > max {
		p.ok = false
		return 0
	}
	p.b = p.b[n:]
	return v
}

// float consumes a JSON number and parses it as json.Unmarshal does.
func (p *replyParser) float() float64 {
	b, n := p.b, 0
	digits := func() bool {
		start := n
		for n < len(b) && b[n] >= '0' && b[n] <= '9' {
			n++
		}
		return n > start
	}
	if n < len(b) && b[n] == '-' {
		n++
	}
	if n < len(b) && b[n] == '0' {
		n++
	} else if !digits() {
		p.ok = false
	}
	if n < len(b) && b[n] == '.' {
		n++
		p.ok = p.ok && digits()
	}
	if n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		n++
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			n++
		}
		p.ok = p.ok && digits()
	}
	if !p.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(b[:n]), 64)
	if err != nil {
		p.ok = false
		return 0
	}
	p.b = b[n:]
	return f
}

// str consumes a string of printable ASCII without escapes and returns
// its bytes, which alias the input.
func (p *replyParser) str() []byte {
	if !p.lit(`"`) {
		p.ok = false
		return nil
	}
	for n, c := range p.b {
		if c == '"' {
			s := p.b[:n]
			p.b = p.b[n+1:]
			return s
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			break
		}
	}
	p.ok = false
	return nil
}

// slotOpen starts every slot object; no canonical string can hold a
// quote, so counting it counts the slots.
var slotOpen = []byte(`{"mode":`)

// slots consumes the slot array, or null. A canonical array is decoded
// into one allocation of exactly its length.
func (p *replyParser) slots() []Slot {
	if p.lit("null") {
		return nil
	}
	p.want("[")
	out := make([]Slot, 0, bytes.Count(p.b, slotOpen))
	for p.ok && !p.lit("]") {
		if len(out) > 0 {
			p.want(",")
		}
		var s Slot
		p.want(`{"mode":`)
		s.Mode = intern(p.str())
		p.want(`,"a":`)
		s.A = uint32(p.uint(math.MaxUint32))
		if p.lit(`,"b":`) {
			s.B = uint32(p.uint(math.MaxUint32))
		}
		if p.lit(`,"scale":`) {
			s.Scale = p.float()
		}
		p.want(`,"ms":`)
		s.MS = p.float()
		p.want("}")
		out = append(out, s)
	}
	return out
}

// replyNames are the level and mode names a shard writes.
var replyNames = [...]string{
	LevelBlossom.String(), LevelGreedy.String(), LevelSerial.String(),
	sched.ModeSerial.String(), sched.ModeSIC.String(), sched.ModeSolo.String(),
}

// intern returns b as a string, without allocating when it is one of
// replyNames.
func intern(b []byte) string {
	for _, s := range replyNames {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// Decode reject reasons, one per counter. Keeping them as errors (rather
// than an enum) lets the ingest loop count them and tests assert on them
// with errors.Is.
var (
	ErrReportShort    = errors.New("schedd: datagram shorter than a report")
	ErrReportOversize = errors.New("schedd: datagram longer than a report")
	ErrReportMagic    = errors.New("schedd: bad magic")
	ErrReportVersion  = errors.New("schedd: unsupported version")
	ErrReportType     = errors.New("schedd: unknown report type")
	ErrReportLength   = errors.New("schedd: length prefix inconsistent with datagram")
	ErrReportCRC      = errors.New("schedd: CRC mismatch")
	ErrReportStation  = errors.New("schedd: invalid station id")
	ErrReportSNR      = errors.New("schedd: SNR outside plausible range")
)

// broadcastID mirrors frame.Broadcast: never a valid station.
const broadcastID = ^uint32(0)

// Marshal serialises the report. It returns an error for reports that could
// never decode (invalid station, implausible SNR) so garbage cannot be put
// on the wire in the first place.
func (r Report) Marshal() ([]byte, error) {
	if r.Station == 0 || r.Station == broadcastID {
		return nil, ErrReportStation
	}
	if r.SNRMilliDB > MaxSNRMilliDB || r.SNRMilliDB < -MaxSNRMilliDB {
		return nil, ErrReportSNR
	}
	buf := make([]byte, ReportLen)
	binary.BigEndian.PutUint16(buf[0:2], ReportMagic)
	buf[2] = ReportVersion
	buf[3] = reportTypeRSSI
	binary.BigEndian.PutUint32(buf[4:8], ReportLen)
	binary.BigEndian.PutUint32(buf[8:12], r.AP)
	binary.BigEndian.PutUint32(buf[12:16], r.Station)
	binary.BigEndian.PutUint32(buf[16:20], r.Seq)
	binary.BigEndian.PutUint32(buf[20:24], uint32(r.SNRMilliDB))
	binary.BigEndian.PutUint32(buf[24:28], crc32.ChecksumIEEE(buf[:24]))
	return buf, nil
}

// DecodeReport parses and validates one datagram. Every failure mode maps
// to exactly one of the Err* reasons above; DropReason translates the error
// to its counter name.
func DecodeReport(buf []byte) (Report, error) {
	if len(buf) < ReportLen {
		return Report{}, ErrReportShort
	}
	if len(buf) > ReportLen {
		return Report{}, ErrReportOversize
	}
	if binary.BigEndian.Uint16(buf[0:2]) != ReportMagic {
		return Report{}, ErrReportMagic
	}
	if buf[2] != ReportVersion {
		return Report{}, ErrReportVersion
	}
	if buf[3] != reportTypeRSSI {
		return Report{}, ErrReportType
	}
	if binary.BigEndian.Uint32(buf[4:8]) != ReportLen {
		return Report{}, ErrReportLength
	}
	if crc32.ChecksumIEEE(buf[:24]) != binary.BigEndian.Uint32(buf[24:28]) {
		return Report{}, ErrReportCRC
	}
	r := Report{
		AP:         binary.BigEndian.Uint32(buf[8:12]),
		Station:    binary.BigEndian.Uint32(buf[12:16]),
		Seq:        binary.BigEndian.Uint32(buf[16:20]),
		SNRMilliDB: int32(binary.BigEndian.Uint32(buf[20:24])),
	}
	if r.Station == 0 || r.Station == broadcastID {
		return Report{}, ErrReportStation
	}
	if r.SNRMilliDB > MaxSNRMilliDB || r.SNRMilliDB < -MaxSNRMilliDB {
		return Report{}, ErrReportSNR
	}
	return r, nil
}

// DropReason maps a DecodeReport error to its drop-counter name. Unknown
// errors map to "drop_other" so no rejection ever goes uncounted.
func DropReason(err error) string {
	switch {
	case errors.Is(err, ErrReportShort):
		return "drop_short"
	case errors.Is(err, ErrReportOversize):
		return "drop_oversize"
	case errors.Is(err, ErrReportMagic):
		return "drop_magic"
	case errors.Is(err, ErrReportVersion):
		return "drop_version"
	case errors.Is(err, ErrReportType):
		return "drop_type"
	case errors.Is(err, ErrReportLength):
		return "drop_length"
	case errors.Is(err, ErrReportCRC):
		return "drop_crc"
	case errors.Is(err, ErrReportStation):
		return "drop_station"
	case errors.Is(err, ErrReportSNR):
		return "drop_snr"
	default:
		return "drop_other"
	}
}

// DropReasons enumerates every counter name DropReason can return, so other
// tiers (the sicgw gateway) can build drop-counter sets that stay aligned
// with the daemon's as reject reasons are added.
func DropReasons() []string { return dropReasons() }

// dropReasons enumerates every counter DropReason can return, for counter
// set construction.
func dropReasons() []string {
	return []string{
		"drop_short", "drop_oversize", "drop_magic", "drop_version",
		"drop_type", "drop_length", "drop_crc", "drop_station",
		"drop_snr", "drop_other",
	}
}
