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
// exchange: shards write it, and the gateway decodes it and re-emits its
// slots.
package schedd

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
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
