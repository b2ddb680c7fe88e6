// Package sicmac is a Go reproduction of "Successive Interference
// Cancellation: a back-of-the-envelope perspective" (HotNets 2010) and its
// journal extension "SIC: Carving out MAC Layer Opportunities" (IEEE TMC) by
// Sen, Santhapuri, Roy Choudhury and Nelakuditi.
//
// It provides, as one coherent library:
//
//   - the paper's SIC capacity and completion-time analysis (Pair, Cross,
//     Download) over an explicit PHY model (Channel, PathLoss),
//   - the §5 enabling techniques — power reduction, multirate packetization
//     and packet packing,
//   - the §6 SIC-aware upload scheduler, built on a from-scratch Edmonds
//     minimum-weight perfect-matching engine (NewSchedule, GreedySchedule),
//   - discrete 802.11 b/g/n rate tables for the §7 discrete-bitrate study,
//   - a discrete-event MAC simulator with an SIC receiver model (RunSerial,
//     RunScheduled) exchanging real wire-format frames,
//   - the synthetic trace substrate standing in for the paper's proprietary
//     RSSI traces, and
//   - experiment drivers regenerating every figure of the evaluation.
//
// The facade re-exports the internal packages' types by alias, so the
// library can be consumed through this single import:
//
//	import sicmac "repro"
//
//	ch := sicmac.Wifi20MHz
//	pair := sicmac.Pair{S1: sicmac.FromDB(30), S2: sicmac.FromDB(15)}
//	fmt.Println(pair.Gain(ch, 12000)) // SIC speedup for a 1500-byte packet
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package sicmac

import (
	"context"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/rates"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ---- PHY model -------------------------------------------------------

// Channel is a wireless channel: bandwidth plus noise floor.
type Channel = phy.Channel

// PathLoss is the log-distance propagation model.
type PathLoss = phy.PathLoss

// Wifi20MHz is a 20 MHz channel with the noise floor normalised to 1, so
// signal strengths are linear SNRs.
var Wifi20MHz = phy.Wifi20MHz

// NewChannel builds a channel from bandwidth (Hz) and noise power (W).
func NewChannel(bandwidthHz, noiseW float64) Channel { return phy.NewChannel(bandwidthHz, noiseW) }

// NewPathLoss builds a log-distance path-loss model with the SNR in dB at
// the reference distance.
func NewPathLoss(exponent, refDistance, refSNRdB float64) (PathLoss, error) {
	return phy.NewPathLoss(exponent, refDistance, refSNRdB)
}

// DB converts a linear power ratio to decibels.
func DB(linear float64) float64 { return phy.DB(linear) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return phy.FromDB(db) }

// Capacity is Shannon capacity: B·log2(1+SINR) bits/second.
func Capacity(bandwidthHz, sinr float64) float64 { return phy.Capacity(bandwidthHz, sinr) }

// ---- SIC analysis (the paper's Eqs. 1-10 and §5 techniques) ----------

// Pair is two transmitters sharing one SIC receiver (upload building block).
type Pair = core.Pair

// Cross is the two-transmitter/two-receiver building block (Fig. 5).
type Cross = core.Cross

// Download is the two-APs-to-one-client scenario (Fig. 8).
type Download = core.Download

// PowerReduction is the outcome of the §5.2 optimisation.
type PowerReduction = core.PowerReduction

// Packing is the outcome of §5.4 packet packing.
type Packing = core.Packing

// Case classifies Cross topologies per Fig. 5.
type Case = core.Case

// Fig. 5 case labels.
const (
	CaseA = core.CaseA
	CaseB = core.CaseB
	CaseC = core.CaseC
	CaseD = core.CaseD
)

// RateFunc maps linear SINR to an achievable bitrate.
type RateFunc = core.RateFunc

// ShannonRate is the ideal continuous-rate function for a channel.
func ShannonRate(ch Channel) RateFunc { return core.ShannonRate(ch) }

// EqualRateStrongSNR returns the stronger-signal SNR at which SIC gain
// peaks for a given weaker-signal SNR (the S1 ≈ S2² ridge).
func EqualRateStrongSNR(weak float64) float64 { return core.EqualRateStrongSNR(weak) }

// BestPartnerSNR is the inverse of EqualRateStrongSNR.
func BestPartnerSNR(strong float64) float64 { return core.BestPartnerSNR(strong) }

// ---- Discrete rate tables --------------------------------------------

// RateTable is a discrete 802.11-style bitrate table.
type RateTable = rates.Table

// Standard tables: 4 rates (b), 8 rates (g), up to 32 MCS combinations (n).
var (
	Dot11b = rates.Dot11b
	Dot11g = rates.Dot11g
	Dot11n = rates.Dot11n
)

// ---- SIC-aware scheduling (§6) ----------------------------------------

// SchedClient is one backlogged uploader presented to the scheduler.
type SchedClient = sched.Client

// SchedOptions configures the scheduler's cost model.
type SchedOptions = sched.Options

// Schedule is the scheduler output: slots, total time, baseline.
type Schedule = sched.Schedule

// Slot is one scheduled transmission (pair or solo).
type Slot = sched.Slot

// Mode says how a slot transmits.
type Mode = sched.Mode

// Slot modes.
const (
	ModeSerial = sched.ModeSerial
	ModeSIC    = sched.ModeSIC
	ModeSolo   = sched.ModeSolo
)

// SchedPlanner is the reusable form of the scheduler: it memoizes solo and
// pair costs across queries and warm-starts the matcher when only SNRs
// drifted. Hold one per AP for repeated scheduling of a mostly-stable
// client population; the one-shot entry points (NewSchedule,
// GreedySchedule) run on pooled planners but always solve cold, so their
// results never depend on an earlier call.
type SchedPlanner = sched.Planner

// NewSchedPlanner returns a SchedPlanner computing costs under o.
func NewSchedPlanner(o SchedOptions) *SchedPlanner { return sched.NewPlanner(o) }

// NewSchedule computes the optimal SIC-aware schedule via minimum-weight
// perfect matching.
func NewSchedule(clients []SchedClient, o SchedOptions) (Schedule, error) {
	return sched.New(context.Background(), clients, o)
}

// GreedySchedule is the best-pair-first heuristic (the ablation baseline).
func GreedySchedule(clients []SchedClient, o SchedOptions) (Schedule, error) {
	return sched.Greedy(context.Background(), clients, o)
}

// ---- Discrete-event MAC simulation ------------------------------------

// Station is one uploading client in the simulator.
type Station = mac.Station

// MACConfig parameterises a simulation run.
type MACConfig = mac.Config

// MACResult summarises a simulation run.
type MACResult = mac.Result

// SICReceiver is the AP's strongest-first cancellation PHY model.
type SICReceiver = mac.SICReceiver

// Arrival is one concurrent signal at the SIC receiver.
type Arrival = mac.Arrival

// DefaultMACConfig returns 802.11g-flavoured timing over a channel.
func DefaultMACConfig(ch Channel) MACConfig { return mac.DefaultConfig(ch) }

// RunSerial simulates the CSMA-style serial baseline.
func RunSerial(stations []Station, cfg MACConfig) (MACResult, error) {
	return mac.RunSerial(stations, cfg)
}

// RunScheduled simulates the SIC-aware scheduled MAC.
func RunScheduled(stations []Station, cfg MACConfig, opts SchedOptions) (MACResult, error) {
	return mac.RunScheduled(stations, cfg, opts)
}

// ---- Trace substrate ---------------------------------------------------

// TraceSnapshot is one 15-minute AP/client-set observation.
type TraceSnapshot = trace.Snapshot

// TraceClient is one client observation within a snapshot.
type TraceClient = trace.ClientObs

// SurveyPoint is one location of the download SNR survey.
type SurveyPoint = trace.SurveyPoint

// TraceGenConfig parameterises the synthetic trace generator.
type TraceGenConfig = trace.GenConfig

// DefaultTraceConfig mirrors the paper's two-week collection.
func DefaultTraceConfig(seed int64) TraceGenConfig { return trace.DefaultGenConfig(seed) }

// GenerateUploadTrace produces the upload-evaluation snapshots.
func GenerateUploadTrace(cfg TraceGenConfig) ([]TraceSnapshot, error) {
	return trace.GenerateUpload(cfg)
}

// GenerateSurveyTrace produces the download-evaluation SNR survey.
func GenerateSurveyTrace(cfg TraceGenConfig, nLocations int) ([]SurveyPoint, error) {
	return trace.GenerateSurvey(cfg, nLocations)
}

// QueuedConfig extends MACConfig with a Poisson arrival process for the
// latency-vs-load study.
type QueuedConfig = mac.QueuedConfig

// QueuedResult reports per-packet delay statistics.
type QueuedResult = mac.QueuedResult

// RunQueuedSerial runs the serial CSMA baseline under Poisson arrivals.
func RunQueuedSerial(stations []Station, cfg QueuedConfig) (QueuedResult, error) {
	return mac.RunQueuedSerial(stations, cfg)
}

// RunQueuedScheduled runs the SIC-aware scheduled MAC under Poisson arrivals.
func RunQueuedScheduled(stations []Station, cfg QueuedConfig, opts SchedOptions) (QueuedResult, error) {
	return mac.RunQueuedScheduled(stations, cfg, opts)
}

// EmuConfig parameterises a run of the trigger-protocol emulator.
type EmuConfig = emu.Config

// EmuResult summarises an emulation run.
type EmuResult = emu.Result

// FaultModel configures deterministic fault injection on the emulated
// radio medium: per-frame-type loss, payload corruption and station
// stalls, all derived from EmuConfig.Seed so runs reproduce exactly.
type FaultModel = emu.FaultModel

// FaultCounters aggregates failure/recovery accounting shared by the
// discrete-event MACs and the emulator.
type FaultCounters = mac.FaultCounters

// RunEmulation executes the SIC-aware upload MAC as a trigger-frame
// protocol: the AP polls its stations, schedules them and triggers each
// slot, exchanging marshalled, CRC-checked frames with them over a
// simulated (optionally faulty) medium. Deterministic for a fixed topology
// and Config; honours ctx cancellation.
func RunEmulation(ctx context.Context, stations []Station, cfg EmuConfig) (EmuResult, error) {
	return emu.Run(ctx, stations, cfg)
}

// DrainPlan is a multi-round schedule draining unequal per-client backlogs.
type DrainPlan = sched.DrainPlan

// PlanDrain plans the multi-round drain of the given backlogs; backlogs[i]
// belongs to clients[i]. Its Total equals the simulator's data airtime for
// the same scenario (see the cross-validation tests).
func PlanDrain(clients []SchedClient, backlogs []int, o SchedOptions) (DrainPlan, error) {
	return sched.Drain(context.Background(), clients, backlogs, o)
}

// DownloadClient is one client of the §4.1 enterprise download scenario.
type DownloadClient = mac.DownloadClient

// DownloadResult compares strongest-AP serial delivery against SIC pairing.
type DownloadResult = mac.DownloadResult

// RunDownload simulates the two-APs-to-one-client download strategies end
// to end (the paper's Fig. 8 conclusion: gains are tiny).
func RunDownload(clients []DownloadClient, cfg MACConfig) (DownloadResult, error) {
	return mac.RunDownload(clients, cfg)
}

// GroupSlot is one slot of a grouped (up to 3 concurrent clients) schedule.
type GroupSlot = sched.GroupSlot

// GroupSchedule is the grouped scheduler's output.
type GroupSchedule = sched.GroupSchedule

// GroupsOfUpTo3 plans a drain allowing slots of up to three concurrent
// uploaders decoded by a 3-stage SIC chain — the K-signal generalisation
// the paper leaves as future work. Grouping is greedy by airtime saved.
// Costs are at Shannon capacity; options with a discrete Rate are
// rejected with an error.
func GroupsOfUpTo3(clients []SchedClient, o SchedOptions) (GroupSchedule, error) {
	return sched.GroupsOfUpTo3(clients, o)
}
