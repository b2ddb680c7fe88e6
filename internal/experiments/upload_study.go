package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/trace"
)

// uploadVariants are Fig. 13's three scheduler configurations, in the
// figure's series order.
var uploadVariants = [...]struct {
	name                    string
	powerControl, multirate bool
}{
	{"SIC pairing", false, false},
	{"SIC+power-control", true, false},
	{"SIC+multirate", false, true},
}

const (
	variantPairing      = 0 // uploadVariants index of plain SIC pairing
	variantPowerControl = 1 // uploadVariants index of SIC+power-control
)

// variantOptions is the scheduler configuration of uploadVariants[v].
func variantOptions(p Params, v int) sched.Options {
	return sched.Options{
		Channel:      p.Channel,
		PacketBits:   p.PacketBits,
		PowerControl: uploadVariants[v].powerControl,
		Multirate:    uploadVariants[v].multirate,
	}
}

// uploadSnap is one usable snapshot of the synthetic upload trace.
type uploadSnap struct {
	ap      string
	unix    int64
	clients []sched.Client
}

// solveTotals is what the drivers read of one optimal solve: its drain
// time and the serial baseline. The slots are not kept.
type solveTotals struct {
	total, serial float64
}

// gain is sched.Schedule.Gain of the solve.
func (t solveTotals) gain() float64 {
	return sched.Schedule{Total: t.total, SerialBaseline: t.serial}.Gain()
}

// uploadStudy is Fig. 13's trace study, shared by Fig13, ExtTriples and
// AblationGreedy: the clients of every snapshot with at least two
// clients and usable SNRs, and each variant's optimal solve of every such
// snapshot. A variant is solved on first use. The clients are shared and
// must be treated as read-only.
type uploadStudy struct {
	p     Params
	snaps []uploadSnap

	mu     sync.Mutex
	solved [len(uploadVariants)][]solveTotals // nil until solved
}

// newUploadStudy generates the upload trace under p and keeps Fig. 13's
// usable snapshots.
func newUploadStudy(p Params) (*uploadStudy, error) {
	cfg := trace.DefaultGenConfig(p.Seed)
	cfg.Days = p.TraceDays
	raw, err := trace.GenerateUpload(cfg)
	if err != nil {
		return nil, err
	}
	st := &uploadStudy{p: p}
	for _, snap := range raw {
		if len(snap.Clients) < 2 {
			continue
		}
		clients := make([]sched.Client, len(snap.Clients))
		usable := true
		for i, c := range snap.Clients {
			snr := phy.FromDB(c.SNRdB)
			if !(snr > 0) {
				usable = false
				break
			}
			clients[i] = sched.Client{ID: c.ID, SNR: snr}
		}
		if usable {
			st.snaps = append(st.snaps, uploadSnap{ap: snap.AP, unix: snap.Unix, clients: clients})
		}
	}
	return st, nil
}

// totals returns variant v's solve of every snapshot, in snapshot order,
// solving the variant on first use. A cancelled or failed solve keeps
// nothing, so the next caller solves again.
func (st *uploadStudy) totals(ctx context.Context, v int) ([]solveTotals, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.solved[v] != nil {
		return st.solved[v], nil
	}
	opts := variantOptions(st.p, v)
	out := make([]solveTotals, len(st.snaps))
	for i, s := range st.snaps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sch, err := sched.New(ctx, s.clients, opts)
		if err != nil {
			return nil, fmt.Errorf("snapshot %s@%d: %w", s.ap, s.unix, err)
		}
		out[i] = solveTotals{total: sch.Total, serial: sch.SerialBaseline}
	}
	st.solved[v] = out
	return out, nil
}

// suiteMemo holds the upload studies of one suite run.
type suiteMemo struct {
	mu      sync.Mutex
	studies map[studyKey]*uploadStudy
}

// studyKey is every Params field an upload study reads, so runs at other
// seeds (the runner's -seeds spread) get studies of their own.
type studyKey struct {
	seed       int64
	traceDays  int
	packetBits float64
	channel    phy.Channel
}

type suiteMemoKey struct{}

// WithSuiteMemo returns a child of ctx under which the drivers that read
// the upload trace study (Fig13, ExtTriples, AblationGreedy) compute it
// once per Params and share it. The memo lives as long as the returned
// context: runner.Run makes one per suite. A driver whose ctx carries no
// memo computes the study itself.
func WithSuiteMemo(ctx context.Context) context.Context {
	return context.WithValue(ctx, suiteMemoKey{}, &suiteMemo{studies: map[studyKey]*uploadStudy{}})
}

// studyFor returns the upload study for p: the suite memo's, when ctx
// carries one, else a fresh one.
func studyFor(ctx context.Context, p Params) (*uploadStudy, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, _ := ctx.Value(suiteMemoKey{}).(*suiteMemo)
	if m == nil {
		return newUploadStudy(p)
	}
	k := studyKey{seed: p.Seed, traceDays: p.TraceDays, packetBits: p.PacketBits, channel: p.Channel}
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.studies[k]; st != nil {
		return st, nil
	}
	st, err := newUploadStudy(p)
	if err != nil {
		return nil, err
	}
	m.studies[k] = st
	return st, nil
}
