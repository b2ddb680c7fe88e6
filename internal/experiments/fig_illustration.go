package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/plot"
	"repro/internal/sched"
)

// Fig10 regenerates the paper's Fig. 10 worked illustration: four clients
// whose solo airtimes follow the 1:2:4:8 pattern, drained (a) serially,
// (b-d) under the three possible pairings with SIC, (e) with power control
// on the best pairing, and (f) with multirate packetization.
//
// The paper stresses its unit numbers are "not precise and meant for
// illustration only"; this driver derives everything from the model and
// verifies the qualitative ordering the paper draws from the picture.
func Fig10(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Choose SNRs whose solo spectral efficiencies are 8,4,2,1 bit/s/Hz so
	// airtimes are proportional to 1,2,4,8.
	effs := []float64{8, 4, 2, 1}
	snrs := make([]float64, len(effs))
	names := []string{"C1", "C2", "C3", "C4"}
	for i, e := range effs {
		snrs[i] = math.Exp2(e) - 1
	}
	unit := p.PacketBits / (8 * p.Channel.BandwidthHz) // airtime of C1 = 1 unit

	soloT := func(i int) float64 {
		return p.PacketBits / p.Channel.Capacity(snrs[i]) / unit
	}
	pairT := func(i, j int) float64 {
		pr := core.Pair{S1: snrs[i], S2: snrs[j]}
		return math.Min(pr.SICTime(p.Channel, p.PacketBits), pr.SerialTime(p.Channel, p.PacketBits)) / unit
	}
	pairPC := func(i, j int) float64 {
		pr := core.Pair{S1: snrs[i], S2: snrs[j]}
		return math.Min(pr.SICTimeWithPowerControl(p.Channel, p.PacketBits), pr.SerialTime(p.Channel, p.PacketBits)) / unit
	}
	pairMR := func(i, j int) float64 {
		pr := core.Pair{S1: snrs[i], S2: snrs[j]}
		return math.Min(pr.MultirateTime(p.Channel, p.PacketBits), pr.SerialTime(p.Channel, p.PacketBits)) / unit
	}

	serial := soloT(0) + soloT(1) + soloT(2) + soloT(3)
	pairings := []struct {
		label string
		a     [2]int
		b     [2]int
	}{
		{"(C1|C2, C3|C4)", [2]int{0, 1}, [2]int{2, 3}},
		{"(C1|C3, C2|C4)", [2]int{0, 2}, [2]int{1, 3}},
		{"(C1|C4, C2|C3)", [2]int{0, 3}, [2]int{1, 2}},
	}
	totals := make([]float64, len(pairings))
	var text strings.Builder
	fmt.Fprintf(&text, "Fig. 10 — pairing illustration (airtimes in units of C1's solo time)\n")
	fmt.Fprintf(&text, "  solo airtimes: %s=%.3g %s=%.3g %s=%.3g %s=%.3g  (serial total %.4g)\n",
		names[0], soloT(0), names[1], soloT(1), names[2], soloT(2), names[3], soloT(3), serial)
	for i, pg := range pairings {
		totals[i] = pairT(pg.a[0], pg.a[1]) + pairT(pg.b[0], pg.b[1])
		fmt.Fprintf(&text, "  pairing %-16s total %.4g\n", pg.label, totals[i])
	}
	bestIdx := 0
	for i := range totals {
		if totals[i] < totals[bestIdx] {
			bestIdx = i
		}
	}
	pcTotal := pairPC(pairings[bestIdx].a[0], pairings[bestIdx].a[1]) + pairPC(pairings[bestIdx].b[0], pairings[bestIdx].b[1])
	mrTotal := pairMR(pairings[bestIdx].a[0], pairings[bestIdx].a[1]) + pairMR(pairings[bestIdx].b[0], pairings[bestIdx].b[1])
	fmt.Fprintf(&text, "  best pairing %s + power control: %.4g\n", pairings[bestIdx].label, pcTotal)
	fmt.Fprintf(&text, "  best pairing %s + multirate:     %.4g\n", pairings[bestIdx].label, mrTotal)

	// Cross-check with the scheduler: its optimal matching must equal the
	// best enumerated pairing.
	clients := make([]sched.Client, 4)
	for i := range clients {
		clients[i] = sched.Client{ID: names[i], SNR: snrs[i]}
	}
	s, err := sched.New(ctx, clients, sched.Options{Channel: p.Channel, PacketBits: p.PacketBits})
	if err != nil {
		return Result{}, err
	}
	schedTotal := s.Total / (unit)
	fmt.Fprintf(&text, "  scheduler (optimal matching):    %.4g\n", schedTotal)

	// Render the two timelines the paper draws: serial upload and the
	// scheduler's pairing, as a Gantt SVG.
	var bars []plot.GanttBar
	cursor := 0.0
	for i := range names {
		t := soloT(i)
		bars = append(bars, plot.GanttBar{
			Row: "serial/" + names[i], Start: cursor, End: cursor + t,
			Label: names[i], Kind: "serial",
		})
		cursor += t
	}
	cursor = 0
	for _, sl := range s.Slots {
		t := sl.Time / unit
		kind := "sic"
		switch sl.Mode {
		case sched.ModeSolo:
			kind = "solo"
		case sched.ModeSerial:
			kind = "serial"
		}
		bars = append(bars, plot.GanttBar{
			Row: "paired/" + names[sl.A], Start: cursor, End: cursor + t,
			Label: names[sl.A], Kind: kind,
		})
		if sl.B >= 0 {
			bars = append(bars, plot.GanttBar{
				Row: "paired/" + names[sl.B], Start: cursor, End: cursor + t,
				Label: names[sl.B], Kind: kind,
			})
		}
		cursor += t
	}
	ganttSVG := plot.GanttSVG("Fig. 10 — serial upload vs SIC pairing (time units of C1's airtime)", bars)

	r := Result{
		ID:    "fig10",
		Title: "Pairing / power control / multirate illustration",
		Files: map[string]string{"fig10.svg": ganttSVG},
		Metrics: map[string]float64{
			"serial_total_units":  serial,
			"pairing_12_34_units": totals[0],
			"pairing_13_24_units": totals[1],
			"pairing_14_23_units": totals[2],
			"best_pairing_index":  float64(bestIdx),
			"power_control_units": pcTotal,
			"multirate_units":     mrTotal,
			"scheduler_units":     schedTotal,
			"snr_c1_db":           phy.DB(snrs[0]),
		},
	}
	r.Text = text.String() + r.MetricsBlock()

	// Qualitative checks the paper draws from the picture.
	if !(totals[bestIdx] < serial) {
		return Result{}, fmt.Errorf("fig10: best pairing %.4g did not beat serial %.4g", totals[bestIdx], serial)
	}
	if pcTotal > totals[bestIdx]+1e-9 {
		return Result{}, fmt.Errorf("fig10: power control %.4g worse than plain pairing %.4g", pcTotal, totals[bestIdx])
	}
	if mrTotal > totals[bestIdx]+1e-9 {
		return Result{}, fmt.Errorf("fig10: multirate %.4g worse than plain pairing %.4g", mrTotal, totals[bestIdx])
	}
	if math.Abs(schedTotal-totals[bestIdx]) > 1e-6*totals[bestIdx] {
		return Result{}, fmt.Errorf("fig10: scheduler total %.6g != best enumerated pairing %.6g", schedTotal, totals[bestIdx])
	}
	return r, nil
}
