package baseband

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestConstellationEnergy(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16} {
		consts := m.Constellation()
		if len(consts) != 1<<m.BitsPerSymbol() {
			t.Errorf("%v: %d points for %d bits/symbol", m, len(consts), m.BitsPerSymbol())
		}
		var e float64
		for _, c := range consts {
			e += real(c)*real(c) + imag(c)*imag(c)
		}
		e /= float64(len(consts))
		if math.Abs(e-1) > 1e-12 {
			t.Errorf("%v: average energy %v, want 1", m, e)
		}
		// All points distinct.
		for i := range consts {
			for j := i + 1; j < len(consts); j++ {
				if consts[i] == consts[j] {
					t.Errorf("%v: duplicate constellation point %v", m, consts[i])
				}
			}
		}
	}
}

func TestModulationString(t *testing.T) {
	if BPSK.String() != "bpsk" || QPSK.String() != "qpsk" || QAM16.String() != "16qam" {
		t.Error("modulation names wrong")
	}
	if Modulation(9).Constellation() != nil || Modulation(9).BitsPerSymbol() != 0 {
		t.Error("unknown modulation should degrade gracefully")
	}
}

func TestConfigValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Config{
		{Mod: Modulation(9), Symbols: 10},
		{Mod: QPSK, Symbols: 0},
		{Mod: QPSK, Symbols: 10, Pilots: -1},
		{Mod: QPSK, Symbols: 10, ClipAmplitude: -1},
		{Mod: QPSK, Symbols: 10, SNRStrongDB: nan},
		{Mod: QPSK, Symbols: 10, SNRStrongDB: inf},
		{Mod: QPSK, Symbols: 10, SNRStrongDB: -inf},
		{Mod: QPSK, Symbols: 10, SNRWeakDB: nan},
		{Mod: QPSK, Symbols: 10, SNRWeakDB: inf},
		{Mod: QPSK, Symbols: 10, SNRWeakDB: -inf},
		{Mod: QPSK, Symbols: 10, ClipAmplitude: nan},
		{Mod: QPSK, Symbols: 10, CFONormalized: nan},
	}
	for i, c := range bad {
		if _, err := Run(c); err == nil {
			t.Errorf("bad config %d (%+v) accepted", i, c)
		}
		// A bad config fails a Sweep wherever it stands.
		good := Config{Mod: QPSK, SNRStrongDB: 20, SNRWeakDB: 10, Symbols: 10}
		if _, err := Sweep([]Config{good, c}); err == nil {
			t.Errorf("bad config %d accepted as a Sweep's second config", i)
		}
	}
	for _, snr := range []float64{nan, inf, -inf} {
		if _, err := RunSingle(QPSK, snr, 10, 1); err == nil {
			t.Errorf("RunSingle accepted SNR %v dB", snr)
		}
	}
}

// Single-user SER must track the textbook approximation.
func TestSingleUserSERMatchesTheory(t *testing.T) {
	cases := []struct {
		mod   Modulation
		snrDB float64
	}{
		{BPSK, 6}, {BPSK, 9},
		{QPSK, 9}, {QPSK, 12},
		{QAM16, 16}, {QAM16, 18},
	}
	for _, c := range cases {
		ser, err := RunSingle(c.mod, c.snrDB, 400000, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := TheoreticalSER(c.mod, dbToLin(c.snrDB))
		if want < 1e-5 {
			continue // too few expected errors to measure
		}
		if ser < want*0.6 || ser > want*1.6 {
			t.Errorf("%v at %v dB: SER %v vs theory %v", c.mod, c.snrDB, ser, want)
		}
	}
}

// Genie-aided SIC (perfect channel knowledge): the weak decode must be as
// good as interference-free, per the paper's "perfect cancellation"
// assumption — provided the strong decode itself is reliable.
func TestGenieSICMatchesInterferenceFree(t *testing.T) {
	res, err := Run(Config{
		Mod: QPSK, SNRStrongDB: 30, SNRWeakDB: 12,
		Symbols: 200000, Pilots: 0, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SERStrong > 1e-3 {
		t.Fatalf("strong decode unreliable: SER %v", res.SERStrong)
	}
	if res.ResidualBeta != 0 {
		t.Errorf("genie-aided residual beta = %v, want 0", res.ResidualBeta)
	}
	// Weak SER within noise of the alone reference.
	diff := math.Abs(res.SERWeak - res.SERWeakAlone)
	if diff > 0.005 {
		t.Errorf("weak SER %v deviates from interference-free %v", res.SERWeak, res.SERWeakAlone)
	}
}

// Channel estimation error shrinks as pilots grow: beta ∝ 1/Np.
func TestResidualShrinksWithPilots(t *testing.T) {
	var prev float64 = math.Inf(1)
	for _, np := range []int{4, 16, 64, 256} {
		// Average over several seeds to tame estimation noise.
		var sum float64
		const reps = 20
		for s := int64(0); s < reps; s++ {
			res, err := Run(Config{
				Mod: QPSK, SNRStrongDB: 25, SNRWeakDB: 10,
				Symbols: 1000, Pilots: np, Seed: 100 + s,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.ResidualBeta
		}
		avg := sum / reps
		if avg >= prev {
			t.Errorf("residual beta did not shrink: %v pilots → %v (prev %v)", np, avg, prev)
		}
		prev = avg
	}
}

// The measured residual beta should scale like 1/(Np·SNR_strong): the
// estimator error power is noiseVar/Np and beta divides by |h|².
func TestResidualBetaScale(t *testing.T) {
	const np = 32
	var sum float64
	const reps = 200
	for s := int64(0); s < reps; s++ {
		res, err := Run(Config{
			Mod: QPSK, SNRStrongDB: 20, SNRWeakDB: 8,
			Symbols: 100, Pilots: np, Seed: 1000 + s,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.ResidualBeta
	}
	avg := sum / reps
	want := 1.0 / (float64(np) * dbToLin(20))
	if avg < want/3 || avg > want*3 {
		t.Errorf("residual beta %v, want ≈ %v (1/(Np·SNR))", avg, want)
	}
}

// §8's ADC-saturation concern: clipping the front-end at a level sized for
// the strong signal destroys the weak decode when the disparity is large.
func TestClippingHurtsDisparatePairs(t *testing.T) {
	base := Config{
		Mod: QPSK, SNRStrongDB: 40, SNRWeakDB: 10,
		Symbols: 50000, Pilots: 0, Seed: 7,
	}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	clipped := base
	// Clip at roughly half the strong signal's amplitude: severe saturation.
	clipped.ClipAmplitude = math.Sqrt(dbToLin(40)) * 0.5
	sat, err := Run(clipped)
	if err != nil {
		t.Fatal(err)
	}
	if sat.SERWeak <= clean.SERWeak+0.02 {
		t.Errorf("clipping should degrade the weak decode: %v vs %v", sat.SERWeak, clean.SERWeak)
	}
}

// A failed strong decode poisons cancellation: when the strong link's SINR
// is too low for its constellation, the weak SER collapses toward chance.
func TestUndecodableStrongPoisonsWeak(t *testing.T) {
	res, err := Run(Config{
		// Strong barely above the weak: QPSK under ~1.3 dB SINR fails a lot.
		Mod: QPSK, SNRStrongDB: 14, SNRWeakDB: 13,
		Symbols: 50000, Pilots: 0, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SERStrong < 0.05 {
		t.Fatalf("expected an unreliable strong decode, SER %v", res.SERStrong)
	}
	if res.SERWeak < res.SERWeakAlone*2 {
		t.Errorf("cancellation with bad strong decisions should hurt the weak: %v vs alone %v",
			res.SERWeak, res.SERWeakAlone)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Mod: QAM16, SNRStrongDB: 28, SNRWeakDB: 14, Symbols: 5000, Pilots: 16, Seed: 5}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical runs differ: %+v vs %+v", a, b)
	}
}

func TestEstimateChannel(t *testing.T) {
	// Noise-free estimation recovers h exactly.
	h := complex(2, -1)
	x := []complex128{1, -1, complex(0, 1), complex(0.7, 0.7)}
	y := make([]complex128, len(x))
	for i := range x {
		y[i] = h * x[i]
	}
	if got := estimateChannel(y, x); cmplx.Abs(got-h) > 1e-12 {
		t.Errorf("estimateChannel = %v, want %v", got, h)
	}
	if got := estimateChannel(nil, nil); got != 0 {
		t.Errorf("empty estimate = %v, want 0", got)
	}
}

// nearestRef is nearest's definition, computed the slow way: the first
// index minimising |y − h·c| as cmplx.Abs measures it.
func nearestRef(y, h complex128, consts []complex128) int {
	best := 0
	for i, c := range consts {
		if cmplx.Abs(y-h*c) < cmplx.Abs(y-h*consts[best]) {
			best = i
		}
	}
	return best
}

// decideH is decide against the replicas of channel h.
func decideH(y, h complex128, consts []complex128) int {
	var p [maxPoints]complex128
	return decide(y, replicas(&p, h, consts))
}

func TestNearestMatchesAbsReference(t *testing.T) {
	s := math.Sqrt(0.5)
	// Exact ties: the first index must win, as it does in nearestRef.
	// Scaling h by a power of two or by i keeps every distance exact.
	ties := []struct {
		name string
		m    Modulation
		y, h complex128
		want int
	}{
		{"bpsk origin", BPSK, 0, 1, 0},
		{"qpsk origin", QPSK, 0, complex(0, 2), 0},
		{"qpsk edge", QPSK, complex(s, 0), 1, 0}, // (s,s) vs (s,−s)
		{"16qam origin", QAM16, 0, -2, 5},        // the four inner points
	}
	for _, tc := range ties {
		consts := tc.m.Constellation()
		if ref := nearestRef(tc.y, tc.h, consts); ref != tc.want {
			t.Fatalf("%s: reference picks %d, want %d", tc.name, ref, tc.want)
		}
		if got := nearest(tc.y, tc.h, consts); got != tc.want {
			t.Errorf("%s: nearest = %d, want %d", tc.name, got, tc.want)
		}
		if got := decideH(tc.y, tc.h, consts); got != tc.want {
			t.Errorf("%s: decide = %d, want %d", tc.name, got, tc.want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for _, m := range []Modulation{BPSK, QPSK, QAM16} {
		consts := m.Constellation()
		for k := 0; k < 5000; k++ {
			h := randGain(rng, math.Exp(4*rng.NormFloat64()))
			// Half the points are a noisy symbol, half anywhere.
			y := complex(4*rng.NormFloat64(), 4*rng.NormFloat64()) * h
			if k%2 == 0 {
				y = h*consts[rng.Intn(len(consts))] + awgn(rng)
			}
			want := nearestRef(y, h, consts)
			if got := nearest(y, h, consts); got != want {
				t.Fatalf("%v: nearest(%v, %v) = %d, reference %d", m, y, h, got, want)
			}
			if got := decideH(y, h, consts); got != want {
				t.Fatalf("%v: decide(%v, %v) = %d, reference %d", m, y, h, got, want)
			}
		}
	}
}

// A NaN or infinite distance never wins a decision, as it never won
// nearest's float comparison; with no finite distance the first index
// stands.
func TestDecideNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, m := range []Modulation{BPSK, QPSK, QAM16} {
		consts := m.Constellation()
		for _, tc := range []struct{ y, h complex128 }{
			{complex(nan, 0), 1},
			{complex(0, -nan), 1},
			{complex(inf, 0), 1},
			{1, complex(nan, nan)},
			{1, complex(0, inf)},
			{complex(0.3, -0.2), 1},
			{complex(1e300, 1e300), 1e-300},
		} {
			if got, want := decideH(tc.y, tc.h, consts), nearest(tc.y, tc.h, consts); got != want {
				t.Errorf("%v: decide(%v, %v) = %d, nearest %d", m, tc.y, tc.h, got, want)
			}
		}
		// One NaN replica among finite ones loses wherever it stands.
		for bad := range consts {
			var p [maxPoints]complex128
			replicas(&p, 1, consts)
			p[bad] = complex(nan, 0)
			y := consts[bad]
			got := decide(y, p[:len(consts)])
			if got == bad {
				t.Errorf("%v: NaN replica %d won", m, bad)
			}
		}
	}
}

func TestSweepMatchesReference(t *testing.T) {
	snrs := [][2]float64{{8, 2}, {14, 13}, {20, 6}, {30, 12}, {40, 10}}
	const symbols = 1500
	var n int
	for _, mod := range []Modulation{BPSK, QPSK, QAM16} {
		for _, pilots := range []int{0, 1, 4, 64} {
			for _, clipA := range []float64{0, 1.5, 16, 50} {
				for _, cfo := range []float64{0, 1e-4, 0.01} {
					for seed := int64(1); seed <= 3; seed++ {
						cfgs := make([]Config, len(snrs))
						for i, snr := range snrs {
							cfgs[i] = Config{
								Mod: mod, SNRStrongDB: snr[0], SNRWeakDB: snr[1],
								Symbols: symbols, Pilots: pilots,
								ClipAmplitude: clipA, CFONormalized: cfo, Seed: seed,
							}
						}
						got, err := Sweep(cfgs)
						if err != nil {
							t.Fatal(err)
						}
						for i, c := range cfgs {
							want, err := runRef(c)
							if err != nil {
								t.Fatal(err)
							}
							one, err := Run(c)
							if err != nil {
								t.Fatal(err)
							}
							if !sameResult(got[i], want) || !sameResult(one, want) {
								t.Fatalf("%+v:\nSweep     %+v\nRun       %+v\nreference %+v", c, got[i], one, want)
							}
							n++
						}
					}
				}
			}
		}
	}
	if n != 2160 {
		t.Fatalf("compared %d configs, want 2160", n)
	}
}

// sameResult compares every Result field bit for bit.
func sameResult(a, b Result) bool {
	bits := func(r Result) [5]uint64 {
		return [5]uint64{
			math.Float64bits(r.SERStrong), math.Float64bits(r.SERWeak),
			math.Float64bits(r.SERWeakAlone), math.Float64bits(r.ResidualBeta),
			math.Float64bits(r.EstErrStrong),
		}
	}
	return bits(a) == bits(b)
}

func TestRunSingleMatchesReference(t *testing.T) {
	for _, mod := range []Modulation{BPSK, QPSK, QAM16} {
		for _, snr := range []float64{0, 6, 12} {
			got, err := RunSingle(mod, snr, 3000, 9)
			if err != nil {
				t.Fatal(err)
			}
			if want := runSingleRef(mod, snr, 3000, 9); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v at %v dB: RunSingle %v, reference %v", mod, snr, got, want)
			}
		}
	}
}

func TestSweepRejectsMixedConfigs(t *testing.T) {
	if _, err := Sweep(nil); err == nil {
		t.Error("empty Sweep accepted")
	}
	base := Config{Mod: QPSK, SNRStrongDB: 30, SNRWeakDB: 10, Symbols: 100, Pilots: 4, Seed: 1}
	for name, mutate := range map[string]func(*Config){
		"Mod":     func(c *Config) { c.Mod = QAM16 },
		"Symbols": func(c *Config) { c.Symbols = 101 },
		"Pilots":  func(c *Config) { c.Pilots = 5 },
		"Seed":    func(c *Config) { c.Seed = 2 },
	} {
		other := base
		mutate(&other)
		if _, err := Sweep([]Config{base, other}); err == nil {
			t.Errorf("Sweep accepted configs that differ in %s", name)
		}
	}
	// The per-config fields may differ.
	other := base
	other.SNRStrongDB, other.SNRWeakDB, other.ClipAmplitude, other.CFONormalized = 20, 5, 3, 0.01
	if _, err := Sweep([]Config{base, other}); err != nil {
		t.Errorf("Sweep rejected configs that share the draws: %v", err)
	}
}

// The receiver's working set does not grow with the packet: Run allocates
// as often at 100,000 symbols as at 1,000.
func TestRunAllocsIndependentOfSymbols(t *testing.T) {
	for _, pilots := range []int{0, 16} {
		allocs := func(symbols int) float64 {
			cfg := Config{Mod: QPSK, SNRStrongDB: 30, SNRWeakDB: 10, Symbols: symbols, Pilots: pilots, Seed: 1}
			return testing.AllocsPerRun(3, func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(1000), allocs(100000); small != large {
			t.Errorf("pilots %d: %v allocations at 1,000 symbols, %v at 100,000", pilots, small, large)
		}
	}
}

func TestClip(t *testing.T) {
	if got := clip(complex(5, -7), 2); got != complex(2, -2) {
		t.Errorf("clip = %v", got)
	}
	if got := clip(complex(1, 1), 0); got != complex(1, 1) {
		t.Errorf("clip disabled should pass through, got %v", got)
	}
}

func TestTheoreticalSERMonotone(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16} {
		prev := 1.0
		for snrDB := 0.0; snrDB <= 30; snrDB += 2 {
			s := TheoreticalSER(m, dbToLin(snrDB))
			if s > prev+1e-12 {
				t.Errorf("%v: SER not monotone at %v dB", m, snrDB)
			}
			prev = s
		}
	}
	if !math.IsNaN(TheoreticalSER(Modulation(9), 10)) {
		t.Error("unknown modulation should return NaN")
	}
}

// §8's frequency-offset concern: a static channel estimate goes stale as
// the strong carrier drifts, so cancellation degrades with CFO — and longer
// packets suffer more at the same offset.
func TestCFOBreaksCancellation(t *testing.T) {
	base := Config{
		Mod: QPSK, SNRStrongDB: 30, SNRWeakDB: 12,
		Symbols: 20000, Pilots: 0, Seed: 4,
	}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	drifted := base
	drifted.CFONormalized = 1e-4 // 0.01% of the symbol rate
	cfo, err := Run(drifted)
	if err != nil {
		t.Fatal(err)
	}
	if cfo.SERWeak <= clean.SERWeak+0.01 {
		t.Errorf("CFO should degrade the weak decode: %v vs %v", cfo.SERWeak, clean.SERWeak)
	}

	// A short packet at the same CFO barely notices (the drift across the
	// packet is small).
	short := drifted
	short.Symbols = 200
	shortRes, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	if shortRes.SERWeak >= cfo.SERWeak {
		t.Errorf("short packet should suffer less: %v vs %v", shortRes.SERWeak, cfo.SERWeak)
	}
}

func TestCFOValidation(t *testing.T) {
	bad := Config{Mod: QPSK, Symbols: 10, CFONormalized: 0.6}
	if _, err := Run(bad); err == nil {
		t.Error("CFO ≥ 0.5 cycles/symbol accepted")
	}
}

// ---- Reference receiver ----
//
// The receiver as it stood before Sweep fused the configs' symbol loops:
// one config per call, every draw materialised, nearest recomputing h·c
// per decision. TestSweepMatchesReference and
// TestRunSingleMatchesReference compare Sweep, Run and RunSingle with it
// bit for bit.

// randSymbols draws n uniform constellation indices.
func randSymbols(rng *rand.Rand, m Modulation, n int) []int {
	k := len(m.Constellation())
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(k)
	}
	return out
}

// randGain returns a channel coefficient with |h|² = snr and uniform phase.
func randGain(rng *rand.Rand, snr float64) complex128 {
	theta := 2 * math.Pi * rng.Float64()
	return cmplx.Rect(math.Sqrt(snr), theta)
}

// nearest returns the index of the constellation point c minimising
// |y − h·c|, the first such index on an exact tie. It compares squared
// distances, which order the points as the distances do.
func nearest(y, h complex128, consts []complex128) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range consts {
		e := y - h*c
		if d := real(e)*real(e) + imag(e)*imag(e); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// runRef executes the full SIC reception chain.
func runRef(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	consts := cfg.Mod.Constellation()

	hS := randGain(rng, dbToLin(cfg.SNRStrongDB))
	hW := randGain(rng, dbToLin(cfg.SNRWeakDB))

	// ---- Channel estimation (time-orthogonal pilot bursts) ----
	hSest, hWest := hS, hW
	if cfg.Pilots > 0 {
		pilotIdx := randSymbols(rng, cfg.Mod, cfg.Pilots)
		px := make([]complex128, cfg.Pilots)
		ys := make([]complex128, cfg.Pilots)
		yw := make([]complex128, cfg.Pilots)
		for i, s := range pilotIdx {
			px[i] = consts[s]
			ys[i] = clip(hS*px[i]+awgn(rng), cfg.ClipAmplitude)
			yw[i] = clip(hW*px[i]+awgn(rng), cfg.ClipAmplitude)
		}
		hSest = estimateChannel(ys, px)
		hWest = estimateChannel(yw, px)
	}

	// ---- Data phase: superimposed transmission ----
	symS := randSymbols(rng, cfg.Mod, cfg.Symbols)
	symW := randSymbols(rng, cfg.Mod, cfg.Symbols)
	noise := make([]complex128, cfg.Symbols)
	y := make([]complex128, cfg.Symbols)
	rot := cmplx.Rect(1, 2*math.Pi*cfg.CFONormalized)
	hSt := hS
	for i := 0; i < cfg.Symbols; i++ {
		noise[i] = awgn(rng)
		y[i] = clip(hSt*consts[symS[i]]+hW*consts[symW[i]]+noise[i], cfg.ClipAmplitude)
		hSt *= rot // the strong channel drifts; the receiver's estimate does not
	}

	var errStrong, errWeak, errAlone int
	for i := 0; i < cfg.Symbols; i++ {
		// 1. Decode the stronger signal, weak as interference.
		dS := nearest(y[i], hSest, consts)
		if dS != symS[i] {
			errStrong++
		}
		// 2. Reconstruct & subtract with the *estimated* channel.
		resid := y[i] - hSest*consts[dS]
		// 3. Decode the weaker from the residue.
		dW := nearest(resid, hWest, consts)
		if dW != symW[i] {
			errWeak++
		}
		// Reference: weak alone on the same noise (no strong signal at all).
		yAlone := clip(hW*consts[symW[i]]+noise[i], cfg.ClipAmplitude)
		if nearest(yAlone, hWest, consts) != symW[i] {
			errAlone++
		}
	}

	dh := hS - hSest
	res := Result{
		SERStrong:    float64(errStrong) / float64(cfg.Symbols),
		SERWeak:      float64(errWeak) / float64(cfg.Symbols),
		SERWeakAlone: float64(errAlone) / float64(cfg.Symbols),
		EstErrStrong: real(dh)*real(dh) + imag(dh)*imag(dh),
	}
	if p := real(hS)*real(hS) + imag(hS)*imag(hS); p > 0 {
		res.ResidualBeta = res.EstErrStrong / p
	}
	return res, nil
}

// runSingleRef measures the single-user SER of one link at the given SNR.
func runSingleRef(mod Modulation, snrDB float64, symbols int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	consts := mod.Constellation()
	h := randGain(rng, dbToLin(snrDB))
	sym := randSymbols(rng, mod, symbols)
	errs := 0
	for i := 0; i < symbols; i++ {
		y := h*consts[sym[i]] + awgn(rng)
		if nearest(y, h, consts) != sym[i] {
			errs++
		}
	}
	return float64(errs) / float64(symbols)
}

func BenchmarkBasebandRun(b *testing.B) {
	cfg := Config{Mod: QPSK, SNRStrongDB: 30, SNRWeakDB: 12, Symbols: 100000, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBasebandSweep is ext-phy's SER curve: 17 weak SNRs under a
// 30 dB strong signal, 100,000 QPSK symbols each.
func BenchmarkBasebandSweep(b *testing.B) {
	var cfgs []Config
	for db := 5.0; db <= 13; db += 0.5 {
		cfgs = append(cfgs, Config{Mod: QPSK, SNRStrongDB: 30, SNRWeakDB: db, Symbols: 100000, Seed: 78})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(cfgs); err != nil {
			b.Fatal(err)
		}
	}
}
