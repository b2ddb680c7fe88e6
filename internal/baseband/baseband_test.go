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
	bad := []Config{
		{Mod: Modulation(9), Symbols: 10},
		{Mod: QPSK, Symbols: 0},
		{Mod: QPSK, Symbols: 10, Pilots: -1},
		{Mod: QPSK, Symbols: 10, ClipAmplitude: -1},
	}
	for i, c := range bad {
		if _, err := Run(c); err == nil {
			t.Errorf("bad config %d accepted", i)
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
			if got, want := nearest(y, h, consts), nearestRef(y, h, consts); got != want {
				t.Fatalf("%v: nearest(%v, %v) = %d, reference %d", m, y, h, got, want)
			}
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
