// Package baseband is a symbol-level simulation of the SIC receiver the
// paper's analysis abstracts over. Where package core reasons in Shannon
// capacities, this package actually superimposes two modulated signals,
// estimates channels from pilots, decodes the stronger signal, remodulates
// and subtracts it, and decodes the weaker one from the residue — exactly
// the §2.1 procedure, including the practical imperfections §8 warns about:
//
//   - channel-estimation error turns into residual interference after
//     cancellation (the mac package's Residual knob, now derived rather
//     than assumed),
//   - ADC clipping makes very disparate signal pairs hard, because the
//     weak signal drowns in quantisation of the strong one.
//
// Everything is complex-baseband with unit-variance complex AWGN; a link of
// SNR s has |h|² = s.
package baseband

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// Modulation selects a constellation.
type Modulation int

const (
	// BPSK: 1 bit/symbol.
	BPSK Modulation = iota
	// QPSK: 2 bits/symbol.
	QPSK
	// QAM16: 4 bits/symbol.
	QAM16
)

// String implements fmt.Stringer.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "bpsk"
	case QPSK:
		return "qpsk"
	case QAM16:
		return "16qam"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// Constellation returns the unit-average-energy symbol set.
func (m Modulation) Constellation() []complex128 {
	switch m {
	case BPSK:
		return []complex128{-1, 1}
	case QPSK:
		s := math.Sqrt(0.5)
		return []complex128{
			complex(s, s), complex(s, -s), complex(-s, s), complex(-s, -s),
		}
	case QAM16:
		// 16-QAM levels ±1, ±3 normalised to unit average energy (E=10).
		n := math.Sqrt(10)
		var out []complex128
		for _, re := range []float64{-3, -1, 1, 3} {
			for _, im := range []float64{-3, -1, 1, 3} {
				out = append(out, complex(re/n, im/n))
			}
		}
		return out
	}
	return nil
}

// BitsPerSymbol returns log2 of the constellation size.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	}
	return 0
}

// randSymbols draws n uniform constellation indices.
func randSymbols(rng *rand.Rand, m Modulation, n int) []int {
	k := len(m.Constellation())
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(k)
	}
	return out
}

// awgn returns one sample of unit-variance complex Gaussian noise
// (variance 1/2 per real dimension).
func awgn(rng *rand.Rand) complex128 {
	s := math.Sqrt(0.5)
	return complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
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

// Config drives a pairwise SIC simulation.
type Config struct {
	// Mod is the constellation used by both transmitters.
	Mod Modulation
	// SNRStrongDB and SNRWeakDB are the two links' SNRs in dB.
	SNRStrongDB, SNRWeakDB float64
	// Symbols is the number of data symbols per transmitter.
	Symbols int
	// Pilots is the number of known pilot symbols per transmitter used for
	// channel estimation. 0 means the receiver is handed the true channels
	// (genie-aided, the paper's "perfect cancellation").
	Pilots int
	// ClipAmplitude, if positive, saturates the receiver front-end: each
	// received sample's real and imaginary parts are clamped to ±Clip.
	// Models the §8 ADC-saturation concern. 0 disables clipping.
	ClipAmplitude float64
	// CFONormalized is the residual carrier-frequency offset of the strong
	// transmitter in cycles per symbol. The receiver's channel estimate is
	// taken once (from pilots or the genie) and goes stale as the phase
	// drifts across the packet — the paper's §8 "frequency offset" concern:
	// cancellation error grows with symbol index.
	CFONormalized float64
	// Seed drives all randomness.
	Seed int64
}

func (c Config) validate() error {
	if c.Mod.BitsPerSymbol() == 0 {
		return errors.New("baseband: unknown modulation")
	}
	if c.Symbols <= 0 {
		return errors.New("baseband: Symbols must be positive")
	}
	if c.Pilots < 0 {
		return errors.New("baseband: Pilots must be non-negative")
	}
	if c.ClipAmplitude < 0 {
		return errors.New("baseband: ClipAmplitude must be non-negative")
	}
	if math.Abs(c.CFONormalized) >= 0.5 {
		return errors.New("baseband: |CFONormalized| must be below 0.5 cycles/symbol")
	}
	return nil
}

// Result reports a pairwise SIC run.
type Result struct {
	// SERStrong and SERWeak are symbol error rates of the two decodes.
	SERStrong, SERWeak float64
	// SERWeakAlone is the weak link's SER with the strong transmitter
	// silent — the interference-free reference.
	SERWeakAlone float64
	// ResidualBeta is the measured residual-interference fraction after
	// cancellation: |h−ĥ|²/|h|² averaged over the strong channel estimate.
	// This is the quantity the mac package's Residual knob abstracts.
	ResidualBeta float64
	// EstErrStrong is |h−ĥ|² for the strong channel (absolute).
	EstErrStrong float64
}

// clip saturates a sample.
func clip(y complex128, a float64) complex128 {
	if a <= 0 {
		return y
	}
	re, im := real(y), imag(y)
	if re > a {
		re = a
	}
	if re < -a {
		re = -a
	}
	if im > a {
		im = a
	}
	if im < -a {
		im = -a
	}
	return complex(re, im)
}

// estimateChannel least-squares-estimates h from pilot observations
// y = h·x + n with known unit-ish energy pilots x.
func estimateChannel(y, x []complex128) complex128 {
	var num complex128
	var den float64
	for i := range y {
		num += y[i] * cmplx.Conj(x[i])
		den += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	if den == 0 {
		return 0
	}
	return num / complex(den, 0)
}

// Run executes the full SIC reception chain.
func Run(cfg Config) (Result, error) {
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

// RunSingle measures the single-user SER of one link at the given SNR —
// the calibration point for theory comparisons.
func RunSingle(mod Modulation, snrDB float64, symbols int, seed int64) (float64, error) {
	cfg := Config{Mod: mod, SNRStrongDB: snrDB, SNRWeakDB: snrDB, Symbols: symbols, Seed: seed}
	if err := cfg.validate(); err != nil {
		return 0, err
	}
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
	return float64(errs) / float64(symbols), nil
}

// TheoreticalSER returns the textbook symbol-error-rate approximation for
// the modulation at a given linear SNR (per symbol, unit-variance complex
// noise).
func TheoreticalSER(mod Modulation, snr float64) float64 {
	switch mod {
	case BPSK:
		// BPSK over complex noise: SER = Q(sqrt(2·SNR)).
		return qfunc(math.Sqrt(2 * snr))
	case QPSK:
		p := qfunc(math.Sqrt(snr))
		return 2*p - p*p
	case QAM16:
		// Per-axis 4-PAM error: 2(1−1/√M)·Q(√(3·SNR/(M−1))) with M=16.
		p := 1.5 * qfunc(math.Sqrt(snr/5))
		return 1 - (1-p)*(1-p)
	}
	return math.NaN()
}

// qfunc is the Gaussian tail probability Q(x).
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

func dbToLin(db float64) float64 { return math.Pow(10, db/10) }
