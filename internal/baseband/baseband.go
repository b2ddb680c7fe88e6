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

// maxPoints is the largest constellation's size (16-QAM).
const maxPoints = 16

// infBits is math.Float64bits(math.Inf(1)), the starting bound of decide.
const infBits uint64 = 0x7ff0_0000_0000_0000

// randPhase draws a uniform channel phase.
func randPhase(rng *rand.Rand) float64 {
	return 2 * math.Pi * rng.Float64()
}

// drawSymbols draws n uniform indices into a constellation of k points.
func drawSymbols(rng *rand.Rand, k, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(k))
	}
	return out
}

// awgn returns one sample of unit-variance complex Gaussian noise
// (variance 1/2 per real dimension).
func awgn(rng *rand.Rand) complex128 {
	s := math.Sqrt(0.5)
	return complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
}

// replicas stores h·c for every constellation point c, the products a
// decision compares a received sample against.
func replicas(dst *[maxPoints]complex128, h complex128, consts []complex128) []complex128 {
	for i, c := range consts {
		dst[i] = h * c
	}
	return dst[:len(consts)]
}

// decide returns the index i minimising |y − p[i]|, the first such index
// on an exact tie. With p[i] = h·c it is the maximum-likelihood decision
// for the constellation point c.
//
// It compares the squared distances' bit patterns as uint64: on the
// non-negative floats a sum of squares can be, from +0 to +Inf, they
// order as the floats do, and every NaN pattern lies above the starting
// bound +Inf, so a NaN never wins. Where the returned index only feeds
// comparisons, the compiler turns each comparison into a conditional move
// instead of a data-dependent branch; where it addresses a load, Go keeps
// the branch.
func decide(y complex128, p []complex128) int {
	best, bestD := 0, infBits
	for i, c := range p {
		if d := sqDistBits(y, c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// sqDistBits returns the bits of |y − c|².
func sqDistBits(y, c complex128) uint64 {
	e := y - c
	return math.Float64bits(real(e)*real(e) + imag(e)*imag(e))
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
	if math.IsNaN(c.SNRStrongDB) || math.IsInf(c.SNRStrongDB, 0) ||
		math.IsNaN(c.SNRWeakDB) || math.IsInf(c.SNRWeakDB, 0) {
		return errors.New("baseband: SNRStrongDB and SNRWeakDB must be finite")
	}
	// The negated comparisons reject NaN as well.
	if !(c.ClipAmplitude >= 0) {
		return errors.New("baseband: ClipAmplitude must be non-negative")
	}
	if !(math.Abs(c.CFONormalized) < 0.5) {
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

// Run executes the full SIC reception chain. It is a one-config Sweep.
func Run(cfg Config) (Result, error) {
	res, err := Sweep([]Config{cfg})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// Sweep runs the SIC reception chain once per config over one shared set
// of draws, returning the results in config order. The configs must agree
// in Mod, Symbols, Pilots and Seed, the only fields the draws depend on;
// they may differ in SNRStrongDB, SNRWeakDB, ClipAmplitude and
// CFONormalized. Each result equals that of a Sweep of its config alone.
//
// The draws come from rand.NewSource(Seed) in this order: the strong and
// the weak channel phase; Pilots pilot indices; per pilot, the strong then
// the weak transmitter's pilot noise; Symbols strong data indices;
// Symbols weak data indices; then one noise sample per symbol, each drawn
// in the iteration that decodes it.
func Sweep(cfgs []Config) ([]Result, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("baseband: Sweep needs at least one config")
	}
	first := cfgs[0]
	for i, c := range cfgs {
		if err := c.validate(); err != nil {
			return nil, err
		}
		if c.Mod != first.Mod || c.Symbols != first.Symbols || c.Pilots != first.Pilots || c.Seed != first.Seed {
			return nil, fmt.Errorf("baseband: Sweep config %d differs from config 0 in Mod, Symbols, Pilots or Seed", i)
		}
	}
	rng := rand.New(rand.NewSource(first.Seed))
	consts := first.Mod.Constellation()
	k := len(consts)

	thetaS, thetaW := randPhase(rng), randPhase(rng)

	// ---- Channel estimation (time-orthogonal pilot bursts) ----
	var px, pilotNoise, ys, yw []complex128
	if first.Pilots > 0 {
		pilotIdx := drawSymbols(rng, k, first.Pilots)
		px = make([]complex128, first.Pilots)
		pilotNoise = make([]complex128, 2*first.Pilots)
		for i, s := range pilotIdx {
			px[i] = consts[s]
			pilotNoise[2*i] = awgn(rng)
			pilotNoise[2*i+1] = awgn(rng)
		}
		ys = make([]complex128, first.Pilots)
		yw = make([]complex128, first.Pilots)
	}

	rxs := make([]receiver, len(cfgs))
	for j, c := range cfgs {
		hS := cmplx.Rect(math.Sqrt(dbToLin(c.SNRStrongDB)), thetaS)
		hW := cmplx.Rect(math.Sqrt(dbToLin(c.SNRWeakDB)), thetaW)
		hSest, hWest := hS, hW
		if len(px) > 0 {
			for i, x := range px {
				ys[i] = clip(hS*x+pilotNoise[2*i], c.ClipAmplitude)
				yw[i] = clip(hW*x+pilotNoise[2*i+1], c.ClipAmplitude)
			}
			hSest = estimateChannel(ys, px)
			hWest = estimateChannel(yw, px)
		}
		r := &rxs[j]
		*r = receiver{
			hS: hS, hSest: hSest, hSt: hS,
			rot:  cmplx.Rect(1, 2*math.Pi*c.CFONormalized),
			clip: c.ClipAmplitude,
			k:    k,
		}
		replicas(&r.txW, hW, consts)
		replicas(&r.estS, hSest, consts)
		replicas(&r.estW, hWest, consts)
	}

	// ---- Data phase: superimposed transmission, decoded as it arrives ----
	symS := drawSymbols(rng, k, first.Symbols)
	symW := drawSymbols(rng, k, first.Symbols)
	for i := range symS {
		noise := awgn(rng)
		s, w := symS[i], symW[i]
		for j := range rxs {
			rxs[j].decode(consts[s], s, w, noise)
		}
	}

	out := make([]Result, len(rxs))
	for j := range rxs {
		out[j] = rxs[j].result(first.Symbols)
	}
	return out, nil
}

// receiver is one config's decoder state within a Sweep.
type receiver struct {
	hS, hSest complex128
	// hSt is the strong channel at the current symbol; it turns by rot
	// each symbol while the receiver's estimate stays put.
	hSt, rot complex128
	clip     float64
	// txW holds hW·c, the weak transmitter's contribution per symbol;
	// estS and estW hold ĥS·c and ĥW·c, the receiver's replicas.
	txW, estS, estW    [maxPoints]complex128
	k                  int
	errS, errW, errAln int
}

// decode receives one superimposed symbol: strong point cs (index s) and
// weak index w under noise n.
func (r *receiver) decode(cs complex128, s, w uint8, n complex128) {
	txW := r.txW[w]
	y := clip(r.hSt*cs+txW+n, r.clip)
	r.hSt *= r.rot // the strong channel drifts; the receiver's estimate does not
	// The reference: the weak signal alone on the same noise.
	yAlone := clip(txW+n, r.clip)
	// Decode the stronger signal, weak as interference; subtract its
	// replica and decode the weaker from the residue.
	estS, estW := r.estS[:r.k], r.estW[:r.k]
	dS := decide(y, estS)
	dW := decide(y-estS[dS], estW)
	dA := decide(yAlone, estW)
	if dS != int(s) {
		r.errS++
	}
	if dW != int(w) {
		r.errW++
	}
	if dA != int(w) {
		r.errAln++
	}
}

// result turns the error counts and the channel estimate into a Result.
func (r *receiver) result(symbols int) Result {
	dh := r.hS - r.hSest
	res := Result{
		SERStrong:    float64(r.errS) / float64(symbols),
		SERWeak:      float64(r.errW) / float64(symbols),
		SERWeakAlone: float64(r.errAln) / float64(symbols),
		EstErrStrong: real(dh)*real(dh) + imag(dh)*imag(dh),
	}
	if p := real(r.hS)*real(r.hS) + imag(r.hS)*imag(r.hS); p > 0 {
		res.ResidualBeta = res.EstErrStrong / p
	}
	return res
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
	h := cmplx.Rect(math.Sqrt(dbToLin(snrDB)), randPhase(rng))
	var est [maxPoints]complex128
	p := replicas(&est, h, consts)
	errs := 0
	for _, s := range drawSymbols(rng, len(consts), symbols) {
		if decide(h*consts[s]+awgn(rng), p) != int(s) {
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
