package mc

import (
	"math/rand"
	"sync"
)

// math/rand's generator is Mitchell and Reeds' additive lagged Fibonacci
// generator: rngLen words of state, tap rngTap. Its Seed fills the state
// from a Park–Miller LCG x ← lcgMul·x mod lcgMod: it discards lcgSkip
// steps, then packs three LCG values into each word and XORs in a fixed
// "cooked" table.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	lcgSkip = 20
	// lcgZeroSeed is what math/rand's Seed substitutes for a seed ≡ 0.
	lcgZeroSeed = 89482311
)

// trialSource is a rand.Source64 that emits exactly the stream of
// rand.NewSource(seed), but whose Seed costs O(1) instead of math/rand's
// 1,841 sequential LCG steps. State word i depends only on x₀ (the
// normalised seed), through x₀·48271ⁿ mod (2³¹−1) for n = 21+3i .. 23+3i,
// so each word is built the first time the generator reads it. A trial
// that draws a handful of variates builds a handful of words.
//
// stamp[i] == gen marks vec[i] as built for the current seed; Seed bumps
// gen instead of clearing vec, and clears stamp only when gen wraps.
type trialSource struct {
	tab       *seedTables
	x0        uint64
	tap, feed int
	gen       uint32
	stamp     [rngLen]uint32
	vec       [rngLen]int64
}

func newTrialSource(seed int64) *trialSource {
	s := &trialSource{tab: loadSeedTables()}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source with math/rand's seed normalisation.
func (s *trialSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZeroSeed
	}
	s.x0 = uint64(seed)
	s.gen++
	if s.gen == 0 {
		s.stamp = [rngLen]uint32{}
		s.gen = 1
	}
}

// word returns state word i, building it on first read for this seed.
func (s *trialSource) word(i int) int64 {
	if s.stamp[i] != s.gen {
		s.stamp[i] = s.gen
		s.vec[i] = lcgWord(s.x0, &s.tab.pow[i]) ^ s.tab.cooked[i]
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64: math/rand's tap/feed step.
func (s *trialSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *trialSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// lcgWord packs the three LCG values x₀·pow[k] mod (2³¹−1) of one state
// word the way math/rand's Seed does: shifted by 40, 20 and 0 bits and
// XORed, the high bits of the first falling off the top.
func lcgWord(x0 uint64, pow *[3]uint64) int64 {
	return int64((x0*pow[0]%lcgMod)<<40 ^ (x0*pow[1]%lcgMod)<<20 ^ x0*pow[2]%lcgMod)
}

// seedTables holds, per state word i, the LCG multipliers
// 48271^(21+3i+k) mod (2³¹−1) for k = 0..2 and math/rand's cooked mask.
type seedTables struct {
	pow    [rngLen][3]uint64
	cooked [rngLen]int64
}

// loadSeedTables derives the tables once, on first use, so a process that
// never runs a sweep pays nothing for them.
var loadSeedTables = sync.OnceValue(deriveSeedTables)

// deriveSeedTables computes the power table directly and recovers the
// cooked table from the standard library's own stream rather than copying
// math/rand's constants. Index the seeded state as x[j] = word (333−j) mod
// 607; then the generator's outputs are x[607], x[608], … of the
// recurrence x[n] = x[n−607] + x[n−273] (mod 2⁶⁴). So the first 607
// outputs of rand.NewSource(1), run backwards through the recurrence,
// give seed 1's state, and XORing off seed 1's LCG words (x₀ = 1, so the
// LCG values are the powers themselves) leaves the cooked table.
func deriveSeedTables() *seedTables {
	t := new(seedTables)
	p := uint64(1)
	for n := 1; n <= lcgSkip+3*rngLen; n++ {
		p = p * lcgMul % lcgMod
		if k := n - lcgSkip - 1; k >= 0 {
			t.pow[k/3][k%3] = p
		}
	}
	src := rand.NewSource(1).(rand.Source64)
	var x [2 * rngLen]int64
	for n := rngLen; n < len(x); n++ {
		x[n] = int64(src.Uint64())
	}
	for n := len(x) - 1; n >= rngLen; n-- {
		x[n-rngLen] = x[n] - x[n-rngTap]
	}
	for j := 0; j < rngLen; j++ {
		i := (rngLen - rngTap - 1 - j + rngLen) % rngLen
		t.cooked[i] = x[j] ^ lcgWord(1, &t.pow[i])
	}
	return t
}
