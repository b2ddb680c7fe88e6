// Package matching implements Edmonds' blossom algorithm for weighted
// matching on general graphs — the combinatorial engine behind the paper's
// SIC-aware scheduler (§6), which reduces client pairing to minimum-weight
// perfect matching.
//
// The implementation is the classic O(n³) primal-dual formulation with
// integer dual variables over a dense weight matrix. A bitmask-DP exact
// matcher (ExactMinCostPerfect) is provided for small instances; the test
// suite cross-checks the blossom algorithm against it on thousands of
// random graphs.
package matching

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Unmatched marks a vertex left unmatched in a matching result.
const Unmatched = -1

// ErrOddVertexCount is returned when a perfect matching is requested on an
// odd number of vertices.
var ErrOddVertexCount = errors.New("matching: perfect matching requires an even number of vertices")

// ErrNegativeCost is returned for cost matrices containing negative entries.
var ErrNegativeCost = errors.New("matching: costs must be non-negative")

// ErrAsymmetric is returned for weight/cost matrices that are not symmetric.
var ErrAsymmetric = errors.New("matching: weight matrix must be symmetric")

// ErrWeightTooLarge is returned for weights so large the solver's integer
// dual arithmetic could overflow. The bound depends on the vertex count; it
// is astronomically beyond any airtime the scheduler produces.
var ErrWeightTooLarge = errors.New("matching: weight too large for overflow-free duals")

// validateSquareSymmetric checks the matrix shape shared by all entry points.
func validateSquareSymmetric(w [][]int64) error {
	n := len(w)
	for i, row := range w {
		if len(row) != n {
			return fmt.Errorf("matching: row %d has length %d, want %d", i, len(row), n)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w[i][j] != w[j][i] {
				return ErrAsymmetric
			}
		}
	}
	return nil
}

// maxSafeWeight bounds individual edge weights so that dual variables —
// which stay within a small multiple of the largest weight and are doubled
// inside eDelta — can never overflow int64 during a solve on n vertices.
func maxSafeWeight(n int) int64 {
	return math.MaxInt64 / int64(4*(n+2))
}

// MinCostPerfect computes a minimum-cost perfect matching of the complete
// graph on len(cost) vertices with the given symmetric non-negative cost
// matrix (diagonal ignored). The SIC scheduler uses this directly: vertices
// are backlogged clients plus an optional dummy, edge costs are joint
// transmission times. When ctx is cancelled or its deadline passes
// mid-solve, the solver abandons the instance within a bounded amount of
// work and returns ctx.Err(); the scheduling daemon's degradation ladder
// relies on this to bound the time a pathological instance can hold the
// serving loop. It is a thin facade over Solver: one-shot callers get
// exactly the cold path that reusable callers exercise, so every test of
// this function covers the engine too.
func MinCostPerfect(ctx context.Context, cost [][]int64) (mate []int, total int64, err error) {
	if err := validateSquareSymmetric(cost); err != nil {
		return nil, 0, err
	}
	n := len(cost)
	var s Solver
	if err := s.Reset(n); err != nil {
		return nil, 0, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if cost[i][j] < 0 {
				return nil, 0, ErrNegativeCost
			}
			if i < j {
				if err := s.SetCost(i, j, cost[i][j]); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	total, err = s.Solve(ctx)
	if err != nil {
		return nil, 0, err
	}
	mate = make([]int, n)
	copy(mate, s.Mates())
	return mate, total, nil
}

// ExactMinCostPerfect solves minimum-cost perfect matching by dynamic
// programming over vertex subsets: exact, O(2ⁿ·n) time, usable up to
// roughly n = 22. It exists to cross-validate the blossom algorithm and to
// serve as a drop-in oracle in tests and ablations.
func ExactMinCostPerfect(cost [][]int64) (mate []int, total int64, err error) {
	if err := validateSquareSymmetric(cost); err != nil {
		return nil, 0, err
	}
	n := len(cost)
	if n%2 != 0 {
		return nil, 0, ErrOddVertexCount
	}
	if n == 0 {
		return []int{}, 0, nil
	}
	if n > 22 {
		return nil, 0, fmt.Errorf("matching: ExactMinCostPerfect limited to 22 vertices, got %d", n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && cost[i][j] < 0 {
				return nil, 0, ErrNegativeCost
			}
		}
	}
	const inf = math.MaxInt64 / 4
	size := 1 << n
	dp := make([]int64, size)
	choice := make([]int32, size)
	for m := 1; m < size; m++ {
		dp[m] = inf
		choice[m] = -1
	}
	for m := 0; m < size; m++ {
		if dp[m] >= inf {
			continue
		}
		// Pair the lowest unmatched vertex with every other unmatched one.
		rest := ^m & (size - 1)
		if rest == 0 {
			continue
		}
		i := trailingZeros(rest)
		for j := i + 1; j < n; j++ {
			if rest&(1<<j) == 0 {
				continue
			}
			nm := m | 1<<i | 1<<j
			if c := dp[m] + cost[i][j]; c < dp[nm] {
				dp[nm] = c
				choice[nm] = int32(i)<<16 | int32(j)
			}
		}
	}
	if dp[size-1] >= inf {
		return nil, 0, errors.New("matching: no perfect matching exists")
	}
	mate = make([]int, n)
	for i := range mate {
		mate[i] = Unmatched
	}
	for m := size - 1; m != 0; {
		c := choice[m]
		i, j := int(c>>16), int(c&0xffff)
		mate[i], mate[j] = j, i
		m &^= 1<<i | 1<<j
	}
	return mate, dp[size-1], nil
}

// trailingZeros is bits.TrailingZeros with the defensive property that it
// terminates on 0 (returning the word size) instead of spinning forever as
// the previous hand-rolled loop did; ExactMinCostPerfect only calls it with
// non-zero masks today, but a refactor must not be able to hang on it.
func trailingZeros(x int) int {
	return bits.TrailingZeros(uint(x))
}
