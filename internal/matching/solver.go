package matching

import (
	"context"
	"fmt"
)

// Solver is the reusable entry point to minimum-cost perfect matching. It
// owns all blossom state across calls, so a steady-state solve — Reset,
// SetCost edits, Solve — allocates nothing once the buffers have grown to
// the largest instance seen. On top of plain reuse it supports warm
// re-solves: after a successful solve, Warm resumes from the previous
// solution's dual variables and matching, touching only the parts of the
// instance invalidated by SetCost edits. That is the live-AP case — one
// client's SNR moves per report, every other edge cost is unchanged — where
// a warm re-solve finishes in a small number of augmentation phases instead
// of n/2.
//
// Warm-start contract:
//
//   - Warm produces a matching with exactly the same total cost as a cold
//     solve of the same instance (ties may be broken differently); the test
//     suite pins this against ExactMinCostPerfect on thousands of perturbed
//     random instances.
//   - A Warm with no cost edit since the last successful solve returns
//     that solve's matching and total unchanged: the held matching is
//     still optimal, and re-running surgery could only re-break ties.
//     A SetCost writing the value already held is not an edit.
//   - Warm falls back to a cold solve internally whenever the saved state
//     is unusable (first solve after Reset, a previous error, or the rare
//     dual-parity stall after warm surgery), so callers may use Warm
//     unconditionally; CanWarm reports whether saved state exists.
//   - A Solver is not safe for concurrent use.
//
// Internally, costs are turned into the max-weight form w = big − cost with
// a sticky base constant: big only grows (when a SetCost raises the largest
// cost seen), and on growth every real-vertex dual is shifted by the same
// delta, which preserves dual feasibility and tightness because every edge
// weight shifts identically. Warm surgery then (1) dissolves the blossom
// forest by distributing each blossom dual onto its member vertices,
// (2) rewrites the edited edges and repairs dual feasibility by raising an
// endpoint dual to cover any deficit, (3) unmatches every matched edge that
// is no longer tight, and (4) resumes augmentation phases.
type Solver struct {
	b *blossomSolver

	n     int
	limit int64   // per-edge cost bound for the current n (overflow guard)
	cost  []int64 // flat [n*n] symmetric cost table, diagonal zero
	mate  []int   // result of the last solve, [n]
	total int64   // cost of mate

	big  int64 // sticky max-weight transform base, weights are big − cost
	maxC int64 // largest cost ever set since Reset

	dirty    [][2]int // edges edited since the last solve (i < j)
	dirtyAll bool     // too many edits to track individually

	warm    bool // previous solve state is valid to resume from
	stopCtx contextDoneProbe
}

// contextDoneProbe is the minimal surface the solver polls for cooperative
// cancellation; it is satisfied by context.Context. Holding the interface
// rather than a per-call closure keeps Solve/Warm allocation-free.
type contextDoneProbe interface{ Err() error }

// NewSolver returns an empty Solver. The zero value is also ready to use;
// call Reset before the first solve either way.
func NewSolver() *Solver { return &Solver{} }

// Reset prepares the solver for an instance on n vertices (n even), costs
// all zero. Buffers grow only when n exceeds every previously seen size, so
// resetting to the same or a smaller instance allocates nothing. Any saved
// warm state is discarded.
func (s *Solver) Reset(n int) error {
	if n < 0 {
		return ErrOddVertexCount
	}
	if n%2 != 0 {
		return ErrOddVertexCount
	}
	if s.b == nil {
		s.b = &blossomSolver{}
		// One stop probe for the life of the Solver: it reads the context
		// stashed by the current Solve/Warm call, so per-call cancellation
		// support costs no per-call closure allocation.
		s.b.stop = func() bool { return s.stopCtx != nil && s.stopCtx.Err() != nil }
	}
	s.b.reset(n)
	if n*n > cap(s.cost) {
		s.cost = make([]int64, n*n)
		s.mate = make([]int, n)
		s.dirty = make([][2]int, 0, n)
	} else {
		s.cost = s.cost[:n*n]
		for i := range s.cost {
			s.cost[i] = 0
		}
		s.mate = s.mate[:n]
	}
	s.n = n
	s.limit = (maxSafeWeight(n) - 1) / int64(n/2+1)
	s.big = 1
	s.maxC = 0
	s.dirty = s.dirty[:0]
	s.dirtyAll = false
	s.warm = false
	return nil
}

// N returns the instance size set by the last Reset.
func (s *Solver) N() int { return s.n }

// CanWarm reports whether a subsequent Warm call can actually resume from
// saved state rather than falling back to a cold solve.
func (s *Solver) CanWarm() bool { return s.warm }

// SetCost sets the (symmetric) cost of edge {i, j}. A no-op write does not
// invalidate warm state. Costs must be non-negative and small enough that
// the integer dual arithmetic cannot overflow for the current n
// (ErrWeightTooLarge otherwise).
func (s *Solver) SetCost(i, j int, c int64) error {
	if i < 0 || j < 0 || i >= s.n || j >= s.n || i == j {
		return fmt.Errorf("matching: SetCost(%d, %d) out of range for %d vertices", i, j, s.n)
	}
	if c < 0 {
		return ErrNegativeCost
	}
	if c > s.limit {
		return fmt.Errorf("%w: cost[%d][%d] = %d exceeds %d for %d vertices",
			ErrWeightTooLarge, i, j, c, s.limit, s.n)
	}
	if s.cost[i*s.n+j] == c {
		return nil
	}
	s.cost[i*s.n+j] = c
	s.cost[j*s.n+i] = c
	if c > s.maxC {
		s.maxC = c
	}
	if !s.dirtyAll {
		if len(s.dirty) >= s.n {
			// Past n edits a full feasibility sweep is cheaper than
			// tracking; collapse to "everything changed".
			s.dirtyAll = true
			s.dirty = s.dirty[:0]
		} else {
			if i > j {
				i, j = j, i
			}
			s.dirty = append(s.dirty, [2]int{i, j})
		}
	}
	return nil
}

// Mates returns the mate of every vertex from the last successful solve.
// The slice is owned by the Solver and valid until the next Reset, Solve or
// Warm call; copy it to retain it.
func (s *Solver) Mates() []int { return s.mate }

// Solve computes a minimum-cost perfect matching of the current instance
// from scratch and returns its total cost. The per-vertex mates are
// available through Mates. A cancelled ctx aborts the solve within a
// bounded amount of work and returns ctx.Err().
func (s *Solver) Solve(ctx context.Context) (int64, error) {
	return s.run(ctx, false)
}

// Warm re-solves the current instance, resuming from the previous solve's
// dual variables and matching when possible (see CanWarm); otherwise it
// behaves exactly like Solve. The result is cost-identical to a cold solve.
// With no SetCost edit since the last successful solve it returns that
// solve's total, and Mates its matching, without re-solving.
func (s *Solver) Warm(ctx context.Context) (int64, error) {
	return s.run(ctx, true)
}

func (s *Solver) run(ctx context.Context, wantWarm bool) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.n == 0 {
		s.markSolved(0)
		return 0, nil
	}
	if wantWarm && s.warm && len(s.dirty) == 0 && !s.dirtyAll {
		return s.total, nil
	}
	if ctx.Done() != nil {
		s.stopCtx = ctx
	}
	if wantWarm && s.warm {
		if s.resolveWarm() && !s.b.aborted {
			if total, err := s.extract(); err == nil {
				s.stopCtx = nil
				s.markSolved(total)
				return total, nil
			}
		}
		if s.b.aborted {
			s.stopCtx = nil
			s.warm = false
			return 0, ctx.Err()
		}
		// Stalled (or left an inconsistent matching): redo cold below.
	}
	s.solveCold()
	s.stopCtx = nil
	if s.b.aborted {
		s.warm = false
		return 0, ctx.Err()
	}
	total, err := s.extract()
	if err != nil {
		s.warm = false
		return 0, err
	}
	s.markSolved(total)
	return total, nil
}

// markSolved records that the blossom state and mate now reflect the
// current cost table, at cost total, making it a valid warm-start point.
func (s *Solver) markSolved(total int64) {
	s.total = total
	s.warm = true
	s.dirty = s.dirty[:0]
	s.dirtyAll = false
}

// weight is the max-weight transform of one cost entry.
func (s *Solver) weight(i, j int) int64 {
	if i == j {
		return 0
	}
	return s.big - s.cost[i*s.n+j]
}

// rebase grows the sticky transform base when the largest cost seen has
// outgrown it, shifting every real-vertex dual by the same delta. All edge
// weights shift identically, so dual feasibility and tightness survive.
func (s *Solver) rebase() {
	need := s.maxC*int64(s.n/2+1) + 1
	if need <= s.big {
		return
	}
	if s.warm {
		delta := need - s.big
		for u := 1; u <= s.n; u++ {
			s.b.lab[u] += delta
		}
		// Every stored weight is now stale.
		s.dirtyAll = true
	}
	s.big = need
}

// solveCold fills the blossom solver from the cost table and solves from
// scratch.
func (s *Solver) solveCold() {
	s.rebase()
	b, n := s.b, s.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.setEdge(i+1, j+1, s.weight(i, j))
		}
	}
	b.solve()
}

// resolveWarm performs warm-start surgery on the saved state and resumes
// augmentation phases. It reports false when the resumed solve stalled and
// must be redone cold.
func (s *Solver) resolveWarm() bool {
	b, n := s.b, s.n
	s.rebase()
	b.dissolveBlossoms()
	if s.dirtyAll {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.setEdge(i+1, j+1, s.weight(i, j))
			}
		}
		// Full feasibility sweep: raise the first endpoint's dual to cover
		// any deficit. Raising a dual only increases other edges' slack, so
		// one pass suffices.
		for i := 1; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				if d := b.eDelta(b.g[i][j]); d < 0 {
					b.lab[i] -= d
				}
			}
		}
	} else {
		for _, e := range s.dirty {
			u, v := e[0]+1, e[1]+1
			w := s.weight(e[0], e[1])
			b.setEdge(u, v, w)
			b.setEdge(v, u, w)
			if d := b.eDelta(b.g[u][v]); d < 0 {
				b.lab[u] -= d
			}
		}
	}
	// Drop pairs that lost tightness, pull every dual into one parity class
	// (augmentation between trees in different classes can never tighten an
	// edge — see normalizeParity), drop pairs the normalization loosened,
	// then resume phases.
	b.unmatchLoose()
	b.normalizeParity()
	b.unmatchLoose()
	return b.resume()
}

// extract copies the matching out of the blossom solver into s.mate and
// sums its cost, verifying perfection on the way.
func (s *Solver) extract() (int64, error) {
	b, n := s.b, s.n
	var total int64
	for u := 1; u <= n; u++ {
		m := b.match[u]
		if m < 1 || m > n || b.match[m] != u {
			return 0, fmt.Errorf("matching: internal error: vertex %d left unmatched on a complete graph", u-1)
		}
		s.mate[u-1] = m - 1
		if m > u {
			total += s.cost[(u-1)*n+(m-1)]
		}
	}
	return total, nil
}
