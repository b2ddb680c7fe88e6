package matching

// This file contains the primal-dual blossom machinery for maximum-weight
// matching on general graphs in O(n³). It follows the classic dense
// formulation (Galil's survey; the widely used contest realisation of it):
// vertices are 1-indexed, slots n+1..2n hold contracted blossoms, and dual
// feasibility is maintained with integer labels over doubled edge weights
// so that all dual adjustments stay integral.
//
// Invariants maintained between phases:
//   - lab[u] + lab[v] ≥ 2·w(u,v) for every edge (dual feasibility),
//   - equality holds on matched edges and within blossoms (tightness),
//   - st[x] maps every vertex/blossom to its outermost containing blossom.

type edge struct {
	u, v int
	w    int64
}

type blossomSolver struct {
	n   int // number of real vertices
	nx  int // current number of slots in use (n..2n)
	cap int // total slots = 2n+1

	g          [][]edge // dense adjacency, [cap][cap]
	lab        []int64  // dual variables, [cap]
	match      []int    // matched partner (real vertex id), [cap]
	slack      []int    // best outer vertex providing slack to x, [cap]
	st         []int    // outermost blossom containing x, [cap]
	pa         []int    // parent vertex in the alternating forest, [cap]
	flowerFrom [][]int  // [cap][cap]: sub-blossom of b containing real vertex x
	state      []int    // -1 unlabeled, 0 outer (S), 1 inner (T), [cap]
	vis        []int    // timestamps for LCA search, [cap]
	flower     [][]int  // sub-blossom lists for contracted blossoms, [cap]
	q          []int    // BFS queue of outer vertices
	qh         int      // BFS queue head index (pops advance qh, not the slice)
	rot        []int    // scratch for in-place blossom cycle rotation
	timer      int

	// stop is an optional cooperative-cancellation probe (nil = never stop).
	// It is polled at phase boundaries and every stopStride BFS pops, so a
	// cancelled solve abandons the instance within a bounded amount of work
	// instead of running O(n³) to completion.
	stop     func() bool
	stopTick int
	aborted  bool

	// stalled latches when a dual adjustment makes no progress (possible
	// only after warm-start dual surgery breaks the even-slack parity the
	// cold initialisation guarantees); callers fall back to a cold solve.
	stalled bool
}

// stopStride bounds how much BFS work runs between cancellation probes.
const stopStride = 64

// cancelled polls the stop probe (rate-limited) and latches the result.
func (s *blossomSolver) cancelled() bool {
	if s.aborted {
		return true
	}
	if s.stop == nil {
		return false
	}
	s.stopTick++
	if s.stopTick%stopStride != 0 {
		return false
	}
	if s.stop() {
		s.aborted = true
	}
	return s.aborted
}

const infWeight = int64(1) << 62

// reset prepares the solver for an instance on n real vertices. Buffers are
// grown only when n exceeds every previously seen size, so steady-state
// reuse through a Solver allocates nothing.
func (s *blossomSolver) reset(n int) {
	capacity := 2*n + 1
	if capacity > s.cap {
		s.g = make([][]edge, capacity)
		for i := range s.g {
			s.g[i] = make([]edge, capacity)
			for j := range s.g[i] {
				s.g[i][j] = edge{u: i, v: j}
			}
		}
		s.lab = make([]int64, capacity)
		s.match = make([]int, capacity)
		s.slack = make([]int, capacity)
		s.st = make([]int, capacity)
		s.pa = make([]int, capacity)
		s.flowerFrom = make([][]int, capacity)
		for i := range s.flowerFrom {
			s.flowerFrom[i] = make([]int, capacity)
		}
		s.state = make([]int, capacity)
		s.vis = make([]int, capacity)
		s.flower = make([][]int, capacity)
		s.cap = capacity
	}
	s.n = n
	s.nx = n
	s.aborted = false
	s.stopTick = 0
	s.stalled = false
}

// setEdge writes a full real-vertex edge. Blossom contraction copies edge
// records between rows, so reusing the solver requires restoring the u/v
// endpoints alongside the weight — not just the weight.
func (s *blossomSolver) setEdge(u, v int, w int64) {
	s.g[u][v] = edge{u: u, v: v, w: w}
}

// eDelta is the (doubled) slack of an edge under the current duals.
func (s *blossomSolver) eDelta(e edge) int64 {
	return s.lab[e.u] + s.lab[e.v] - s.g[e.u][e.v].w*2
}

func (s *blossomSolver) updateSlack(u, x int) {
	if s.slack[x] == 0 || s.eDelta(s.g[u][x]) < s.eDelta(s.g[s.slack[x]][x]) {
		s.slack[x] = u
	}
}

func (s *blossomSolver) setSlack(x int) {
	s.slack[x] = 0
	for u := 1; u <= s.n; u++ {
		if s.g[u][x].w > 0 && s.st[u] != x && s.state[s.st[u]] == 0 {
			s.updateSlack(u, x)
		}
	}
}

func (s *blossomSolver) qPush(x int) {
	if x <= s.n {
		s.q = append(s.q, x)
		return
	}
	for _, sub := range s.flower[x] {
		s.qPush(sub)
	}
}

func (s *blossomSolver) setSt(x, b int) {
	s.st[x] = b
	if x > s.n {
		for _, sub := range s.flower[x] {
			s.setSt(sub, b)
		}
	}
}

// getPr locates sub-blossom xr within blossom b, re-orienting the cycle if
// xr sits at an odd position so that the even alternating path is used.
func (s *blossomSolver) getPr(b, xr int) int {
	pr := 0
	for i, sub := range s.flower[b] {
		if sub == xr {
			pr = i
			break
		}
	}
	if pr%2 == 1 {
		// Reverse flower[b][1:] to flip the cycle orientation.
		fl := s.flower[b]
		for i, j := 1, len(fl)-1; i < j; i, j = i+1, j-1 {
			fl[i], fl[j] = fl[j], fl[i]
		}
		return len(fl) - pr
	}
	return pr
}

// setMatch records that (the blossom containing) u is matched across the
// original edge g[u][v], recursively re-matching along blossom cycles.
func (s *blossomSolver) setMatch(u, v int) {
	s.match[u] = s.g[u][v].v
	if u <= s.n {
		return
	}
	e := s.g[u][v]
	xr := s.flowerFrom[u][e.u]
	pr := s.getPr(u, xr)
	for i := 0; i < pr; i++ {
		s.setMatch(s.flower[u][i], s.flower[u][i^1])
	}
	s.setMatch(xr, v)
	// Rotate so xr becomes the base of the blossom. The rotation runs
	// through a solver-owned scratch buffer so steady-state solves stay
	// allocation-free.
	fl := s.flower[u]
	s.rot = append(s.rot[:0], fl[:pr]...)
	copy(fl, fl[pr:])
	copy(fl[len(fl)-pr:], s.rot)
}

func (s *blossomSolver) augment(u, v int) {
	for {
		xnv := s.st[s.match[u]]
		s.setMatch(u, v)
		if xnv == 0 {
			return
		}
		s.setMatch(xnv, s.st[s.pa[xnv]])
		u, v = s.st[s.pa[xnv]], xnv
	}
}

func (s *blossomSolver) getLCA(u, v int) int {
	s.timer++
	t := s.timer
	for u != 0 || v != 0 {
		if u != 0 {
			if s.vis[u] == t {
				return u
			}
			s.vis[u] = t
			u = s.st[s.match[u]]
			if u != 0 {
				u = s.st[s.pa[u]]
			}
		}
		u, v = v, u
	}
	return 0
}

func (s *blossomSolver) addBlossom(u, lca, v int) {
	b := s.n + 1
	for b <= s.nx && s.st[b] != 0 {
		b++
	}
	if b > s.nx {
		s.nx++
	}
	s.lab[b] = 0
	s.state[b] = 0
	s.match[b] = s.match[lca]
	s.flower[b] = s.flower[b][:0]
	s.flower[b] = append(s.flower[b], lca)
	for x := u; x != lca; {
		s.flower[b] = append(s.flower[b], x)
		y := s.st[s.match[x]]
		s.flower[b] = append(s.flower[b], y)
		s.qPush(y)
		x = s.st[s.pa[y]]
	}
	// Reverse everything after the base so both arms are oriented
	// consistently around the odd cycle.
	fl := s.flower[b]
	for i, j := 1, len(fl)-1; i < j; i, j = i+1, j-1 {
		fl[i], fl[j] = fl[j], fl[i]
	}
	for x := v; x != lca; {
		s.flower[b] = append(s.flower[b], x)
		y := s.st[s.match[x]]
		s.flower[b] = append(s.flower[b], y)
		s.qPush(y)
		x = s.st[s.pa[y]]
	}
	s.setSt(b, b)
	for x := 1; x <= s.nx; x++ {
		s.g[b][x].w = 0
		s.g[x][b].w = 0
	}
	for x := 1; x <= s.n; x++ {
		s.flowerFrom[b][x] = 0
	}
	for _, xs := range s.flower[b] {
		for x := 1; x <= s.nx; x++ {
			if s.g[b][x].w == 0 || s.eDelta(s.g[xs][x]) < s.eDelta(s.g[b][x]) {
				s.g[b][x] = s.g[xs][x]
				s.g[x][b] = s.g[x][xs]
			}
		}
		for x := 1; x <= s.n; x++ {
			if s.flowerFrom[xs][x] != 0 {
				s.flowerFrom[b][x] = xs
			}
		}
	}
	s.setSlack(b)
}

func (s *blossomSolver) expandBlossom(b int) {
	for _, sub := range s.flower[b] {
		s.setSt(sub, sub)
	}
	xr := s.flowerFrom[b][s.g[b][s.pa[b]].u]
	pr := s.getPr(b, xr)
	for i := 0; i < pr; i += 2 {
		xs := s.flower[b][i]
		xns := s.flower[b][i+1]
		s.pa[xs] = s.g[xns][xs].u
		s.state[xs] = 1
		s.state[xns] = 0
		s.slack[xs] = 0
		s.setSlack(xns)
		s.qPush(xns)
	}
	s.state[xr] = 1
	s.pa[xr] = s.pa[b]
	for i := pr + 1; i < len(s.flower[b]); i++ {
		xs := s.flower[b][i]
		s.state[xs] = -1
		s.setSlack(xs)
	}
	s.st[b] = 0
}

// onFoundEdge handles a tight edge discovered from outer vertex e.u toward
// e.v. It returns true when an augmenting path was found and applied.
func (s *blossomSolver) onFoundEdge(e edge) bool {
	u, v := s.st[e.u], s.st[e.v]
	switch {
	case s.state[v] == -1:
		s.pa[v] = e.u
		s.state[v] = 1
		nu := s.st[s.match[v]]
		s.slack[v] = 0
		s.slack[nu] = 0
		s.state[nu] = 0
		s.qPush(nu)
	case s.state[v] == 0:
		lca := s.getLCA(u, v)
		if lca == 0 {
			s.augment(u, v)
			s.augment(v, u)
			return true
		}
		s.addBlossom(u, lca, v)
	}
	return false
}

// matchingPhase grows the alternating forest from all exposed outer
// vertices, adjusting duals until it either augments (true) or proves no
// augmenting path of positive gain exists (false).
func (s *blossomSolver) matchingPhase() bool {
	for i := 0; i <= s.nx; i++ {
		s.state[i] = -1
		s.slack[i] = 0
	}
	s.q, s.qh = s.q[:0], 0
	for x := 1; x <= s.nx; x++ {
		if s.st[x] == x && s.match[x] == 0 {
			s.pa[x] = 0
			s.state[x] = 0
			s.qPush(x)
		}
	}
	if len(s.q) == 0 {
		return false
	}
	for {
		if s.aborted {
			return false
		}
		for s.qh < len(s.q) {
			if s.cancelled() {
				return false
			}
			u := s.q[s.qh]
			s.qh++
			if s.state[s.st[u]] == 1 {
				continue
			}
			for v := 1; v <= s.n; v++ {
				if s.g[u][v].w > 0 && s.st[u] != s.st[v] {
					if s.eDelta(s.g[u][v]) == 0 {
						if s.onFoundEdge(s.g[u][v]) {
							return true
						}
					} else {
						s.updateSlack(u, s.st[v])
					}
				}
			}
		}
		d := infWeight
		for b := s.n + 1; b <= s.nx; b++ {
			if s.st[b] == b && s.state[b] == 1 {
				if half := s.lab[b] / 2; half < d {
					d = half
				}
			}
		}
		for x := 1; x <= s.nx; x++ {
			if s.st[x] == x && s.slack[x] != 0 {
				delta := s.eDelta(s.g[s.slack[x]][x])
				switch s.state[x] {
				case -1:
					if delta < d {
						d = delta
					}
				case 0:
					if half := delta / 2; half < d {
						d = half
					}
				}
			}
		}
		for u := 1; u <= s.n; u++ {
			switch s.state[s.st[u]] {
			case 0:
				if s.lab[u] <= d {
					return false // a free outer vertex's dual would hit zero
				}
				s.lab[u] -= d
			case 1:
				s.lab[u] += d
			}
		}
		for b := s.n + 1; b <= s.nx; b++ {
			if s.st[b] == b {
				switch s.state[b] {
				case 0:
					s.lab[b] += 2 * d
				case 1:
					s.lab[b] -= 2 * d
				}
			}
		}
		s.q, s.qh = s.q[:0], 0
		progressed := false
		for x := 1; x <= s.nx; x++ {
			// Mirror the d computation: only unlabeled (-1) and outer (0)
			// targets can act on a tight edge; onFoundEdge ignores inner
			// ones, so counting them as progress would mask a genuine stall.
			if s.st[x] == x && s.state[x] != 1 && s.slack[x] != 0 &&
				s.st[s.slack[x]] != x && s.eDelta(s.g[s.slack[x]][x]) == 0 {
				progressed = true
				if s.onFoundEdge(s.g[s.slack[x]][x]) {
					return true
				}
			}
		}
		for b := s.n + 1; b <= s.nx; b++ {
			if s.st[b] == b && s.state[b] == 1 && s.lab[b] == 0 {
				progressed = true
				s.expandBlossom(b)
			}
		}
		if d == 0 && !progressed {
			// A zero dual adjustment that neither tightened an edge nor
			// expanded a blossom would loop forever. The cold start keeps
			// all outer-outer slacks even so this cannot happen; warm-start
			// dual surgery can break that parity, in which case the caller
			// re-solves cold.
			s.stalled = true
			return false
		}
	}
}

// solve runs augmentation phases to completion and returns the total weight
// of the matching left in s.match.
func (s *blossomSolver) solve() int64 {
	s.aborted, s.stopTick, s.stalled = false, 0, false
	for i := range s.match {
		s.match[i] = 0
	}
	s.nx = s.n
	var wMax int64
	for u := 0; u <= s.n; u++ {
		s.st[u] = u
		s.flower[u] = nil
	}
	for u := 1; u <= s.n; u++ {
		for v := 1; v <= s.n; v++ {
			if u == v {
				s.flowerFrom[u][v] = u
			} else {
				s.flowerFrom[u][v] = 0
			}
			if s.g[u][v].w > wMax {
				wMax = s.g[u][v].w
			}
		}
	}
	for u := 1; u <= s.n; u++ {
		s.lab[u] = wMax
	}
	for s.matchingPhase() {
	}
	var total int64
	for u := 1; u <= s.n; u++ {
		if s.match[u] != 0 && s.match[u] < u {
			total += s.g[u][s.match[u]].w
		}
	}
	return total
}

// ---- Warm-start machinery ------------------------------------------------
//
// A finished solve leaves behind dual variables, a matching, and a forest of
// contracted blossoms. When only a few edge weights change, re-solving from
// that state is far cheaper than a cold solve: the matching loses at most a
// handful of edges, so only a few augmentation phases run instead of n/2.
//
// The state is made safe to resume from in two steps:
//
//  1. dissolveBlossoms flattens the blossom forest. Each blossom's dual z is
//     distributed half-and-half onto the real vertices it contains, which
//     preserves dual feasibility everywhere (constraints spanning the
//     blossom gained z/2 per inside endpoint, constraints inside it needed
//     exactly z to stay non-negative) and keeps matched in-blossom edges
//     tight. Matched edges crossing a blossom boundary gain slack and are
//     unmatched by the tightness sweep that follows.
//
//  2. The caller re-writes the edited edge weights, restores feasibility by
//     raising a violated edge's first endpoint dual by the deficit (raising
//     a dual never breaks feasibility elsewhere), and unmatches every
//     matched edge that is no longer tight. The result is indistinguishable
//     from a cold solve's mid-run state, so running matchingPhase to
//     quiescence completes the matching.

// distributeDual folds blossom b's dual down onto the real vertices it
// contains, recursively dissolves its sub-blossoms, and frees slot b.
func (s *blossomSolver) distributeDual(b int) {
	if b <= s.n {
		return
	}
	if half := s.lab[b] / 2; half != 0 {
		for x := 1; x <= s.n; x++ {
			if s.flowerFrom[b][x] != 0 {
				s.lab[x] += half
			}
		}
	}
	for _, sub := range s.flower[b] {
		s.distributeDual(sub)
	}
	s.lab[b] = 0
	s.match[b] = 0
	s.st[b] = 0
	s.flower[b] = s.flower[b][:0]
}

// dissolveBlossoms flattens the blossom forest left by a previous solve,
// leaving only real vertices with (still feasible) duals and a matching
// whose edges may have lost tightness — the caller sweeps and unmatches
// those before resuming phases.
func (s *blossomSolver) dissolveBlossoms() {
	for b := s.n + 1; b <= s.nx; b++ {
		if s.st[b] == b {
			s.distributeDual(b)
		}
	}
	s.nx = s.n
	for u := 1; u <= s.n; u++ {
		s.st[u] = u
		row := s.flowerFrom[u]
		for v := 1; v <= s.n; v++ {
			row[v] = 0
		}
		row[u] = u
	}
}

// normalizeParity moves every real-vertex dual into one parity class.
//
// The augmentation machinery implicitly relies on parity homogeneity: the
// alternating forest only grows across tight edges (whose endpoint duals
// have equal parity, since doubled weights are even), so when every phase
// root starts in the same class, every outer–outer slack stays even and
// each zero dual adjustment coincides with a tight edge or an expandable
// blossom — the loop always progresses. Cold starts get this for free (all
// duals start equal); warm surgery distributes odd blossom half-duals onto
// subsets of vertices and can split free vertices across classes, leaving
// odd slacks between trees that no adjustment can ever tighten.
//
// Matched pairs (tight, hence parity-equal) in the wrong class get a
// tightness-preserving +1/−1 flip; unmatched wrong-class vertices are
// raised by 1. The −1 halves can create (even) feasibility deficits on
// unrelated edges, so a full repair sweep raises first endpoints to cover
// them — raising a dual only adds slack elsewhere, so one pass suffices.
// The caller re-runs unmatchLoose afterwards: a repair raise breaks the
// tightness of that vertex's matched edge.
func (s *blossomSolver) normalizeParity() {
	odd := 0
	for u := 1; u <= s.n; u++ {
		odd += int(s.lab[u] & 1)
	}
	var target int64
	if 2*odd > s.n {
		target = 1
	}
	lowered := false
	for u := 1; u <= s.n; u++ {
		if s.lab[u]&1 == target {
			continue
		}
		v := s.match[u]
		switch {
		case v == 0 || s.lab[v]&1 == target:
			// Free vertex, or a (non-tight, parity-unequal) pair whose
			// other half is already in class: raise, which is always
			// feasibility-safe.
			s.lab[u]++
		case v > u:
			s.lab[u]++
			s.lab[v]--
			lowered = true
		}
	}
	if !lowered {
		return
	}
	for u := 1; u <= s.n; u++ {
		for v := u + 1; v <= s.n; v++ {
			if d := s.eDelta(s.g[u][v]); d < 0 {
				s.lab[u] -= d
			}
		}
	}
}

// unmatchLoose unmatches every real matched edge that is not tight under
// the current duals; the following phases re-augment the freed vertices.
func (s *blossomSolver) unmatchLoose() {
	for u := 1; u <= s.n; u++ {
		v := s.match[u]
		if v == 0 {
			continue
		}
		if s.match[v] != u || s.eDelta(s.g[u][v]) != 0 {
			s.match[u] = 0
			if s.match[v] == u {
				s.match[v] = 0
			}
		}
	}
}

// resume runs augmentation phases from the current (repaired) state. It
// reports false when the solve stalled on a dual-parity corner and must be
// redone cold.
func (s *blossomSolver) resume() bool {
	s.aborted, s.stopTick, s.stalled = false, 0, false
	for s.matchingPhase() {
	}
	return !s.stalled
}
