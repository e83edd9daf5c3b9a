package lp

// Pricing of the revised simplex: which nonbasic column enters on a primal
// iteration and which basic row leaves on a dual iteration.  The solver has
// one rule, devex: entering columns are scored by reduced-cost violation
// squared over a devex reference weight — an approximation of the
// steepest-edge column norm, maintained per pivot from quantities the
// reduced-cost update pass already computes, and reset to fresh unit
// weights when the weights drift past the classic ratio bound
// (devexResetRatio) or when a basis repair or NaN recovery invalidates what
// they were learned through.  Every pick scans the full maintained
// reduced-cost row; the scan is fused into the per-pivot update pass, so it
// costs no extra pass over the columns.  The dual simplex weighs its
// leaving-row choice with dual devex row weights.
//
// Devex is free to use stale or approximate information, because the
// primal loop re-verifies each nominee's reduced cost exactly from its
// FTRAN column before pivoting and only declares optimality after an exact
// reduced-cost rebuild followed by a full-scan re-pick.  The one exception
// to devex is the anti-cycling rung: a long run of degenerate pivots (or
// the iteration backstop) latches Bland's least-index rule, with its exact
// smallest-index ratio test, until the objective moves again; the release
// restarts devex on a fresh reference framework.

// devexResetRatio is the classic drift bound on the reference framework: at
// pivot time the entering column's exact steepest-edge weight (1 + ‖B⁻¹Aq‖²,
// free from the FTRAN column) is compared with its reference weight, and a
// disagreement beyond this factor in either direction means the framework no
// longer steers pricing — the weights are reset to 1 and the reference
// framework restarts at the current nonbasic set.
const devexResetRatio = 1e4

// devexPricer carries the devex state: primal reference weights per
// standard-form column and dual reference weights per basis row.
//
// The primal weight vector is lazy: nil means every weight is 1 (a fresh
// reference framework), and a warm start's carried weights stay in sparse
// form until something actually reads or updates a weight.  The laziness is
// load-bearing for the MILP's warm re-solve chains, where most node solves
// take zero primal pivots — an eager dense vector would cost an O(n)
// allocate-and-fill per solve for state nobody consults.
type devexPricer struct {
	w    []float64 // primal reference weights, ≥ 1; nil ⇒ all 1 (see above)
	rowW []float64 // dual reference weights (row norms of B⁻¹), ≥ 1

	// Carried warm-start weights in sparse form (standard-form column
	// indices and their >1 weights), installed by solveWarm and folded into
	// w on first materialization.  Capture passes them through untouched
	// when no pivot ever materialized the dense vector.
	carriedIdx []int
	carriedW   []float64

	// dirty marks that a pivot has updated the weights since the last
	// reset (or that a warm start installed learned ones), i.e. the
	// framework holds something a reset would discard.  A clean reset (the
	// initial factorization of a solve) is not counted in Stats.DevexResets.
	dirty bool

	// cached is the entering pick the update loop computed as a by-product
	// (-1: the scan proved no violation), or cachedNone.  The update pass
	// touches exactly the arrays price would re-scan, so the argmax is
	// fused there and the immediately following price consumes it instead
	// of a second pass.  One-shot: price clears it on read, and anything
	// that changes the data under it (an exact rebuild, a framework reset)
	// invalidates it.
	cached int
}

// cachedNone marks an empty pick cache (-1 is a meaningful cached result).
const cachedNone = -2

func newDevexPricer(std *standard) devexPricer {
	dx := devexPricer{cached: cachedNone}
	dx.rowW = grow(std.scr.rowW, std.m)
	std.scr.rowW = dx.rowW
	for i := range dx.rowW {
		dx.rowW[i] = 1
	}
	return dx
}

// weights returns the dense primal weight vector, materializing it from the
// unit state plus any carried sparse weights, or nil when every weight is 1
// and nothing has been carried — callers treat nil as the unit framework.
func (dx *devexPricer) weights(s *solver) []float64 {
	if dx.w == nil && dx.carriedIdx != nil {
		dx.materializeW(s)
	}
	return dx.w
}

// materializeW builds the dense weight vector: all 1s plus the carried
// sparse entries, which are consumed by the fold.
func (dx *devexPricer) materializeW(s *solver) []float64 {
	w := grow(s.std.scr.devexW, s.std.nCols)
	s.std.scr.devexW = w
	for i := range w {
		w[i] = 1
	}
	for k, j := range dx.carriedIdx {
		if j < len(w) {
			w[j] = dx.carriedW[k]
		}
	}
	dx.carriedIdx, dx.carriedW = nil, nil
	dx.w = w
	return w
}

// reset restarts the reference framework after a basis repair or a NaN
// recovery: the weights were learned through a basis (or factors) that no
// longer stand.  Only a framework that actually learned something counts as a
// DevexReset.
func (dx *devexPricer) reset(s *solver) { dx.resetFramework(s, dx.dirty) }

// resetFramework reinitializes every weight to 1 and drops the cached pick.
// count selects whether the reset is reported in Stats.DevexResets.
func (dx *devexPricer) resetFramework(s *solver, count bool) {
	if count {
		s.stats.DevexResets++
	}
	dx.w = nil // nil is the unit framework; rematerialized on next pivot
	dx.carriedIdx, dx.carriedW = nil, nil
	for i := range dx.rowW {
		dx.rowW[i] = 1
	}
	dx.dirty = false
	dx.cached = cachedNone
}

// price nominates the column with the best devex score over the full
// maintained reduced-cost row, or -1 when no column is eligible — which the
// primal loop then re-verifies on an exactly rebuilt row before declaring
// optimality.
func (dx *devexPricer) price(s *solver) int {
	wts := dx.weights(s)
	if wts == nil {
		// Unit framework: viol²/1 ranks exactly like viol, so the plain
		// most-violating scan is the same argmax without weight loads.
		return s.pickEntering(false)
	}
	if c := dx.cached; c != cachedNone {
		dx.cached = cachedNone // one-shot: a rejection re-prices for real
		return c
	}
	// The devex score is viol²/w; the argmax is taken divide-free by
	// cross-multiplying against the incumbent (viol² · w_best > viol²_best
	// · w), so the divide never dominates the scan.
	best, bestV2, bestW := -1, 0.0, 1.0
	for j := 0; j < s.std.nTotal; j++ {
		if s.basic[j] || s.std.upper[j] == 0 {
			continue
		}
		viol := -s.reduced[j]
		if s.atUpper[j] {
			viol = -viol
		}
		if !(viol > epsilon) {
			continue
		}
		if v2 := viol * viol; v2*bestW > bestV2*wts[j] {
			bestV2, bestW, best = v2, wts[j], j
		}
	}
	return best
}

// update fuses the devex weight maintenance into the reduced-cost update
// pass.  With ρ = row p of the new basis inverse, the α the reduced-cost
// update already computes per column (α = ρ·A_j) is exactly the textbook
// α_j/α_q ratio, so the reference update
//
//	w_j ← max(w_j, (α_j/α_q)²·w_q)
//
// costs one multiply-compare on top of work the plain rule does anyway;
// the leaving column is covered by the same formula (its α is 1/α_q).
// Before the BTRAN overwrites the FTRAN column, its squared norm gives the
// entering column's exact steepest-edge weight for free — the drift check
// that triggers a framework reset past devexResetRatio.
func (dx *devexPricer) update(s *solver, q, p int, dq float64, w []float64) {
	dw := dx.weights(s)
	if dw == nil {
		dw = dx.materializeW(s) // first pivot of a fresh framework
	}
	wq := dw[q]
	gamma := 1.0
	for _, v := range w {
		gamma += v * v
	}
	drifted := wq > devexResetRatio*gamma || gamma > devexResetRatio*wq
	// Propagate the better of the reference and the exact weight: γ_q is
	// the true steepest-edge weight of the entering column, so seeding the
	// updates with it (rather than a reference that may still sit at its
	// unit reset value) tightens every downstream weight for free.
	if gamma > wq {
		wq = gamma
	}

	rho := s.w // the FTRAN contents are dead once the pivot is applied
	s.btranUnit(p, rho)
	alpha := s.alphaRow(rho)
	basic, reduced := s.basic, s.reduced
	atUpper, upper := s.atUpper, s.std.upper
	best, bestV2, bestW := -1, 0.0, 1.0
	for j := 0; j < s.std.nTotal; j++ {
		if basic[j] {
			continue
		}
		rj := reduced[j]
		if a := alpha[j]; a != 0 {
			rj -= dq * a
			reduced[j] = rj
			if nw := a * a * wq; nw > dw[j] {
				dw[j] = nw
			}
		}
		// Fused pick: this pass already touches every array the immediately
		// following price would re-scan, so compute its argmax here
		// (identical eligibility and comparison) and let price consume the
		// cached result instead of making a second pass.
		if upper[j] == 0 {
			continue
		}
		viol := -rj
		if atUpper[j] {
			viol = -viol
		}
		if !(viol > epsilon) {
			continue
		}
		if v2 := viol * viol; v2*bestW > bestV2*dw[j] {
			bestV2, bestW, best = v2, dw[j], j
		}
	}
	reduced[q] = 0
	s.stale++
	dx.dirty = true
	if drifted {
		dx.resetFramework(s, true) // clears the cache too
		return
	}
	dx.cached = best
}

// dualDrifted is the dual-side drift check: ρ (row p of the basis inverse,
// fresh from the BTRAN the dual iteration needs anyway) gives the exact row
// norm the reference weight approximates.
func (dx *devexPricer) dualDrifted(p int, rho []float64) bool {
	gamma := 0.0
	for _, v := range rho {
		gamma += v * v
	}
	wp := dx.rowW[p]
	return wp > devexResetRatio*gamma || gamma > devexResetRatio*wp
}

// dualUpdate maintains the dual devex row weights across a dual pivot on
// row p with FTRAN column w (the entering column, pivot element w[p]):
// row p of the basis inverse scales by 1/α_p and every other row i gains a
// −(w_i/α_p) multiple of it, so
//
//	rowW_i ← max(rowW_i, (w_i/α_p)²·rowW_p),   rowW_p ← max(rowW_p/α_p², 1).
func (dx *devexPricer) dualUpdate(s *solver, p int, w []float64) {
	ap := w[p]
	if ap == 0 {
		return
	}
	ref := dx.rowW[p] / (ap * ap)
	for i, wi := range w {
		if wi == 0 || i == p {
			continue
		}
		if nw := wi * wi * ref; nw > dx.rowW[i] {
			dx.rowW[i] = nw
		}
	}
	if ref < 1 {
		ref = 1
	}
	dx.rowW[p] = ref
	dx.dirty = true
}
