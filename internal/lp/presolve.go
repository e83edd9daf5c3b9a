package lp

import "math"

// PresolveMode selects whether a solve runs the model presolve pass.
type PresolveMode int

const (
	// PresolveAuto (the zero value) runs presolve: the model is reduced
	// ahead of standardization and the solution — values, objective and
	// warm-start basis — is mapped back to model space afterwards.
	PresolveAuto PresolveMode = iota
	// PresolveOff solves the model exactly as built.
	PresolveOff
)

const (
	// presolveInfeasTol is how far a bound crossing or an unsatisfiable row
	// must violate before presolve declares the model infeasible outright.
	// Anything closer is left to the simplex (whose own artificial-value
	// tolerance decides borderline feasibility), so presolve-on and
	// presolve-off agree on every non-degenerate instance.
	presolveInfeasTol = 1e-7
	// presolveForceTol is the activity-bound slack within which a row is
	// treated as forcing: its extreme achievable activity equals the
	// right-hand side, so every participating variable is pinned at the
	// bound that achieves it.
	presolveForceTol = 1e-9
	// presolveMaxPasses bounds the reduction fixpoint loop; each pass is
	// O(nnz) and reductions cascade (a singleton row fixes a column whose
	// substitution empties another row), but rarely past a few rounds.
	presolveMaxPasses = 10
	// presolveMinCoeff is the smallest coefficient presolve divides by when
	// folding a singleton row into a bound or eliminating a column
	// singleton; smaller pivots are left to the simplex's own tolerances.
	presolveMinCoeff = 1e-8
)

// postKind tags one entry of the postsolve stack.
type postKind int8

const (
	// postFixed: variable j was removed at the known value val (fixed
	// column substitution, zero-column placement, forcing-row pin).
	postFixed postKind = iota
	// postFreeSingleton: variable j and its only row were removed; the row
	// equation a·x_j + Σ terms = rhs reconstructs x_j from the surviving
	// variables.
	postFreeSingleton
	// postDuplicate: column j was merged into column keep (identical
	// patterns and costs); the merged value splits back across the two
	// original bound boxes.
	postDuplicate
)

// postAction is one recorded reduction, replayed in reverse by postsolve.
type postAction struct {
	kind  postKind
	j     int
	val   float64 // postFixed
	a     float64 // postFreeSingleton: coefficient of j in the removed row
	rhs   float64 // postFreeSingleton: right-hand side at elimination time
	terms []Term  // postFreeSingleton: the row's other live terms
	keep  int     // postDuplicate: surviving column
	lb1   float64 // postDuplicate: keep's bounds before the merge
	ub1   float64
	lb2   float64 // postDuplicate: j's bounds
	ub2   float64
}

// presolveState is the output of one presolve pass: liveness masks and
// working bounds/costs/right-hand sides consumed by standardize, plus the
// postsolve stack that maps the reduced solution back to model space.
// Removed rows and columns keep their model indices throughout — the
// reduced standard form is built by skipping dead entries, so colIdent
// identities (and with them Basis warm starts) are expressed in model terms
// whether or not presolve ran.
type presolveState struct {
	// status is 0 while the reduced model still needs solving, or
	// Infeasible when a reduction proved the model has no solution.
	status Status

	rowDead []bool
	colDead []bool
	eqRow   []bool // model row op == EQ (fill identity for removed rows)

	lb, ub []float64 // working variable bounds (only ever tightened, except duplicate merges)
	cost   []float64 // working costs (free-singleton elimination transfers cost)
	rhs    []float64 // working right-hand sides (fixed columns substituted)

	post []postAction

	// deadAtUpper lists removed variables whose postsolve value is their
	// (finite, non-fixed) model upper bound; captureBasis records them as
	// nonbasic-at-upper so a warm restart on a less-reduced form starts
	// them at the right bound.
	deadAtUpper []int

	rowsRemoved int
	colsRemoved int
}

// fillIdent is the basic column captureBasis seats on a removed row so the
// full-model basis stays square: the row's own slack (always present on an
// inequality row) or artificial (always present on an equality row).  The
// resulting basis matrix is block triangular — removed-row slacks are unit
// columns with no support in kept rows — so it factorizes, and a removed
// row is satisfied by the postsolved point, so the seated slack is feasible.
func (ps *presolveState) fillIdent(i int) colIdent {
	if ps.eqRow[i] {
		return colIdent{kind: identArt, idx: i}
	}
	return colIdent{kind: identSlack, idx: i}
}

// postsolve fills the removed variables of out (indexed by model variable)
// by replaying the reduction stack in reverse, so every value a later
// reconstruction depends on has already been restored.
func (ps *presolveState) postsolve(out []float64) {
	for k := len(ps.post) - 1; k >= 0; k-- {
		a := &ps.post[k]
		switch a.kind {
		case postFixed:
			out[a.j] = a.val
		case postFreeSingleton:
			rest := 0.0
			for _, t := range a.terms {
				rest += t.Coeff * out[t.Var]
			}
			out[a.j] = (a.rhs - rest) / a.a
		case postDuplicate:
			y := out[a.keep]
			x2 := y - a.ub1
			if x2 < a.lb2 {
				x2 = a.lb2
			} else if x2 > a.ub2 {
				x2 = a.ub2
			}
			out[a.j] = x2
			out[a.keep] = y - x2
		}
	}
}

// presolve reduces the model ahead of standardization: empty rows are
// checked and dropped, singleton rows fold into column bounds, fixed
// columns substitute into the right-hand sides, forcing rows pin their
// variables, free (and implied-free) column singletons are eliminated
// through their equality row, and zero/duplicate columns are cleaned up.
// Every reduction is recorded on the postsolve stack.
//
// warm, when non-nil, is the basis the caller will warm-start from:
// presolve never removes a row or column whose identity is basic there (and
// never tightens a variable whose negative-part column is basic), so the
// basis still translates onto the reduced standard form and warm chains —
// milp's per-node restarts, sched's round-over-round re-solves — stay warm.
// A basis whose constraint count no longer matches cannot translate anyway
// and imposes no such protection.
func (p *Problem) presolve(warm *Basis) *presolveState {
	n := len(p.vars)
	m := len(p.cons)
	// Everything presolve works on comes out of the Problem's solve scratch:
	// a solve in a warm chain (milp nodes, sched rounds) re-presolves every
	// time, and fresh slices here were the dominant allocation of the whole
	// solve on reduction-free models.  The presolveState escapes into the
	// standard form and is read until the solve completes (postsolve,
	// captureBasis), which is still within the same Solve call; nothing
	// captured into a Solution or Basis aliases it.
	scr := &p.scr
	ps := &scr.ps
	ps.status = 0
	ps.rowDead = grow(ps.rowDead, m)
	ps.colDead = grow(ps.colDead, n)
	ps.eqRow = grow(ps.eqRow, m)
	ps.lb = grow(ps.lb, n)
	ps.ub = grow(ps.ub, n)
	ps.cost = grow(ps.cost, n)
	ps.rhs = grow(ps.rhs, m)
	ps.post = ps.post[:0]
	ps.deadAtUpper = ps.deadAtUpper[:0]
	ps.rowsRemoved, ps.colsRemoved = 0, 0
	clear(ps.rowDead)
	clear(ps.colDead)
	for j, v := range p.vars {
		ps.lb[j], ps.ub[j], ps.cost[j] = v.lb, v.ub, v.cost
	}
	for i, c := range p.cons {
		ps.rhs[i] = c.rhs
		ps.eqRow[i] = c.op == EQ
	}

	// Warm-basis protection: removals that would orphan a basic identity
	// are skipped, so the basis stays installable on the reduced form.
	// Every row is protected, not just rows whose slack/artificial is
	// basic: removing a row whose slot holds a basic structural column
	// would drop that column from the installed basis — and if the row
	// carried the column's only live entry, what remains is singular and
	// the warm start dies in the factorization.  With rows pinned, a warm
	// presolve only tightens bounds and removes nonbasic columns, which
	// leaves the basis matrix bit-identical; this is the "re-tighten per
	// node" mode — the full reduction happens on cold (root) solves.
	protRow := grow(scr.preProtRow, m)
	protCol := grow(scr.preProtCol, n)
	lockBounds := grow(scr.preLock, n) // identNeg basic: variable must stay doubly free
	scr.preProtRow, scr.preProtCol, scr.preLock = protRow, protCol, lockBounds
	clear(protRow)
	clear(protCol)
	clear(lockBounds)
	if warm != nil && len(warm.cols) == m {
		for i := range protRow {
			protRow[i] = true
		}
		for _, cid := range warm.cols {
			switch cid.kind {
			case identStruct:
				if cid.idx >= 0 && cid.idx < n {
					protCol[cid.idx] = true
				}
			case identNeg:
				if cid.idx >= 0 && cid.idx < n {
					protCol[cid.idx] = true
					lockBounds[cid.idx] = true
				}
			}
		}
		for _, cid := range warm.upper {
			// A recorded at-upper status needs its column (and the finite
			// bound it sits on) to survive, or the status silently degrades
			// to at-lower and the warm point drifts primal-infeasible.
			if cid.kind == identStruct && cid.idx >= 0 && cid.idx < n {
				protCol[cid.idx] = true
				lockBounds[cid.idx] = true
			}
		}
	}

	// Coefficients never change during presolve, only liveness masks,
	// bounds, costs and right-hand sides do, so the aggregated matrix and its
	// column mirror are read as they are.
	mat := p.matrix()
	rowOff, rCol, rVal := mat.rowOff, mat.rCol, mat.rVal
	colOff, cRow, cVal := mat.colOff, mat.cRow, mat.cVal

	liveInRow := grow(scr.preLiveRow, m)
	liveInCol := grow(scr.preLiveCol, n)
	scr.preLiveRow, scr.preLiveCol = liveInRow, liveInCol
	for i := 0; i < m; i++ {
		liveInRow[i] = rowOff[i+1] - rowOff[i]
	}
	for j := 0; j < n; j++ {
		liveInCol[j] = colOff[j+1] - colOff[j]
	}

	killRow := func(i int) {
		ps.rowDead[i] = true
		ps.rowsRemoved++
		for k := rowOff[i]; k < rowOff[i+1]; k++ {
			if j := rCol[k]; !ps.colDead[j] {
				liveInCol[j]--
			}
		}
	}
	// killColFixed substitutes variable j at val into every live row and
	// removes the column.
	killColFixed := func(j int, val float64) {
		ps.colDead[j] = true
		ps.colsRemoved++
		for k := colOff[j]; k < colOff[j+1]; k++ {
			if i := cRow[k]; !ps.rowDead[i] {
				ps.rhs[i] -= cVal[k] * val
				liveInRow[i]--
			}
		}
		ps.post = append(ps.post, postAction{kind: postFixed, j: j, val: val})
		if v := &p.vars[j]; val == v.ub && v.ub > v.lb &&
			!math.IsInf(v.ub, 1) && !math.IsInf(v.lb, -1) {
			ps.deadAtUpper = append(ps.deadAtUpper, j)
		}
	}

	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}

	// Duplicate-column candidates chain through dupNext (newest first) under
	// their pattern hash in dupHead — a cleared map plus an index array reuse
	// their storage across passes and solves where a map of slices would
	// re-allocate every bucket every pass.
	dupHead := scr.preDupHead
	if dupHead == nil {
		dupHead = make(map[uint64]int, 64)
		scr.preDupHead = dupHead
	}
	dupNext := grow(scr.preDupNext, n)
	scr.preDupNext = dupNext

	for pass := 0; pass < presolveMaxPasses; pass++ {
		changed := false

		// Fixed columns: substitute into the right-hand sides.  A protected
		// (warm-basic) fixed column stays; standardize pins it unpriced.
		for j := 0; j < n; j++ {
			if ps.colDead[j] || protCol[j] {
				continue
			}
			if ps.lb[j] == ps.ub[j] {
				killColFixed(j, ps.lb[j])
				changed = true
			}
		}

		// Rows: empty-row feasibility, singleton folding, forcing and
		// redundancy via activity bounds.
		for i := 0; i < m; i++ {
			if ps.rowDead[i] || protRow[i] {
				continue
			}
			op := p.cons[i].op
			rhs := ps.rhs[i]

			cnt := 0
			sj, sa := -1, 0.0
			minAct, maxAct := 0.0, 0.0
			minInf, maxInf := 0, 0
			anyLock := false
			for k := rowOff[i]; k < rowOff[i+1]; k++ {
				j := rCol[k]
				if ps.colDead[j] {
					continue
				}
				a := rVal[k]
				cnt++
				sj, sa = j, a
				if lockBounds[j] {
					anyLock = true
				}
				if a > 0 {
					if math.IsInf(ps.lb[j], -1) {
						minInf++
					} else {
						minAct += a * ps.lb[j]
					}
					if math.IsInf(ps.ub[j], 1) {
						maxInf++
					} else {
						maxAct += a * ps.ub[j]
					}
				} else {
					if math.IsInf(ps.ub[j], 1) {
						minInf++
					} else {
						minAct += a * ps.ub[j]
					}
					if math.IsInf(ps.lb[j], -1) {
						maxInf++
					} else {
						maxAct += a * ps.lb[j]
					}
				}
			}

			switch {
			case cnt == 0:
				// Empty row: 0 op rhs either holds or the model is infeasible.
				switch op {
				case LE:
					if rhs < -presolveInfeasTol {
						ps.status = Infeasible
						return ps
					}
				case GE:
					if rhs > presolveInfeasTol {
						ps.status = Infeasible
						return ps
					}
				case EQ:
					if math.Abs(rhs) > presolveInfeasTol {
						ps.status = Infeasible
						return ps
					}
				}
				killRow(i)
				changed = true

			case cnt == 1 && !lockBounds[sj] && math.Abs(sa) >= presolveMinCoeff:
				// Singleton row: a·x op rhs is a bound on x.
				v := rhs / sa
				tightLo, tightHi := false, false
				switch {
				case op == EQ:
					tightLo, tightHi = true, true
				case (op == LE) == (sa > 0):
					tightHi = true // a>0, ≤ — or a<0, ≥ — caps x from above
				default:
					tightLo = true
				}
				if tightHi && v < ps.ub[sj] {
					ps.ub[sj] = v
				}
				if tightLo && v > ps.lb[sj] {
					ps.lb[sj] = v
				}
				if ps.lb[sj] > ps.ub[sj] {
					if ps.lb[sj]-ps.ub[sj] > presolveInfeasTol {
						ps.status = Infeasible
						return ps
					}
					mid := 0.5 * (ps.lb[sj] + ps.ub[sj])
					ps.lb[sj], ps.ub[sj] = mid, mid
				}
				killRow(i)
				changed = true

			case cnt >= 2:
				// Activity bounds [minAct, maxAct] over the live terms decide
				// infeasible, forcing and redundant rows.  Forcing pins every
				// term variable at its extreme-side bound; the row dies and
				// the fixed-column pass substitutes the pins next round.
				forceAt := func(side float64) { // side > 0: min-activity bounds, < 0: max
					for k := rowOff[i]; k < rowOff[i+1]; k++ {
						j := rCol[k]
						if ps.colDead[j] {
							continue
						}
						if (rVal[k] > 0) == (side > 0) {
							ps.ub[j] = ps.lb[j]
						} else {
							ps.lb[j] = ps.ub[j]
						}
					}
				}
				switch op {
				case LE:
					if minInf == 0 && minAct > rhs+presolveInfeasTol {
						ps.status = Infeasible
						return ps
					}
					if minInf == 0 && minAct >= rhs-presolveForceTol && !anyLock {
						forceAt(1)
						killRow(i)
						changed = true
					} else if maxInf == 0 && maxAct <= rhs {
						killRow(i) // redundant: the row can never bind
						changed = true
					}
				case GE:
					if maxInf == 0 && maxAct < rhs-presolveInfeasTol {
						ps.status = Infeasible
						return ps
					}
					if maxInf == 0 && maxAct <= rhs+presolveForceTol && !anyLock {
						forceAt(-1)
						killRow(i)
						changed = true
					} else if minInf == 0 && minAct >= rhs {
						killRow(i)
						changed = true
					}
				case EQ:
					if (minInf == 0 && minAct > rhs+presolveInfeasTol) ||
						(maxInf == 0 && maxAct < rhs-presolveInfeasTol) {
						ps.status = Infeasible
						return ps
					}
					if !anyLock {
						if minInf == 0 && minAct >= rhs-presolveForceTol {
							forceAt(1)
							killRow(i)
							changed = true
						} else if maxInf == 0 && maxAct <= rhs+presolveForceTol {
							forceAt(-1)
							killRow(i)
							changed = true
						}
					}
				}
			}
		}

		// Free (and implied-free) column singletons in equality rows: the
		// row always determines x_j = (rhs − rest)/a within its bounds, so
		// both the row and the column leave the model; x_j's cost transfers
		// onto the row's surviving variables (c_j·x_j = c_j/a·(rhs − rest)).
		for j := 0; j < n; j++ {
			if ps.colDead[j] || protCol[j] || liveInCol[j] != 1 {
				continue
			}
			row, a := -1, 0.0
			for k := colOff[j]; k < colOff[j+1]; k++ {
				if i := cRow[k]; !ps.rowDead[i] {
					row, a = i, cVal[k]
					break
				}
			}
			if row < 0 || p.cons[row].op != EQ || protRow[row] || math.Abs(a) < presolveMinCoeff {
				continue
			}
			free := math.IsInf(ps.lb[j], -1) && math.IsInf(ps.ub[j], 1)
			if !free {
				// Implied free: the bounds on x_j implied by the row and the
				// other variables' bounds sit inside its own, so they can
				// never bind.
				restMin, restMax := 0.0, 0.0
				restInf := false
				for k := rowOff[row]; k < rowOff[row+1]; k++ {
					t := rCol[k]
					if t == j || ps.colDead[t] {
						continue
					}
					at := rVal[k]
					var lo, hi float64
					if at > 0 {
						lo, hi = at*ps.lb[t], at*ps.ub[t]
					} else {
						lo, hi = at*ps.ub[t], at*ps.lb[t]
					}
					if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
						restInf = true
						break
					}
					restMin += lo
					restMax += hi
				}
				if restInf {
					continue
				}
				rhs := ps.rhs[row]
				impLo := (rhs - restMax) / a
				impHi := (rhs - restMin) / a
				if a < 0 {
					impLo, impHi = impHi, impLo
				}
				if impLo < ps.lb[j] || impHi > ps.ub[j] {
					continue
				}
			}
			terms := make([]Term, 0, liveInRow[row]-1)
			for k := rowOff[row]; k < rowOff[row+1]; k++ {
				t := rCol[k]
				if t == j || ps.colDead[t] {
					continue
				}
				terms = append(terms, Term{Var: Var(t), Coeff: rVal[k]})
			}
			if cj := ps.cost[j]; cj != 0 {
				for _, t := range terms {
					ps.cost[t.Var] -= cj * t.Coeff / a
				}
			}
			ps.post = append(ps.post, postAction{
				kind: postFreeSingleton, j: j, a: a, rhs: ps.rhs[row], terms: terms,
			})
			killRow(row)
			ps.colDead[j] = true
			ps.colsRemoved++
			changed = true
		}

		// Zero columns: a variable in no live row moves to whichever bound
		// its (sense-normalized) cost prefers.  An unbounded improving
		// direction is left in the model so the simplex reports Unbounded
		// only if the rest of the model is feasible.
		for j := 0; j < n; j++ {
			if ps.colDead[j] || protCol[j] || liveInCol[j] != 0 {
				continue
			}
			sc := sign * ps.cost[j]
			var val float64
			switch {
			case sc < -dualTol:
				if math.IsInf(ps.ub[j], 1) {
					continue
				}
				val = ps.ub[j]
			case sc > dualTol:
				if math.IsInf(ps.lb[j], -1) {
					continue
				}
				val = ps.lb[j]
			default:
				// Within the dual tolerance the simplex would leave the
				// column where it starts: its lower bound, the upper bound
				// when mirrored, zero when doubly free.
				switch {
				case !math.IsInf(ps.lb[j], -1):
					val = ps.lb[j]
				case !math.IsInf(ps.ub[j], 1):
					val = ps.ub[j]
				default:
					val = 0
				}
			}
			killColFixed(j, val)
			changed = true
		}

		// Duplicate columns: identical live patterns, identical costs and
		// finite bounds merge into one column with summed bounds; postsolve
		// splits the merged value back across the two bound boxes.
		clear(dupHead)
		for j := 0; j < n; j++ {
			if ps.colDead[j] || protCol[j] || liveInCol[j] == 0 ||
				math.IsInf(ps.lb[j], -1) || math.IsInf(ps.ub[j], 1) {
				continue
			}
			h := uint64(14695981039346656037)
			mix := func(v uint64) {
				h ^= v
				h *= 1099511628211
			}
			for k := colOff[j]; k < colOff[j+1]; k++ {
				if i := cRow[k]; !ps.rowDead[i] {
					mix(uint64(i))
					mix(math.Float64bits(cVal[k]))
				}
			}
			mix(math.Float64bits(ps.cost[j]))
			merged := false
			if j0, ok := dupHead[h]; ok {
				for {
					if ps.cost[j0] == ps.cost[j] && sameLivePattern(ps, colOff, cRow, cVal, j0, j) {
						ps.post = append(ps.post, postAction{
							kind: postDuplicate, j: j, keep: j0,
							lb1: ps.lb[j0], ub1: ps.ub[j0], lb2: ps.lb[j], ub2: ps.ub[j],
						})
						ps.lb[j0] += ps.lb[j]
						ps.ub[j0] += ps.ub[j]
						ps.colDead[j] = true
						ps.colsRemoved++
						for k := colOff[j]; k < colOff[j+1]; k++ {
							if i := cRow[k]; !ps.rowDead[i] {
								liveInRow[i]--
							}
						}
						changed = true
						merged = true
						break
					}
					if dupNext[j0] < 0 {
						break
					}
					j0 = dupNext[j0]
				}
			}
			if !merged {
				if prev, ok := dupHead[h]; ok {
					dupNext[j] = prev
				} else {
					dupNext[j] = -1
				}
				dupHead[h] = j
			}
		}

		if !changed {
			break
		}
	}
	return ps
}

// sameLivePattern reports whether columns a and b have identical nonzero
// patterns and coefficients over the live rows.
func sameLivePattern(ps *presolveState, colOff, cRow []int, cVal []float64, a, b int) bool {
	ka, kb := colOff[a], colOff[b]
	endA, endB := colOff[a+1], colOff[b+1]
	for {
		for ka < endA && ps.rowDead[cRow[ka]] {
			ka++
		}
		for kb < endB && ps.rowDead[cRow[kb]] {
			kb++
		}
		if ka == endA || kb == endB {
			return ka == endA && kb == endB
		}
		if cRow[ka] != cRow[kb] || cVal[ka] != cVal[kb] {
			return false
		}
		ka++
		kb++
	}
}
