package lp

import "math"

// Standard-form column identities.  The revised simplex works on column
// indices of one particular standardization; a Basis must survive
// re-standardization after bound/rhs mutations, so it stores these
// model-level identities instead and installBasis maps them back to column
// indices.

const (
	identStruct = int8(iota) // structural column of variable idx
	identNeg                 // negative part of free variable idx
	identSlack               // slack/surplus column of constraint idx
	identArt                 // artificial column of constraint idx
)

// colIdent names a standard-form column.  For identSlack/identArt, idx is
// the constraint the column belongs to; rows themselves need no identity
// because the standard form has exactly one row per model constraint, in
// insertion order (variable bounds never spawn rows).
type colIdent struct {
	kind int8
	idx  int
}

// standard is the problem in computational bounded standard form —
// minimize c·y subject to A·y = b, 0 ≤ y ≤ u (u may be +Inf per column,
// and 0 for a fixed variable), b ≥ 0 — with A stored column-wise (CSC):
// column j's nonzeros are rowIdx/vals[colPtr[j]:colPtr[j+1]], row indices
// ascending.  Columns are laid out structural [0, nStruct), slack/surplus
// [nStruct, nTotal), artificial [nTotal, nCols).
//
// Variable bounds are implicit data, never rows: a variable with a finite
// lower bound is shifted (y = x − lb, u = ub − lb), a variable with lb = −∞
// but a finite upper bound is mirrored (y = ub − x, u = +∞, coefficients
// and cost negated), and only a doubly-free variable is split x = x⁺ − x⁻.
// The simplex keeps nonbasic columns at either bound (see revised.go), so
// tightening or relaxing a bound is a pure data edit: the row count — and
// with it the basis dimension and the LU — is always exactly the model's
// constraint count.
//
// A Problem owns one standard (solveScratch.std) and standardize refills
// its slices in place on every solve, so a warm re-solve chain allocates no
// standard form at all; nothing here escapes into a Solution or a Basis.
type standard struct {
	m       int
	nStruct int
	nTotal  int
	nCols   int

	colPtr []int
	rowIdx []int
	vals   []float64

	b []float64
	c []float64 // phase-2 objective (sense-normalized), zero on slack/artificial

	// upper[j] is column j's upper bound: ub−lb for shifted structural
	// columns (0 when the variable is fixed), +Inf for mirrored/split
	// structural columns and for every slack, surplus and artificial.
	upper []float64

	// slackOf[i]/artOf[i] is row i's slack/artificial column, or -1.
	slackOf []int
	artOf   []int

	colIDs []colIdent

	// shift maps original variable index to its lower bound (y = x − lb),
	// or to its upper bound when mirror[j] is set (y = ub − x).
	shift  []float64
	mirror []bool
	// negPart[j] is the column index of the negative part of original
	// variable j when it is doubly free (split x = x⁺ − x⁻), or -1.
	negPart []int

	// Model-index plumbing.  modelCons is the model's constraint count (== m
	// when presolve removed nothing or did not run); rowOrig maps each
	// standard-form row to its model constraint and rowInv each model
	// constraint to its standard-form row (-1 when presolve removed it);
	// colOf maps each model variable to its primary structural column (-1
	// when presolve eliminated it).  With negPart they resolve every column
	// identity without a lookup table (see colByIdent).  ps is the reduction
	// record recover replays and captureBasis consults for removed-row fill
	// identities.
	modelCons int
	rowOrig   []int
	rowInv    []int
	colOf     []int
	ps        *presolveState

	// rowSign[i] is −1 when row i was negated to make b[i] ≥ 0, else 1.
	rowSign []float64

	// Row-major mirror of the CSC nonzeros over the priced columns
	// (j < nTotal), built lazily by buildRows for the pivot-update scatter;
	// rowsBuilt says whether it describes the current form.
	rowsBuilt bool
	rowPtr    []int
	rowCols   []int
	rowVals   []float64
	rowNext   []int

	// scr is the owning Problem's solve scratch, which also holds the
	// solver, the presolve working set and the devex weight staging.
	scr *solveScratch
}

// solveScratch holds solve-lifetime buffers reused across a Problem's
// solves.  A Problem is documented not safe for concurrent use, so its
// solves are sequential and one set of buffers suffices; nothing carved
// from here escapes into a Solution or a Basis (values, basis captures and
// devex weight captures are all freshly copied out).
type solveScratch struct {
	mat modelMatrix
	std standard
	sv  solver

	// installBasis's translated basis, its column-use marks and its
	// nonbasic-at-upper statuses.
	instBasis []int
	instUsed  []bool
	instUpper []bool

	// Devex primal (per column) and dual (per row) reference weights.
	devexW []float64
	rowW   []float64

	// Sparse devex weight staging for the warm-start cycle: carried* backs
	// installBasis's mapped column/weight pairs (consumed by the solver's
	// first weight materialization), captured* backs devexWeights's
	// capture-time extraction (copied into the Basis by captureBasis).
	// Distinct pairs: the carried arrays can still be live — un-consumed —
	// when capture runs on a zero-pivot solve.
	carriedIdx  []int
	carriedW    []float64
	capturedIdx []int
	capturedW   []float64

	// Presolve working set (see Problem.presolve): the presolveState itself
	// (its masks and working bounds live until the next solve — basis
	// captures and postsolved values are copied out, never aliased), the
	// warm-basis protection masks, the live-entry counts and the
	// duplicate-column hash chains.
	ps         presolveState
	preProtRow []bool
	preProtCol []bool
	preLock    []bool
	preLiveRow []int
	preLiveCol []int
	preDupHead map[uint64]int
	preDupNext []int
}

// modelMatrix is the model's constraint matrix with each row's duplicate
// terms summed in first-seen order and zero sums dropped, held row-wise
// (rowOff/rCol/rVal) and mirrored column-wise (colOff/cRow/cVal).  It is
// the one aggregation of the terms that presolve and standardize both read.
// The mutations of a warm re-solve chain (SetRHS, SetBounds, SetCost) leave
// it unchanged, so it is cached on the Problem's structVer and rebuilt, in
// O(nnz) into the same buffers, only after a structural edit.
type modelMatrix struct {
	built bool
	ver   uint64

	rowOff []int
	rCol   []int
	rVal   []float64
	colOff []int
	cRow   []int
	cVal   []float64

	// Build working set: per-variable sums of the current row, first-seen
	// marks, the variables they touched, and the column fill cursor.
	acc     []float64
	seen    []bool
	touched []int
	next    []int
}

// matrix returns the aggregated constraint matrix, rebuilding it first when
// the structure changed since the last build.
func (p *Problem) matrix() *modelMatrix {
	a := &p.scr.mat
	if a.built && a.ver == p.structVer {
		return a
	}
	n, m := len(p.vars), len(p.cons)
	nnz := 0
	for _, c := range p.cons {
		nnz += len(c.terms)
	}
	a.rowOff = grow(a.rowOff, m+1)
	a.rCol = grow(a.rCol, nnz)[:0]
	a.rVal = grow(a.rVal, nnz)[:0]
	a.acc = grow(a.acc, n)
	a.seen = grow(a.seen, n)
	clear(a.acc)
	clear(a.seen)
	touched := a.touched[:0]
	a.rowOff[0] = 0
	for i, c := range p.cons {
		for _, j := range touched {
			a.acc[j], a.seen[j] = 0, false
		}
		touched = touched[:0]
		for _, t := range c.terms {
			j := int(t.Var)
			if !a.seen[j] {
				a.seen[j] = true
				touched = append(touched, j)
			}
			a.acc[j] += t.Coeff
		}
		for _, j := range touched {
			if a.acc[j] != 0 {
				a.rCol = append(a.rCol, j)
				a.rVal = append(a.rVal, a.acc[j])
			}
		}
		a.rowOff[i+1] = len(a.rCol)
	}
	a.touched = touched

	a.colOff = grow(a.colOff, n+1)
	clear(a.colOff)
	for _, j := range a.rCol {
		a.colOff[j+1]++
	}
	for j := 0; j < n; j++ {
		a.colOff[j+1] += a.colOff[j]
	}
	a.cRow = grow(a.cRow, len(a.rCol))
	a.cVal = grow(a.cVal, len(a.rCol))
	a.next = grow(a.next, n)
	copy(a.next, a.colOff[:n])
	for i := 0; i < m; i++ {
		for k := a.rowOff[i]; k < a.rowOff[i+1]; k++ {
			j := a.rCol[k]
			pos := a.next[j]
			a.next[j]++
			a.cRow[pos] = i
			a.cVal[pos] = a.rVal[k]
		}
	}
	a.built, a.ver = true, p.structVer
	return a
}

// col returns column j's nonzeros.
func (s *standard) col(j int) ([]int, []float64) {
	lo, hi := s.colPtr[j], s.colPtr[j+1]
	return s.rowIdx[lo:hi], s.vals[lo:hi]
}

// buildRows materializes the row-major mirror of the priced columns
// (j < nTotal; artificials never re-enter pricing).  One counting sort over
// the CSC nonzeros, done once per standard form on first use.
func (s *standard) buildRows() {
	if s.rowsBuilt {
		return
	}
	end := s.colPtr[s.nTotal]
	s.rowPtr = grow(s.rowPtr, s.m+1)
	s.rowCols = grow(s.rowCols, end)
	s.rowVals = grow(s.rowVals, end)
	s.rowNext = grow(s.rowNext, s.m)
	ptr, cols, vals, next := s.rowPtr, s.rowCols, s.rowVals, s.rowNext
	clear(ptr)
	for _, r := range s.rowIdx[:end] {
		ptr[r+1]++
	}
	for r := 0; r < s.m; r++ {
		ptr[r+1] += ptr[r]
	}
	copy(next, ptr[:s.m])
	for j := 0; j < s.nTotal; j++ {
		for p := s.colPtr[j]; p < s.colPtr[j+1]; p++ {
			r := s.rowIdx[p]
			k := next[r]
			next[r] = k + 1
			cols[k] = j
			vals[k] = s.vals[p]
		}
	}
	s.rowsBuilt = true
}

// scatterRows accumulates alpha[j] += (row r of A)·y[r] over the rows where
// y is nonzero — alpha = Aᵀ·y across every priced column in one sequential
// pass, instead of a per-column gather with its per-column slice overhead.
// The whole-row skip on y[r] == 0 is worth its branch: unlike a per-element
// skip it elides an entire row of multiply-adds.  alpha must arrive zeroed.
func (s *standard) scatterRows(y, alpha []float64) {
	s.buildRows()
	for r := 0; r < s.m; r++ {
		yr := y[r]
		if yr == 0 {
			continue
		}
		for p := s.rowPtr[r]; p < s.rowPtr[r+1]; p++ {
			alpha[s.rowCols[p]] += s.rowVals[p] * yr
		}
	}
}

// colDot returns column j · y, with y indexed by row.  The multiply-add is
// unconditional on purpose: y's zero pattern is data-dependent (a BTRAN row
// of the inverse), so a skip branch mispredicts far more than the multiply
// it saves costs.
func (s *standard) colDot(j int, y []float64) float64 {
	rows, vals := s.col(j)
	d := 0.0
	for k, r := range rows {
		d += vals[k] * y[r]
	}
	return d
}

// standardize converts the model into computational standard form, refilling
// the Problem's one standard in place.  When ps is non-nil the reduced model
// is built instead: presolve-removed rows and columns are skipped (their
// substituted contributions already live in ps.rhs), surviving columns use
// the presolve-tightened bounds and transferred costs, and every colIdent —
// including slack/artificial row identities — is expressed in model indices,
// so a Basis captured on the reduced form installs on any later
// standardization and vice versa.
//
// Coefficients come from the aggregated matrix (Problem.matrix), negated for
// a mirrored column and for a row flipped to b ≥ 0; the right-hand side
// subtracts each raw term's shift in term order.
func (p *Problem) standardize(ps *presolveState) *standard {
	n, mc := len(p.vars), len(p.cons)
	mat := p.matrix()
	std := &p.scr.std
	std.scr, std.ps, std.modelCons, std.rowsBuilt = &p.scr, ps, mc, false
	std.shift = grow(std.shift, n)
	std.mirror = grow(std.mirror, n)
	std.negPart = grow(std.negPart, n)
	std.colOf = grow(std.colOf, n)

	// Structural columns: one per surviving variable, plus one extra per
	// doubly-free variable (x = x⁺ − x⁻ when lb = −inf and ub = +inf).
	col := 0
	for j, v := range p.vars {
		std.negPart[j], std.mirror[j], std.shift[j] = -1, false, 0
		lb, ub := v.lb, v.ub
		if ps != nil {
			if ps.colDead[j] {
				std.colOf[j] = -1
				continue
			}
			lb, ub = ps.lb[j], ps.ub[j]
		}
		std.colOf[j] = col
		col++
		switch {
		case !math.IsInf(lb, -1):
			std.shift[j] = lb
		case !math.IsInf(ub, 1):
			// lb = −∞, ub finite: mirror y = ub − x.
			std.mirror[j] = true
			std.shift[j] = ub
		default:
			std.negPart[j] = col
			col++
		}
	}
	std.nStruct = col

	// Rows: exactly the surviving constraints, in insertion order, each
	// normalized to b ≥ 0.  An inequality row gets the next slack column; an
	// artificial is marked here (artOf = 0) and numbered once the slack count
	// fixes where the artificials start.
	std.rowOrig = grow(std.rowOrig, mc)[:0]
	std.rowInv = grow(std.rowInv, mc)
	std.b = grow(std.b, mc)[:0]
	std.rowSign = grow(std.rowSign, mc)[:0]
	std.slackOf = grow(std.slackOf, mc)[:0]
	std.artOf = grow(std.artOf, mc)[:0]
	slackCol := std.nStruct
	for ci, c := range p.cons {
		std.rowInv[ci] = -1
		rhs := c.rhs
		if ps != nil {
			if ps.rowDead[ci] {
				continue
			}
			rhs = ps.rhs[ci]
		}
		for _, t := range c.terms {
			if j := int(t.Var); std.colOf[j] >= 0 {
				rhs -= t.Coeff * std.shift[j]
			}
		}
		op, sg := c.op, 1.0
		if rhs < 0 {
			rhs, sg = -rhs, -1
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		slack, art := -1, -1
		if op != EQ {
			slack = slackCol
			slackCol++
		}
		if op != LE {
			art = 0
		}
		std.rowInv[ci] = len(std.rowOrig)
		std.rowOrig = append(std.rowOrig, ci)
		std.b = append(std.b, rhs)
		std.rowSign = append(std.rowSign, sg)
		std.slackOf = append(std.slackOf, slack)
		std.artOf = append(std.artOf, art)
	}
	std.m = len(std.rowOrig)
	std.nTotal = slackCol
	artCol := std.nTotal
	for i, a := range std.artOf {
		if a >= 0 {
			std.artOf[i] = artCol
			artCol++
		}
	}
	std.nCols = artCol

	// Columns in layout order: objective, upper bound, identity — always in
	// model indices, so a Basis survives any mix of presolved and full
	// standardizations — and CSC entries.  A structural column is its model
	// column's entries in the surviving rows (ascending, as the column mirror
	// holds them), negated for a mirror and for a flipped row; a split
	// variable's negative part follows it, negated once more.  Slack,
	// surplus and artificial columns are unit columns of their rows.
	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}
	std.c = grow(std.c, std.nCols)
	std.upper = grow(std.upper, std.nCols)
	std.colIDs = grow(std.colIDs, std.nCols)
	std.colPtr = append(std.colPtr[:0], 0)
	std.rowIdx, std.vals = std.rowIdx[:0], std.vals[:0]
	addCol := func(c int, cost, upper float64, id colIdent) {
		std.c[c], std.upper[c], std.colIDs[c] = cost, upper, id
		std.colPtr = append(std.colPtr, len(std.rowIdx))
	}
	structEntries := func(j int, sgn float64) {
		for k := mat.colOff[j]; k < mat.colOff[j+1]; k++ {
			if i := std.rowInv[mat.cRow[k]]; i >= 0 {
				std.rowIdx = append(std.rowIdx, i)
				std.vals = append(std.vals, std.rowSign[i]*(sgn*mat.cVal[k]))
			}
		}
	}
	for j, v := range p.vars {
		c := std.colOf[j]
		if c < 0 {
			continue
		}
		lb, ub, cost := v.lb, v.ub, v.cost
		if ps != nil {
			lb, ub, cost = ps.lb[j], ps.ub[j], ps.cost[j]
		}
		sgn := 1.0 // coefficient multiplier of the primary column
		if std.mirror[j] {
			sgn = -1
		}
		u := math.Inf(1)
		if !math.IsInf(lb, -1) && !math.IsInf(ub, 1) {
			u = ub - lb
		}
		structEntries(j, sgn)
		addCol(c, sign*sgn*cost, u, colIdent{kind: identStruct, idx: j})
		if nc := std.negPart[j]; nc >= 0 {
			structEntries(j, -1)
			addCol(nc, -sign*cost, math.Inf(1), colIdent{kind: identNeg, idx: j})
		}
	}
	for i, sc := range std.slackOf {
		if sc >= 0 {
			sv := 1.0 // a ≤ row's slack; a ≥ row's surplus (it has an artificial) is −1
			if std.artOf[i] >= 0 {
				sv = -1
			}
			std.rowIdx, std.vals = append(std.rowIdx, i), append(std.vals, sv)
			addCol(sc, 0, math.Inf(1), colIdent{kind: identSlack, idx: std.rowOrig[i]})
		}
	}
	for i, ac := range std.artOf {
		if ac >= 0 {
			std.rowIdx, std.vals = append(std.rowIdx, i), append(std.vals, 1)
			addCol(ac, 0, math.Inf(1), colIdent{kind: identArt, idx: std.rowOrig[i]})
		}
	}
	return std
}

// recover maps standard-form column values back to the original variables,
// then replays the postsolve stack to restore presolve-eliminated ones.
func (s *standard) recover(values []float64) []float64 {
	out := make([]float64, len(s.shift))
	for j := range s.shift {
		col := s.colOf[j]
		if col < 0 {
			continue // presolve-eliminated; postsolve fills it below
		}
		v := values[col]
		switch {
		case s.mirror[j]:
			v = s.shift[j] - v
		case s.negPart[j] >= 0:
			v -= values[s.negPart[j]]
			v += s.shift[j]
		default:
			v += s.shift[j]
		}
		out[j] = v
	}
	if s.ps != nil {
		s.ps.postsolve(out)
	}
	return out
}
