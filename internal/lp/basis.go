package lp

import "math"

// Basis is a warm-start handle: the simplex basis of a solved Problem,
// captured in model-level terms.  For every standard-form row (one per
// constraint, in insertion order) it records which column — a variable, a
// free variable's negative part, a constraint's slack, or a constraint's
// artificial — was basic there, and it records which nonbasic columns sat
// at their upper bound (the bounded standard form keeps every other
// nonbasic column at its lower bound, so only the at-upper set needs
// saving).  Because the entries are keyed by identities rather than column
// indices, a Basis stays meaningful after the Problem's bounds, right-hand
// sides, coefficients or costs are mutated, and even after
// re-standardization changes the column layout (e.g. a variable stops
// being free): a branch bound edited with SetBounds moves the at-upper
// value with it, which is what keeps milp's parent bases dual-feasible by
// construction.
//
// A Basis is immutable once captured and safe to share between solves; it is
// only ever read by SolveFrom.
type Basis struct {
	cols  []colIdent // basic column of row i, one per constraint
	upper []colIdent // nonbasic columns at their upper bound

	// Devex reference weights learned by the capturing solve, keyed like
	// everything else by column identity so they survive re-standardization.
	// Only weights above the unit reset value are stored (1 is what a fresh
	// framework assigns anyway).
	devexCols []colIdent
	devexW    []float64
}

// captureBasis records the current basis, nonbasic-at-upper statuses and
// learned devex reference weights of this standard form.  The
// weights arrive in sparse form — standard-form column indices paired with
// their >1 values — so a warm solve that never materialized a dense weight
// vector passes its carried entries through at O(entries), not O(columns).
// The capture is always full-model-sized: when the solve ran on a
// presolve-reduced form, each removed row's slot is seated with its own
// slack/artificial (see presolveState.fillIdent) so the basis installs on
// any later standardization — full or differently reduced — of the model.
func (s *standard) captureBasis(basis []int, atUpper []bool, devexCols []int, devexW []float64) *Basis {
	b := &Basis{cols: make([]colIdent, s.modelCons)}
	if s.ps != nil {
		for i := range b.cols {
			if s.ps.rowDead[i] {
				b.cols[i] = s.ps.fillIdent(i)
			}
		}
	}
	for i, bc := range basis {
		b.cols[s.rowOrig[i]] = s.colIDs[bc]
	}
	for j := range atUpper {
		if atUpper[j] {
			b.upper = append(b.upper, s.colIDs[j])
		}
	}
	if s.ps != nil {
		for _, j := range s.ps.deadAtUpper {
			b.upper = append(b.upper, colIdent{kind: identStruct, idx: j})
		}
	}
	if len(devexCols) > 0 {
		b.devexCols = make([]colIdent, 0, len(devexCols))
		b.devexW = make([]float64, 0, len(devexCols))
		for k, c := range devexCols {
			if wv := devexW[k]; wv > 1 && c < s.nCols {
				b.devexCols = append(b.devexCols, s.colIDs[c])
				b.devexW = append(b.devexW, wv)
			}
		}
	}
	return b
}

// installBasis maps a saved basis onto this standard form, returning one
// basic column per row plus the nonbasic-at-upper statuses and any carried
// devex reference weights in sparse form (nil when the basis carries none),
// or false when the saved basis does not translate: the constraint count
// changed, a referenced column no longer exists (a variable stopped being
// free, the row lost its artificial after an rhs sign change) or two rows
// map to the same column.  At-upper statuses degrade instead of failing: a
// status whose column disappeared, became basic, lost its finite upper
// bound or became fixed simply starts at the lower bound — the warm
// solver's feasibility checks route any resulting mismatch to the dual
// simplex or the cold fallback.  Weights degrade the same way: an identity
// that no longer resolves is dropped.
// A basis is always full-model-sized (one entry per model constraint); on a
// presolve-reduced form only the surviving rows' entries are consulted —
// entries for removed rows describe columns that no longer exist, which is
// exactly why they are ignored rather than translated.  The returned
// slices are solve scratch.
func (s *standard) installBasis(w *Basis) ([]int, []bool, []int, []float64, bool) {
	if w == nil || s.m == 0 || len(w.cols) != s.modelCons {
		return nil, nil, nil, nil, false
	}
	scr := s.scr
	scr.instBasis = grow(scr.instBasis, s.m)
	scr.instUsed = grow(scr.instUsed, s.nCols)
	scr.instUpper = grow(scr.instUpper, s.nCols)
	basis, used, atUpper := scr.instBasis, scr.instUsed, scr.instUpper
	clear(used)
	clear(atUpper)
	for i, mi := range s.rowOrig {
		c := s.colByIdent(w.cols[mi])
		if c < 0 || used[c] {
			return nil, nil, nil, nil, false
		}
		used[c] = true
		basis[i] = c
	}
	for _, cid := range w.upper {
		c := s.colByIdent(cid)
		if c < 0 || used[c] {
			continue
		}
		if u := s.upper[c]; u == 0 || math.IsInf(u, 1) {
			continue
		}
		atUpper[c] = true
	}
	var dvxCols []int
	var dvxW []float64
	if len(w.devexW) > 0 {
		scr.carriedIdx = grow(scr.carriedIdx, len(w.devexW))
		scr.carriedW = grow(scr.carriedW, len(w.devexW))
		dvxCols = scr.carriedIdx[:0]
		dvxW = scr.carriedW[:0]
		for k, cid := range w.devexCols {
			if c := s.colByIdent(cid); c >= 0 {
				if wv := w.devexW[k]; wv > 1 {
					dvxCols = append(dvxCols, c)
					dvxW = append(dvxW, wv)
				}
			}
		}
	}
	return basis, atUpper, dvxCols, dvxW, true
}

// colByIdent resolves a column identity on this standard form through the
// dense per-kind indices — colOf, negPart, and rowInv then slackOf/artOf —
// or returns -1 when the identity names no column here (out of range, a
// presolve-removed variable or row, a variable that is not split, a row
// without that slack or artificial).
func (s *standard) colByIdent(id colIdent) int {
	k := id.idx
	switch {
	case k < 0:
	case id.kind == identStruct && k < len(s.colOf):
		return s.colOf[k]
	case id.kind == identNeg && k < len(s.colOf):
		return s.negPart[k]
	case id.kind == identSlack && k < s.modelCons && s.rowInv[k] >= 0:
		return s.slackOf[s.rowInv[k]]
	case id.kind == identArt && k < s.modelCons && s.rowInv[k] >= 0:
		return s.artOf[s.rowInv[k]]
	}
	return -1
}

// emptyBasis is the capture for a rowless standard form: every model
// constraint (all presolve-removed when modelCons > 0) is seated with its
// fill slack/artificial, and columns parked at a finite nonzero upper bound
// record their at-upper status, so even a fully-presolved solve hands back
// a basis that warm-starts a later, less-reduced re-solve.
func (s *standard) emptyBasis(vals []float64) *Basis {
	b := &Basis{cols: make([]colIdent, s.modelCons)}
	for i := range b.cols {
		b.cols[i] = s.ps.fillIdent(i)
	}
	for j := 0; j < s.nTotal; j++ {
		if u := s.upper[j]; u > 0 && !math.IsInf(u, 1) && vals[j] == u {
			b.upper = append(b.upper, s.colIDs[j])
		}
	}
	if s.ps != nil {
		for _, j := range s.ps.deadAtUpper {
			b.upper = append(b.upper, colIdent{kind: identStruct, idx: j})
		}
	}
	return b
}
