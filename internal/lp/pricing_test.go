package lp

import (
	"math"
	"testing"
)

// partitionShapedLP mirrors the scheduler's 48-hour workload-partitioning
// LP (internal/sched): per DC and hour a load, migration and brown-energy
// variable, hourly placement equalities, migration-smoothing GE rows,
// brown-balance GE rows and capacity LE rows.  Long and thin with massive
// ratio-test degeneracy — the shape devex pricing exists for.
func partitionShapedLP(t testing.TB, nDC, horizon int, phase float64) *Problem {
	t.Helper()
	const totalLoad = 900.0
	prob := NewProblem(Minimize)
	load := make([][]Var, nDC)
	mig := make([][]Var, nDC)
	brown := make([][]Var, nDC)
	for d := 0; d < nDC; d++ {
		load[d] = make([]Var, horizon)
		mig[d] = make([]Var, horizon)
		brown[d] = make([]Var, horizon)
		price := 0.08 + 0.01*float64(d)
		for h := 0; h < horizon; h++ {
			load[d][h] = prob.MustVariable("load", 0, Infinity, 0)
			mig[d][h] = prob.MustVariable("mig", 0, Infinity, price*0.1)
			brown[d][h] = prob.MustVariable("brown", 0, Infinity, price)
		}
	}
	for h := 0; h < horizon; h++ {
		terms := make([]Term, nDC)
		for d := 0; d < nDC; d++ {
			terms[d] = Term{Var: load[d][h], Coeff: 1}
		}
		if err := prob.AddConstraint("place", EQ, totalLoad, terms...); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < nDC; d++ {
		for h := 0; h < horizon; h++ {
			green := 600 * math.Max(0, math.Sin(float64(h+8*d)/24*2*math.Pi+phase))
			terms := []Term{{Var: mig[d][h], Coeff: 1}, {Var: load[d][h], Coeff: 1}}
			rhs := 0.0
			if h == 0 {
				rhs = totalLoad / float64(nDC)
			} else {
				terms = append(terms, Term{Var: load[d][h-1], Coeff: -1})
			}
			if err := prob.AddConstraint("migOut", GE, rhs, terms...); err != nil {
				t.Fatal(err)
			}
			if err := prob.AddConstraint("brown", GE, -green,
				Term{Var: brown[d][h], Coeff: 1},
				Term{Var: load[d][h], Coeff: -1.08},
				Term{Var: mig[d][h], Coeff: -1.08}); err != nil {
				t.Fatal(err)
			}
			if err := prob.AddConstraint("cap", LE, totalLoad,
				Term{Var: load[d][h], Coeff: 1},
				Term{Var: mig[d][h], Coeff: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return prob
}

// TestPricingRulesAgreeOnPartitionLP pins devex against the frozen
// dense-tableau reference, which prices by Dantzig's rule with a Bland
// backstop, on the partition-shaped LP across several green-supply phases:
// the two rules must reach the same optimal objective (the vertices may
// differ — degenerate instances have alternative optima), and the devex
// solution must satisfy the model directly.
func TestPricingRulesAgreeOnPartitionLP(t *testing.T) {
	for k, phase := range []float64{0, 0.7, 1.3, 2.1, 2.6} {
		prob := partitionShapedLP(t, 3, 48, phase)
		sol, err := prob.Solve()
		if err != nil {
			t.Fatalf("phase %v: devex: %v", phase, err)
		}
		ref, err := denseSolve(prob)
		if err != nil {
			t.Fatalf("phase %v: dense reference: %v", phase, err)
		}
		if diff := math.Abs(sol.Objective - ref.Objective); diff > 1e-9*math.Max(1, math.Abs(ref.Objective)) {
			t.Errorf("phase %v: devex objective %v, dense %v", phase, sol.Objective, ref.Objective)
		}
		checkModelFeasible(t, k, prob, sol)
		t.Logf("phase %v: pivots=%4d flips=%3d refactor=%2d resets=%2d",
			phase, sol.Stats.Pivots, sol.Stats.BoundFlips, sol.Stats.Refactorizations,
			sol.Stats.DevexResets)
	}
}

// TestWidePartitionLPPresolveAgrees solves the partition-shaped LP at 30
// datacenters × 48 hours — 4368 rows and 8640 standard-form columns, far
// wider than any LP the scheduler or the siting MILP builds — with presolve
// on and off.  The dense reference is too slow at this size, so the two
// solves check each other: both optimal, the same objective, and each
// solution feasible in the model.
func TestWidePartitionLPPresolveAgrees(t *testing.T) {
	for k, phase := range []float64{0, 1.3} {
		prob := partitionShapedLP(t, 30, 48, phase)
		on, err := prob.Solve()
		if err != nil {
			t.Fatalf("phase %v: presolve on: %v", phase, err)
		}
		off, err := prob.SolveWithOptions(SolveOptions{Presolve: PresolveOff})
		if err != nil {
			t.Fatalf("phase %v: presolve off: %v", phase, err)
		}
		if on.Status != Optimal || off.Status != Optimal {
			t.Fatalf("phase %v: status on %v, off %v; want both optimal", phase, on.Status, off.Status)
		}
		if diff := math.Abs(on.Objective - off.Objective); diff > 1e-9*math.Max(1, math.Abs(off.Objective)) {
			t.Errorf("phase %v: presolve-on objective %v, presolve-off %v", phase, on.Objective, off.Objective)
		}
		checkModelFeasible(t, 2*k, prob, on)
		checkModelFeasible(t, 2*k+1, prob, off)
		t.Logf("phase %v: pivots on=%d off=%d", phase, on.Stats.Pivots, off.Stats.Pivots)
	}
}
