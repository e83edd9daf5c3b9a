package lp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// cloneProblem builds a fresh Problem from p's model — same variables,
// constraints and terms in the same order — with none of p's solve scratch.
func cloneProblem(p *Problem) *Problem {
	q := NewProblem(p.sense)
	for _, v := range p.vars {
		q.MustVariable(v.name, v.lb, v.ub, v.cost)
	}
	for _, c := range p.cons {
		if err := q.AddConstraint(c.name, c.op, c.rhs, c.terms...); err != nil {
			panic(err)
		}
	}
	return q
}

// solveReusedAndFresh solves p — whose standard form, aggregated matrix and
// solver memory are reused from its earlier solves — and a freshly built
// clone of it from the same warm basis, and fails unless the two agree bit
// for bit: error, status, objective, values, Stats (wall-clock
// PresolveNanos aside) and the captured Basis.  It returns p's solution.
func solveReusedAndFresh(t *testing.T, label string, p *Problem, warm *Basis, opts SolveOptions) *Solution {
	t.Helper()
	got, errGot := p.SolveFromWithOptions(warm, opts)
	want, errWant := cloneProblem(p).SolveFromWithOptions(warm, opts)
	if !errors.Is(errGot, errWant) || !errors.Is(errWant, errGot) {
		t.Fatalf("%s: reused err %v, fresh err %v", label, errGot, errWant)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: reused solution %v, fresh %v", label, got, want)
	}
	if got == nil {
		return nil
	}
	if got.Status != want.Status {
		t.Fatalf("%s: reused status %v, fresh %v", label, got.Status, want.Status)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: reused objective %v, fresh %v", label, got.Objective, want.Objective)
	}
	gv, wv := got.Values(), want.Values()
	if len(gv) != len(wv) {
		t.Fatalf("%s: %d values reused, %d fresh", label, len(gv), len(wv))
	}
	for j := range gv {
		if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
			t.Fatalf("%s: value[%d] reused %v, fresh %v", label, j, gv[j], wv[j])
		}
	}
	gs, ws := got.Stats, want.Stats
	gs.PresolveNanos, ws.PresolveNanos = 0, 0
	if gs != ws {
		t.Fatalf("%s: reused stats %+v, fresh %+v", label, gs, ws)
	}
	if !reflect.DeepEqual(got.Basis(), want.Basis()) {
		t.Fatalf("%s: reused basis %+v, fresh %+v", label, got.Basis(), want.Basis())
	}
	return got
}

// TestReusedFormMatchesFreshBuild pins the persistent standard form: a
// Problem refills one standard form, one aggregated matrix and one solver's
// memory across its solves, and a warm chain of edits must solve exactly as
// a freshly built model would from the same basis — including the edits
// that change the layout of the form.  Presolve on and off.
func TestReusedFormMatchesFreshBuild(t *testing.T) {
	for _, mode := range []PresolveMode{PresolveAuto, PresolveOff} {
		opts := SolveOptions{Presolve: mode}
		p := NewProblem(Minimize)
		x0 := p.MustVariable("x0", 0, 10, 1)
		x1 := p.MustVariable("x1", 0, Infinity, 2)
		x2 := p.MustVariable("x2", -5, 5, -1)
		x3 := p.MustVariable("x3", 0, 8, 0.5)
		x4 := p.MustVariable("x4", 1, 6, -0.3)
		for _, c := range []struct {
			op    Op
			rhs   float64
			terms []Term
		}{
			{GE, 3, []Term{{x0, 1}, {x1, 1}, {x2, 0.5}, {x2, 0.5}}}, // duplicate terms
			{LE, 12, []Term{{x0, 1}, {x3, -1}, {x4, 2}}},
			{EQ, 4, []Term{{x1, 1}, {x3, 1}}},
			{LE, 7, []Term{{x2, 1}, {x4, 1}, {x0, -1}}},
		} {
			if err := p.AddConstraint("c", c.op, c.rhs, c.terms...); err != nil {
				t.Fatal(err)
			}
		}
		// layout reports the standard form the last solve of p built.
		layout := func() (nStruct, nCols, nnz int) {
			s := &p.scr.std
			return s.nStruct, s.nCols, s.colPtr[s.nCols]
		}
		edits := []struct {
			name string
			edit func() error
			// check, with presolve off, asserts the layout change the edit
			// must cause relative to the previous solve's form.
			check func(dStruct, dCols, dNNZ int) bool
		}{
			{"rhs", func() error { return p.SetRHS(0, 4) }, nil},
			{"cost", func() error { return p.SetCost(x1, 1.5) }, nil},
			{"bounds", func() error { return p.SetBounds(x3, 0, 3) }, nil},
			{"coeff to zero", func() error { return p.SetCoeff(1, x3, 0) },
				func(_, _, dNNZ int) bool { return dNNZ == -1 }},
			{"coeff back", func() error { return p.SetCoeff(1, x3, -1) },
				func(_, _, dNNZ int) bool { return dNNZ == 1 }},
			{"rhs flips LE to GE", func() error { return p.SetRHS(3, -8) },
				func(_, dCols, _ int) bool { return dCols == 1 }},
			{"lower bound to -inf (mirror)", func() error { return p.SetBounds(x2, math.Inf(-1), 5) }, nil},
			{"both bounds infinite (split)", func() error { return p.SetBounds(x2, math.Inf(-1), Infinity) },
				func(dStruct, _, _ int) bool { return dStruct == 1 }},
			{"coeff on split variable", func() error { return p.SetCoeff(0, x2, 0.75) }, nil},
			{"add constraint", func() error { return p.AddConstraint("c4", LE, 9, Term{x0, 1}, Term{x1, 1}) },
				func(_, dCols, _ int) bool { return dCols == 1 }},
			{"rhs on new row", func() error { return p.SetRHS(4, 8) }, nil},
			{"bounds back", func() error { return p.SetBounds(x2, -5, 5) },
				func(dStruct, _, _ int) bool { return dStruct == -1 }},
			{"rhs flips back", func() error { return p.SetRHS(3, 7) },
				func(_, dCols, _ int) bool { return dCols == -1 }},
			{"cost and rhs", func() error {
				if err := p.SetCost(x4, 0.2); err != nil {
					return err
				}
				return p.SetRHS(2, 5)
			}, nil},
		}
		sol := solveReusedAndFresh(t, "initial", p, nil, opts)
		basis := sol.Basis()
		for _, e := range edits {
			s0, c0, z0 := layout()
			if err := e.edit(); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			sol := solveReusedAndFresh(t, e.name, p, basis, opts)
			if s1, c1, z1 := layout(); mode == PresolveOff && e.check != nil && !e.check(s1-s0, c1-c0, z1-z0) {
				t.Fatalf("%s: layout moved by (struct %d, cols %d, nnz %d), not as the edit requires",
					e.name, s1-s0, c1-c0, z1-z0)
			}
			if b := sol.Basis(); b != nil {
				basis = b
			}
		}
	}
}

// TestReusedFormMatchesFreshBuildRandom runs the same comparison over
// randomized warm chains of the three differential families and the
// partition-shaped LP, with coefficient rewrites mixed into the rhs and
// bound edits.
func TestReusedFormMatchesFreshBuildRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		opts := SolveOptions{Presolve: PresolveMode(trial % 2)}
		p := drawDifferentialProblem(rng, trial)
		if trial%10 == 0 {
			p = partitionShapedLP(t, 2, 6, float64(trial))
		}
		sol := solveReusedAndFresh(t, "cold", p, nil, opts)
		basis := sol.Basis()
		for step := 0; step < 4; step++ {
			mutateProblem(rng, p)
			if i := rng.Intn(p.NumConstraints() + 1); i < p.NumConstraints() && len(p.cons[i].terms) > 0 {
				tm := p.cons[i].terms[rng.Intn(len(p.cons[i].terms))]
				if err := p.SetCoeff(i, tm.Var, float64(rng.Intn(3))-1); err != nil {
					t.Fatal(err)
				}
			}
			if sol := solveReusedAndFresh(t, "warm", p, basis, opts); sol != nil && sol.Basis() != nil {
				basis = sol.Basis()
			}
		}
	}
}
