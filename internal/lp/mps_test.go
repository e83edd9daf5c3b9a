package lp

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMPSRoundTrip writes differential-suite LPs to MPS, reads them back
// and requires the round-tripped model to reproduce the original solve:
// same status, same objective, same variable values.
func TestMPSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60221))
	solved, statuses := 0, map[Status]int{}
	for trial := 0; trial < 120; trial++ {
		p := drawDifferentialProblem(rng, trial)
		var buf bytes.Buffer
		if err := p.WriteMPS(&buf); err != nil {
			t.Fatalf("trial %d: WriteMPS: %v", trial, err)
		}
		q, err := ReadMPS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: ReadMPS: %v\n%s", trial, err, buf.String())
		}
		if q.NumVariables() != p.NumVariables() || q.NumConstraints() != p.NumConstraints() {
			t.Fatalf("trial %d: round trip changed shape: %dx%d vs %dx%d", trial,
				q.NumConstraints(), q.NumVariables(), p.NumConstraints(), p.NumVariables())
		}
		a, errA := p.Solve()
		b, errB := q.Solve()
		if (errA == nil) != (errB == nil) || a.Status != b.Status {
			t.Fatalf("trial %d: original %v (%v), round trip %v (%v)",
				trial, a.Status, errA, b.Status, errB)
		}
		statuses[a.Status]++
		if a.Status != Optimal {
			continue
		}
		solved++
		tol := 1e-9 * (1 + math.Abs(a.Objective))
		if !almostEqual(a.Objective, b.Objective, tol) {
			t.Fatalf("trial %d: objective %v vs %v after round trip", trial, a.Objective, b.Objective)
		}
		for j := 0; j < p.NumVariables(); j++ {
			va, vb := a.Value(Var(j)), b.Value(Var(j))
			if !almostEqual(va, vb, 1e-7*(1+math.Abs(va))) {
				t.Fatalf("trial %d: x%d = %v vs %v after round trip", trial, j, va, vb)
			}
		}
	}
	if solved == 0 {
		t.Fatalf("no optimal instances in the round-trip sweep: %v", statuses)
	}
	t.Logf("round-tripped 120 LPs: %v", statuses)
}

// TestMPSWriteMaximize pins that the writer records the sense: a Maximize
// model must come back maximizing, not defaulting to the MPS minimize.
func TestMPSWriteMaximize(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.MustVariable("x", 0, 10, 1)
	if err := p.AddConstraint("c", LE, 4, Term{x, 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteMPS(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "OBJSENSE") {
		t.Fatalf("Maximize model wrote no OBJSENSE:\n%s", buf.String())
	}
	q, err := ReadMPS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := q.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sol.Objective, 4, 1e-9) {
		t.Fatalf("round-tripped objective = %v, want 4 (sense lost?)", sol.Objective)
	}
}

// TestMPSReadFixedFormat feeds a classic fixed-format file — comment lines,
// an RHS set name, a RANGES section and the full BOUNDS menu — and checks
// every dialect rule lands.
func TestMPSReadFixedFormat(t *testing.T) {
	const src = `* fixed-format sample in the classic column layout
NAME          SAMPLE
ROWS
 N  OBJ
 L  LIM1
 G  LIM2
 E  BAL
COLUMNS
    X1        OBJ            1.0   LIM1           1.0
    X1        LIM2           1.0
    X2        OBJ            2.0   LIM1           1.0
    X2        BAL            1.0
    X3        OBJ           -1.0   LIM2           1.0
    X3        BAL            1.0
RHS
    RHS       LIM1           4.0   LIM2           1.0
    RHS       BAL            3.0
RANGES
    RNG       LIM2           2.0
BOUNDS
 UP BND       X1             4.0
 LO BND       X2             0.5
 MI BND       X3
ENDATA
`
	p, err := ReadMPS(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadMPS: %v", err)
	}
	if p.NumVariables() != 3 {
		t.Fatalf("read %d variables, want 3", p.NumVariables())
	}
	// LIM2 is ranged (G 1.0, range 2.0 → 1 ≤ ax ≤ 3), so it expands into
	// two constraints: LIM1, LIM2≥, LIM2≤, BAL.
	if p.NumConstraints() != 4 {
		t.Fatalf("read %d constraints, want 4 (ranged row splits)", p.NumConstraints())
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// minimize x1 + 2 x2 − x3  s.t.  x1+x2 ≤ 4, 1 ≤ x1+x3 ≤ 3, x2+x3 = 3,
	// x1 ≤ 4, x2 ≥ 0.5, x3 free-below.  Optimum pushes x3 as high as the
	// range allows with x1 at 0: x3 = 3, x2 = 0... but x2 ≥ 0.5, so
	// x2 = 0.5, x3 = 2.5, x1 ∈ [max(0, 1−2.5), …] → x1 = 0.
	want := 0 + 2*0.5 - 2.5
	if !almostEqual(sol.Objective, want, 1e-9) {
		t.Fatalf("objective = %v, want %v", sol.Objective, want)
	}
}

// TestMPSBoundQuirks pins the UP-negative rule and the remaining bound
// types (FX, FR, BV, LI/UI as integer-marked LO/UP).
func TestMPSBoundQuirks(t *testing.T) {
	const src = `NAME Q
ROWS
 N obj
 G r
COLUMNS
 neg obj 1 r 1
 fx obj 1 r 1
 fr obj 1 r 1
 bv obj 1 r 1
 ints obj 1 r 1
RHS
 r -100
BOUNDS
 UP neg -2
 FX fx 7
 FR fr
 LI ints -3
 UI ints 6
 BV bv
ENDATA
`
	p, err := ReadMPS(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadMPS: %v", err)
	}
	wantBounds := map[string][2]float64{
		"neg":  {math.Inf(-1), -2}, // UP < 0 without LO drops lb to −∞
		"fx":   {7, 7},
		"fr":   {math.Inf(-1), math.Inf(1)},
		"bv":   {0, 1},
		"ints": {-3, 6},
	}
	for j, v := range p.vars {
		want, ok := wantBounds[v.name]
		if !ok {
			t.Fatalf("unexpected variable %q", v.name)
		}
		if v.lb != want[0] || v.ub != want[1] {
			t.Errorf("var %d %q: bounds [%v, %v], want [%v, %v]", j, v.name, v.lb, v.ub, want[0], want[1])
		}
	}
}

// TestMPSErrors pins a few malformed inputs.
func TestMPSErrors(t *testing.T) {
	cases := map[string]string{
		"no ENDATA":    "NAME X\nROWS\n N obj\n",
		"unknown row":  "NAME X\nROWS\n N obj\nCOLUMNS\n x nosuch 1\nENDATA\n",
		"bad number":   "NAME X\nROWS\n N obj\n L r\nCOLUMNS\n x r abc\nENDATA\n",
		"bad section":  "NAME X\nROWZ\nENDATA\n",
		"bad row type": "NAME X\nROWS\n Q r\nENDATA\n",
	}
	for name, src := range cases {
		if _, err := ReadMPS(strings.NewReader(src)); err == nil {
			t.Errorf("%s: ReadMPS accepted malformed input", name)
		}
	}
}

// FuzzReadMPS feeds ReadMPS arbitrary bytes, seeded with the vendored
// instances under testdata/mps.  ReadMPS must never panic, and any model it
// accepts must survive WriteMPS → ReadMPS with the same variable and
// constraint counts; writing the re-read model must reproduce the first
// write byte for byte (the writer's output is a fixed point of the reader).
func FuzzReadMPS(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "mps", "*.mps"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no vendored MPS seeds (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadMPS(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := p.WriteMPS(&first); err != nil {
			t.Fatalf("accepted model does not write: %v", err)
		}
		q, err := ReadMPS(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written model does not read back: %v\n%s", err, first.String())
		}
		if q.NumVariables() != p.NumVariables() || q.NumConstraints() != p.NumConstraints() {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d\n%s",
				q.NumConstraints(), q.NumVariables(), p.NumConstraints(), p.NumVariables(), first.String())
		}
		var second bytes.Buffer
		if err := q.WriteMPS(&second); err != nil {
			t.Fatalf("re-read model does not write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs from the first:\n%s\n---\n%s", first.String(), second.String())
		}
	})
}
