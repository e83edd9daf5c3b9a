package lp

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// codecProblem builds a bound-heavy LP whose optimal basis carries at-upper
// statuses and (under devex) learned weights, so the codec round-trip
// exercises every section of the encoding.
func codecProblem(t *testing.T, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(Minimize)
	const nv, nc = 40, 18
	vars := make([]Var, nv)
	var err error
	for j := 0; j < nv; j++ {
		ub := Infinity
		if rng.Intn(3) > 0 {
			ub = 1 + 9*rng.Float64()
		}
		if vars[j], err = p.AddVariable("x", 0, ub, rng.Float64()*4-2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nc; i++ {
		terms := make([]Term, 0, 6)
		for _, j := range rng.Perm(nv)[:6] {
			terms = append(terms, Term{Var: vars[j], Coeff: rng.Float64()*4 - 2})
		}
		op := LE
		if i%3 == 0 {
			op = GE
		}
		if err := p.AddConstraint("c", op, rng.Float64()*8-2, terms...); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestBasisCodecRoundTrip pins the snapshot contract: encode → decode →
// SolveFrom on the same (and a mildly mutated) problem is a warm solve with
// zero cold fallbacks and values bit-identical to warm-starting from the
// original in-memory basis.
func TestBasisCodecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := codecProblem(t, seed)
		sol, err := p.Solve()
		if err != nil {
			continue // infeasible/unbounded draws carry no basis to snapshot
		}
		basis := sol.Basis()
		if basis == nil {
			t.Fatalf("seed %d: optimal solve returned no basis", seed)
		}
		enc, err := basis.MarshalBinary()
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		enc2, err := basis.MarshalBinary()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("seed %d: encoding is not deterministic", seed)
		}
		dec, err := DecodeBasis(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}

		// Mutate the problem the way a daemon tick does (pure data edits),
		// then warm-start once from the in-memory basis and once from the
		// decoded snapshot: same values, and the snapshot path must not
		// fall back cold.
		mutate := func(pp *Problem) {
			for i := 0; i < pp.NumConstraints(); i += 2 {
				if err := pp.SetRHS(i, float64(i%5)+0.25); err != nil {
					t.Fatal(err)
				}
			}
		}
		pMem := codecProblem(t, seed)
		mutate(pMem)
		pSnap := codecProblem(t, seed)
		mutate(pSnap)
		fromMem, errMem := pMem.SolveFrom(basis)
		fromSnap, errSnap := pSnap.SolveFrom(dec)
		if (errMem == nil) != (errSnap == nil) {
			t.Fatalf("seed %d: warm outcomes differ: %v vs %v", seed, errMem, errSnap)
		}
		if errMem != nil {
			continue
		}
		if fromSnap.Stats.ColdFallbacks != 0 {
			t.Fatalf("seed %d: decoded basis fell back cold", seed)
		}
		if fromMem.Stats.ColdFallbacks != fromSnap.Stats.ColdFallbacks ||
			fromMem.Stats.Pivots != fromSnap.Stats.Pivots {
			t.Fatalf("seed %d: warm work differs: mem=%+v snap=%+v", seed, fromMem.Stats, fromSnap.Stats)
		}
		vm, vs := fromMem.Values(), fromSnap.Values()
		for j := range vm {
			if vm[j] != vs[j] {
				t.Fatalf("seed %d: value %d differs: %v vs %v", seed, j, vm[j], vs[j])
			}
		}
	}
}

// TestBasisCodecRejectsCorrupt pins the failure mode: every truncation and
// a byte flip at every position must decode to ErrBasisEncoding, never to a
// silently wrong basis.
func TestBasisCodecRejectsCorrupt(t *testing.T) {
	var enc []byte
	for seed := int64(1); seed <= 32; seed++ {
		sol, err := codecProblem(t, seed).Solve()
		if err != nil {
			continue
		}
		if enc, err = sol.Basis().MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		break
	}
	if enc == nil {
		t.Fatal("no optimal instance found to snapshot")
	}
	if _, err := DecodeBasis(nil); !errors.Is(err, ErrBasisEncoding) {
		t.Fatalf("nil input: got %v", err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBasis(enc[:cut]); !errors.Is(err, ErrBasisEncoding) {
			t.Fatalf("truncation at %d/%d accepted (err=%v)", cut, len(enc), err)
		}
	}
	for pos := 0; pos < len(enc); pos++ {
		corrupt := append([]byte(nil), enc...)
		corrupt[pos] ^= 0x5a
		if _, err := DecodeBasis(corrupt); !errors.Is(err, ErrBasisEncoding) {
			t.Fatalf("byte flip at %d accepted (err=%v)", pos, err)
		}
	}
	if _, err := DecodeBasis(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrBasisEncoding) {
		t.Fatal("trailing byte accepted")
	}
	if _, err := (*Basis)(nil).MarshalBinary(); !errors.Is(err, ErrBasisEncoding) {
		t.Fatal("nil basis marshalled")
	}
}

// FuzzDecodeBasis feeds DecodeBasis arbitrary bytes, seeded with snapshots
// of real partition-LP bases (the daemon persists exactly these).  Each
// input is tried as given and with its checksum recomputed, so mutations
// reach the structural decoder instead of dying at the checksum.  DecodeBasis
// must never panic, and any basis it accepts must re-encode to bytes that
// decode to an equal basis.
func FuzzDecodeBasis(f *testing.F) {
	for _, shape := range []struct {
		nDC, horizon int
		phase        float64
		rule         PricingRule
	}{
		{3, 12, 0, PricingDevex},
		{3, 24, 1.3, PricingDevex},
		{2, 6, 0.4, PricingDantzig},
	} {
		sol := solveWithRule(f, partitionShapedLP(f, shape.nDC, shape.horizon, shape.phase), shape.rule)
		enc, err := sol.Basis().MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte("GNB1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeBasis(t, data)
		if len(data) >= len(basisMagic)+8 {
			fixed := append([]byte(nil), data...)
			h := fnv.New64a()
			h.Write(fixed[:len(fixed)-8])
			h.Sum(fixed[:len(fixed)-8])
			checkDecodeBasis(t, fixed)
		}
	})
}

// checkDecodeBasis asserts the codec's round-trip property on one input.
func checkDecodeBasis(t *testing.T, data []byte) {
	b, err := DecodeBasis(data)
	if err != nil {
		if !errors.Is(err, ErrBasisEncoding) {
			t.Fatalf("rejection does not wrap ErrBasisEncoding: %v", err)
		}
		return
	}
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatalf("accepted basis does not re-encode: %v", err)
	}
	again, err := DecodeBasis(enc)
	if err != nil {
		t.Fatalf("re-encoded basis does not decode: %v", err)
	}
	if !reflect.DeepEqual(b, again) {
		t.Fatalf("round trip changed the basis: %+v -> %+v", b, again)
	}
}
