package main

import (
	"math"
	"math/rand/v2"
	"testing"

	"recoveryblocks/internal/rbmodel"
)

// randomParams draws distinct μ and a non-uniform λ matrix.
func randomParams(rng *rand.Rand, n int) rbmodel.Params {
	p := rbmodel.Params{Mu: make([]float64, n), Lambda: make([][]float64, n)}
	for i := range p.Mu {
		p.Mu[i] = 0.5 + rng.Float64()
		p.Lambda[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.Lambda[i][j] = 0.3 * rng.Float64()
			p.Lambda[j][i] = p.Lambda[i][j]
		}
	}
	return p
}

// The reference chain agrees with the program's enumerated chain, which is
// built by other code, on moments and deadline-miss probability.
func TestReferenceMatchesEnumeratedChain(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{2, 3, 5, 7} {
		p := randomParams(rng, n)
		m, err := rbmodel.NewAsync(p)
		if err != nil {
			t.Fatal(err)
		}
		m1, m2, err := m.MomentsX()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := solveRefMoments(p)
		if err != nil {
			t.Fatal(err)
		}
		if !near(m1, ref.m1, ref.tol1) || !near(m2, ref.m2, ref.tol2) {
			t.Errorf("n=%d: program %v %v, reference %v %v (bounds %v %v)", n, m1, m2, ref.m1, ref.m2, ref.tol1, ref.tol2)
		}
		const d = 2.5
		miss, err := m.DeadlineMissProb(d)
		if err != nil {
			t.Fatal(err)
		}
		rmiss, err := refSurvival(p, d)
		if err != nil {
			t.Fatal(err)
		}
		if !near(miss, rmiss, missTol) {
			t.Errorf("n=%d: P(X > %v) program %.17g, reference %.17g", n, d, miss, rmiss)
		}
	}
}

// A wrong rate in the reference generator shows in the checks' bounds.
func TestReferenceDetectsWrongRate(t *testing.T) {
	p := randomParams(rand.New(rand.NewPCG(3, 4)), 6)
	m, err := rbmodel.NewAsync(p)
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := m.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	p.Lambda[1][4] *= 1.01
	p.Lambda[4][1] = p.Lambda[1][4]
	ref, err := solveRefMoments(p)
	if err != nil {
		t.Fatal(err)
	}
	if near(m1, ref.m1, ref.tol1) {
		t.Errorf("a 1%% change of one λ moved E[X] by only %v (bound %v)", math.Abs(m1-ref.m1), ref.tol1)
	}
}

func TestReferenceTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	c := newRefChain(randomParams(rng, 6))
	x, y := make([]float64, c.Dim()), make([]float64, c.Dim())
	for k := range x {
		x[k], y[k] = rng.Float64(), rng.Float64()
	}
	ax, aty := make([]float64, c.Dim()), make([]float64, c.Dim())
	c.MulVecInto(ax, x)
	c.MulVecTransInto(aty, y)
	var a, b float64
	for k := range x {
		a += y[k] * ax[k]
		b += aty[k] * x[k]
	}
	if math.Abs(a-b) > 1e-12*math.Abs(a) {
		t.Errorf("<y, Ax> = %v, <Aᵀy, x> = %v", a, b)
	}
}
