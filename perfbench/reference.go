package main

import (
	"fmt"
	"math"
	"sync"

	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/rbmodel"
)

// The benchmark's own reference for the asynchronous model: the transient
// generator Q_T applied state by state from the paper's rules, with none of
// the program's chain builders, Kronecker factors, preconditioners or
// uniformization code. State s ∈ [0, 2^n) has bit i set when process i holds
// a recovery point since the last recovery line; the all-ones vertex is the
// entry state S_r and absorption is implicit (row deficits):
//
//	R1  s → s | bit i               at μ_i, for bit i clear
//	    (absorbed instead when that completes the line)
//	R2/R3  s → s &^ (bit i | bit j)  at λ_ij, for i < j not both clear
//	R4  the entry state is absorbed at Σμ
type refChain struct {
	n    int
	mu   []float64
	lam  [][]float64
	diag []float64
}

func newRefChain(p rbmodel.Params) *refChain {
	n := p.N()
	c := &refChain{n: n, mu: p.Mu, lam: p.Lambda, diag: make([]float64, 1<<n)}
	ones := 1<<n - 1
	for s := range c.diag {
		out := 0.0
		for i := 0; i < n; i++ {
			if s&(1<<i) == 0 {
				out += p.Mu[i]
			}
			for j := i + 1; j < n; j++ {
				if s&(1<<i|1<<j) != 0 {
					out += p.Lambda[i][j]
				}
			}
		}
		if s == ones {
			out += p.SumMu()
		}
		c.diag[s] = -out
	}
	return c
}

func (c *refChain) Dim() int { return len(c.diag) }

// MulVecInto computes dst = Q_T·x, rule by rule, over two halves of the
// states in parallel.
func (c *refChain) MulVecInto(dst, x []float64) {
	half := len(x) / 2
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.mulRange(dst, x, 0, half)
	}()
	c.mulRange(dst, x, half, len(x))
	wg.Wait()
}

// mulRange computes rows [lo, hi) of Q_T·x.
func (c *refChain) mulRange(dst, x []float64, lo, hi int) {
	ones := len(x) - 1
	for s := lo; s < hi; s++ {
		dst[s] = c.diag[s] * x[s]
	}
	for i := 0; i < c.n; i++ {
		bi, mu := 1<<i, c.mu[i]
		for s := lo; s < hi; s++ {
			if s&bi == 0 && s|bi != ones {
				dst[s] += mu * x[s|bi]
			}
		}
		for j := i + 1; j < c.n; j++ {
			pair, lam := bi|1<<j, c.lam[i][j]
			for s := lo; s < hi; s++ {
				if s&pair != 0 {
					dst[s] += lam * x[s&^pair]
				}
			}
		}
	}
}

// MulVecTransInto computes dst = Q_Tᵀ·x.
func (c *refChain) MulVecTransInto(dst, x []float64) {
	ones := len(x) - 1
	for s := range dst {
		dst[s] = c.diag[s] * x[s]
	}
	for s := range x {
		for i := 0; i < c.n; i++ {
			bi := 1 << i
			if s&bi == 0 && s|bi != ones {
				dst[s|bi] += c.mu[i] * x[s]
			}
			for j := i + 1; j < c.n; j++ {
				if pair := bi | 1<<j; s&pair != 0 {
					dst[s&^pair] += c.lam[i][j] * x[s]
				}
			}
		}
	}
}

// residualRelTol mirrors the program's acceptance test for its direct moment
// solves: normwise relative residual ‖Q_T·ĥ − b‖∞ / (‖Q_T‖∞·‖ĥ‖∞ + ‖b‖∞) ≤ 1e-8.
const residualRelTol = 1e-8

// refTol is the residual tolerance of the reference solves.
const refTol = 1e-12

// momentBounds turns an accepted residual tolerance tau into forward-error
// bounds on E[X] and E[X²]. −Q_T is a nonsingular M-matrix, so
// ‖(−Q_T)⁻¹‖∞ = ‖h‖∞ = H, and ‖Q_T‖∞ ≤ 2γ with γ the total event rate:
//
//	|ĥ − h| ≤ H·τ·(2γH + 1)
//	|ĥ₂ − h₂| ≤ H·(τ·(2γH₂ + 2H) + 2·|ĥ − h|)   (right-hand side 2h)
func momentBounds(tau, gamma, h, h2 float64) (e1, e2 float64) {
	e1 = h * tau * (2*gamma*h + 1)
	e2 = h * (tau*(2*gamma*h2+2*h) + 2*e1)
	return e1, e2
}

// refMoments are E[X] and E[X²] from the entry state, with the distance
// within which an answer the program accepted must lie from them.
type refMoments struct{ m1, m2, tol1, tol2 float64 }

// solveRefMoments solves Q_T·h = −1 and Q_T·h₂ = −2h on the reference chain
// with Jacobi-preconditioned GMRES.
func solveRefMoments(p rbmodel.Params) (refMoments, error) {
	c := newRefChain(p)
	gamma := p.TotalEventRate()
	opts := linalg.GMRESOpts{
		Restart:  40,
		MaxIters: 10000,
		Tol:      refTol,
		NormA:    2 * gamma,
		Precond: func(dst, src []float64) {
			for k, v := range src {
				dst[k] = v / c.diag[k]
			}
		},
	}
	rhs := make([]float64, c.Dim())
	for k := range rhs {
		rhs[k] = -1
	}
	h, _, err := linalg.SolveGMRES(c, false, rhs, opts)
	if err != nil {
		return refMoments{}, err
	}
	for k := range rhs {
		rhs[k] = -2 * h[k]
	}
	h2, _, err := linalg.SolveGMRES(c, false, rhs, opts)
	if err != nil {
		return refMoments{}, err
	}
	entry := c.Dim() - 1
	hmax, h2max := linalg.NormInf(h), linalg.NormInf(h2)
	e1, e2 := momentBounds(residualRelTol, gamma, hmax, h2max)
	r1, r2 := momentBounds(refTol, gamma, hmax, h2max)
	return refMoments{m1: h[entry], m2: h2[entry], tol1: e1 + r1, tol2: e2 + r2}, nil
}

// refTailEps is the Poisson mass the reference survival sum leaves out.
const refTailEps = 1e-13

// refSurvival returns P(X > d) from the entry state by uniformization on the
// reference chain: with P = I + Q_T/γ and u_k = P^k·1, the survival is
// Σ_k Poisson(k; γd)·u_k[entry], summed until the Poisson weights left out
// are below refTailEps. Each u_k lies in [0, 1], so the truncation error is
// at most refTailEps.
func refSurvival(p rbmodel.Params, d float64) (float64, error) {
	c := newRefChain(p)
	gamma := p.TotalEventRate()
	gd := gamma * d
	entry := c.Dim() - 1
	u := make([]float64, c.Dim())
	qu := make([]float64, c.Dim())
	for k := range u {
		u[k] = 1
	}
	sum, mass := 0.0, 0.0
	maxK := int(gd + 20*math.Sqrt(gd) + 100)
	for k := 0; k <= maxK; k++ {
		lg, _ := math.Lgamma(float64(k + 1))
		w := math.Exp(-gd + float64(k)*math.Log(gd) - lg)
		sum += w * u[entry]
		mass += w
		if float64(k) > gd && 1-mass < refTailEps {
			return sum, nil
		}
		c.MulVecInto(qu, u)
		for s := range u {
			u[s] += qu[s] / gamma
		}
	}
	return 0, fmt.Errorf("reference survival: Poisson mass %v after %d terms", mass, maxK)
}
