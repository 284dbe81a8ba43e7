package markov

// This file extends the absorbing-chain routing one regime past CSR: the
// matrix-free Kronecker–Krylov engine. Dense LU handles transient spaces
// below SparseCutoff and the CSR two-level solver carries the mid range; past
// the enumeration wall even the CSR rows stop fitting a sane budget — 2^n
// states × O(n²) entries each — so the generator is never enumerated at all.
// MatrixFree runs the same absorption solves against a linalg.Operator (in
// practice a linalg.KronOp built by rbmodel from the per-process factor
// structure): restarted GMRES as the primary of the shared moment ladder
// (guard.go), and Krylov exponentials for the transient distributions, each
// segment a recovery block with explicit uniformization as its alternate.

import (
	"context"
	"math"
	"sort"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/obs"
)

const (
	// kronRestart and kronMaxIters parameterize the GMRES rung: Krylov
	// dimension per restart cycle (memory = kronRestart+1 state-space
	// vectors) and the total Arnoldi-step budget across both moment systems'
	// cycles.
	kronRestart  = 40
	kronMaxIters = 4000
)

// MatrixFreeSpec assembles a MatrixFree engine. Op is the transient
// generator Q_T; the absorbing state is implicit (row deficits are the
// absorption rates).
type MatrixFreeSpec struct {
	// Op applies Q_T, the transient block of the generator.
	Op linalg.Operator
	// Gamma must dominate every total out-rate (absorption included); it is
	// the uniformization constant and, via ‖Q_T‖∞ ≤ 2·Gamma, the norm bound
	// of the acceptance test and the GMRES stopping rule.
	Gamma float64
	// Start is the initial transient state index.
	Start int
	// AbsorbIdx/AbsorbRate list the states with direct absorption
	// transitions and their rates — the sparse deficit vector, all the
	// engine needs of the absorbing boundary (the recovery-block cube has
	// n+1 such states out of 2^n).
	AbsorbIdx  []int
	AbsorbRate []float64
	// Precond optionally right-preconditions the forward GMRES solves
	// (dst = M⁻¹·src); PrecondT its transposed counterpart for occupancy.
	// nil runs unpreconditioned.
	Precond  func(dst, src []float64)
	PrecondT func(dst, src []float64)
	// Rows enumerates state u's transitions on the fly for the jump-chain
	// rung: yield(to, rate) per transition, to < 0 meaning absorption.
	Rows func(u int, yield func(to int, rate float64))
}

// MatrixFree solves an absorbing chain whose transient generator exists only
// as an operator. It mirrors CTMC's solve surface (moments ladder, expected
// occupancy, absorption density/CDF) past the enumeration wall.
type MatrixFree struct {
	spec  MatrixFreeSpec
	op    *countedOp
	dim   int
	gamma float64

	// Counter handles resolved once at construction (nil-safe when obs is
	// off), per the hot-path rule: applying a 2^24-state operator must never
	// pay a registry lookup.
	solves, kiters *obs.Counter
}

// countedOp wraps the operator so every application — GMRES, expv,
// uniformization, acceptance residuals alike — lands in one counter.
type countedOp struct {
	inner   linalg.Operator
	matvecs *obs.Counter
}

func (c *countedOp) Dim() int { return c.inner.Dim() }
func (c *countedOp) MulVecInto(dst, x []float64) {
	c.matvecs.Inc()
	c.inner.MulVecInto(dst, x)
}
func (c *countedOp) MulVecTransInto(dst, x []float64) {
	c.matvecs.Inc()
	c.inner.MulVecTransInto(dst, x)
}

// NewMatrixFree validates the spec and resolves the engine's counter handles.
func NewMatrixFree(spec MatrixFreeSpec) *MatrixFree {
	if spec.Op == nil {
		panic("markov: MatrixFree needs an operator")
	}
	if spec.Rows == nil {
		panic("markov: MatrixFree needs a row enumerator")
	}
	dim := spec.Op.Dim()
	if spec.Start < 0 || spec.Start >= dim {
		panic("markov: MatrixFree start state out of range")
	}
	if spec.Gamma <= 0 {
		panic("markov: MatrixFree needs a positive uniformization constant")
	}
	if len(spec.AbsorbIdx) != len(spec.AbsorbRate) {
		panic("markov: MatrixFree absorption index/rate length mismatch")
	}
	return &MatrixFree{
		spec:   spec,
		op:     &countedOp{inner: spec.Op, matvecs: obs.C("markov_kron_matvecs_total")},
		dim:    dim,
		gamma:  spec.Gamma,
		solves: obs.C("markov_solve_kron_total"),
		kiters: obs.C("markov_krylov_iters_total"),
	}
}

// Dim returns the transient-state count.
func (m *MatrixFree) Dim() int { return m.dim }

// AbsorptionMoments is AbsorptionMomentsCtx without cancellation or fault
// injection.
func (m *MatrixFree) AbsorptionMoments() (m1, m2 float64, err error) {
	return m.AbsorptionMomentsCtx(context.Background())
}

// AbsorptionMomentsCtx returns E[T] and E[T²] of the absorption time from
// Start, run as the shared recovery block of guard.go with kron-krylov
// (restarted GMRES on Q_T·h = −1 and Q_T·h2 = −2·h) as the primary; the
// uniformization and mc-estimate rungs and the acceptance test are the ones
// the enumerated chain uses, applied through the operator.
func (m *MatrixFree) AbsorptionMomentsCtx(ctx context.Context) (m1, m2 float64, err error) {
	m.solves.Inc()
	v := transientView{op: m.op, gamma: m.gamma, start: m.spec.Start, rows: m.spec.Rows, mcReps: kronMCReps}
	return v.moments(ctx, guard.Attempt[momentSolution]{Name: "kron-krylov", Run: m.momentsKrylov})
}

// momentsKrylov is the primary rung: right-preconditioned restarted GMRES on
// the two moment systems, sharing one iteration budget.
func (m *MatrixFree) momentsKrylov(ctx context.Context) (momentSolution, error) {
	rhs := make([]float64, m.dim)
	for i := range rhs {
		rhs[i] = -1
	}
	opts := linalg.GMRESOpts{
		Restart:  kronRestart,
		MaxIters: kronMaxIters,
		Tol:      gsTol,
		NormA:    2 * m.gamma,
		Precond:  m.spec.Precond,
	}
	h, it1, err := linalg.SolveGMRES(m.op, false, rhs, opts)
	m.kiters.Add(int64(it1))
	if err != nil {
		return momentSolution{}, guard.Numericalf("markov: kron first-moment GMRES: %v", err)
	}
	if err := ctx.Err(); err != nil {
		return momentSolution{}, err
	}
	for i := range rhs {
		rhs[i] = -2 * h[i]
	}
	opts.MaxIters = max(1, kronMaxIters-it1)
	h2, it2, err := linalg.SolveGMRES(m.op, false, rhs, opts)
	m.kiters.Add(int64(it2))
	if err != nil {
		return momentSolution{}, guard.Numericalf("markov: kron second-moment GMRES: %v", err)
	}
	return momentSolution{m1: h[m.spec.Start], m2: h2[m.spec.Start], h: h, h2: h2}, nil
}

// ExpectedOccupancy solves oᵀ·Q_T = −e_startᵀ by transposed GMRES: o[s] is
// the expected time spent in transient state s before absorption.
func (m *MatrixFree) ExpectedOccupancy() ([]float64, error) {
	m.solves.Inc()
	rhs := make([]float64, m.dim)
	rhs[m.spec.Start] = -1
	o, iters, err := linalg.SolveGMRES(m.op, true, rhs, linalg.GMRESOpts{
		Restart:  kronRestart,
		MaxIters: kronMaxIters,
		Tol:      gsTol,
		NormA:    2 * m.gamma,
		Precond:  m.spec.PrecondT,
	})
	m.kiters.Add(int64(iters))
	if err != nil {
		return nil, err
	}
	return o, nil
}

// AbsorptionCDF evaluates P(absorbed by t) at the given times (nondecreasing,
// ≥ 0) as 1 minus the surviving transient mass, the transient distribution
// advanced by Krylov exponentials between consecutive times. eps is the
// per-evaluation accuracy target.
func (m *MatrixFree) AbsorptionCDF(ctx context.Context, times []float64, eps float64) ([]float64, error) {
	return m.transientSweep(ctx, times, eps, func(pi []float64) float64 {
		mass := linalg.Sum(pi)
		cdf := 1 - mass
		return math.Min(1, math.Max(0, cdf))
	})
}

// AbsorptionDensity evaluates the absorption-time density at the given times:
// f(t) = Σ_s π_s(t)·a(s) over the sparse absorption-rate vector.
func (m *MatrixFree) AbsorptionDensity(ctx context.Context, times []float64, eps float64) ([]float64, error) {
	return m.transientSweep(ctx, times, eps, func(pi []float64) float64 {
		f := 0.0
		for i, s := range m.spec.AbsorbIdx {
			f += pi[s] * m.spec.AbsorbRate[i]
		}
		return math.Max(0, f)
	})
}

// transientSweep advances the transient distribution from time to time, each
// segment a recovery block: kron-expv (a Krylov exponential) as the primary
// and explicit matrix-free uniformization as the alternate — slower (γ·Δt
// applications instead of a few Krylov substeps) but immune to step-control
// breakdown. A fallback is reported to the context's guard.Recorder like any
// other, and the block's own budget check stops the sweep between segments
// once ctx is done.
func (m *MatrixFree) transientSweep(ctx context.Context, times []float64, eps float64, eval func(pi []float64) float64) ([]float64, error) {
	if !sort.Float64sAreSorted(times) {
		panic("markov: matrix-free transient sweep times must be nondecreasing")
	}
	m.solves.Inc()
	if eps <= 0 {
		eps = 1e-10
	}
	pi := make([]float64, m.dim)
	pi[m.spec.Start] = 1
	out := make([]float64, len(times))
	last := 0.0
	for i, t := range times {
		if t < 0 {
			panic("markov: matrix-free transient sweep needs nonnegative times")
		}
		if t > last {
			dt := t - last
			seg := guard.Block[[]float64]{
				Name: "markov/transient-segment",
				Primary: guard.Attempt[[]float64]{Name: "kron-expv", Run: func(context.Context) ([]float64, error) {
					next, iters, err := linalg.KrylovExpv(m.op, true, pi, dt, linalg.ExpvOpts{
						KrylovDim: kronRestart,
						Tol:       eps,
					})
					m.kiters.Add(int64(iters))
					if err != nil {
						return nil, guard.Numericalf("markov: kron Krylov exponential: %v", err)
					}
					return next, nil
				}},
				Alternates: []guard.Attempt[[]float64]{{Name: "uniformization", Run: func(context.Context) ([]float64, error) {
					return m.unifAdvance(pi, dt, eps), nil
				}}},
			}
			res, err := seg.Do(ctx)
			if err != nil {
				return nil, err
			}
			pi = res.Value
			last = t
		}
		out[i] = eval(pi)
	}
	return out, nil
}

// unifAdvance evolves the transient distribution by dt with the uniformized
// series Σ_k Pois(γ·dt; k)·π·P_Tᵏ, P_T = I + Q_T/γ, applied through the
// operator. Mass leaking past the truncation or into absorption simply leaves
// the vector — exactly what the sweep's evaluators expect.
func (m *MatrixFree) unifAdvance(pi []float64, dt, eps float64) []float64 {
	w := poissonWeights(m.gamma*dt, eps)
	cur := linalg.CloneVec(pi)
	tmp := make([]float64, m.dim)
	out := make([]float64, m.dim)
	for k, wk := range w {
		if k > 0 {
			m.op.MulVecTransInto(tmp, cur)
			for i, v := range tmp {
				cur[i] += v / m.gamma
			}
		}
		if wk == 0 {
			continue
		}
		for i, v := range cur {
			out[i] += wk * v
		}
	}
	return out
}
