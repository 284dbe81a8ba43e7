package markov

// This file hosts the recovery-block ladder around the absorption solves: the
// engine applies the paper's primary/alternate/acceptance-test discipline to
// its own numerics. There is one ladder for every backend. It works over a
// transientView — the transient block Q_T as an operator plus a row
// enumerator — so the enumerated CTMC and the matrix-free engine share one
// acceptance test (finiteness, moment consistency, normwise residuals) and one
// pair of fallback rungs (uniformization, mc-estimate). Each backend supplies
// only its exact solves: dense-lu → sparse-gs (or sparse-gs alone past
// SparseCutoff) for the CTMC, kron-krylov for MatrixFree. The healthy path is
// byte-identical to the historical direct routes (same routines, same routing
// cutoff); the ladder only changes what happens when a route fails, is
// rejected, or is force-failed by an injected chaos fault.

import (
	"context"
	"math"
	"slices"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/obs"
)

const (
	// residualRelTol bounds the accepted normwise relative residual
	// ‖Q_T·h − rhs‖∞ / (‖Q_T‖∞·‖h‖∞ + ‖rhs‖∞) of the exact routes. Both a
	// backward-stable LU and the gsTol-converged iterative solves sit orders
	// of magnitude below it; crossing it means the returned vector does not
	// solve the system it claims to.
	residualRelTol = 1e-8
	// maxUnifSteps caps the uniformization fallback's DTMC step count,
	// turning a non-decaying transient mass (a structurally broken chain
	// reached with earlier rungs force-skipped) into a typed error instead
	// of a hang.
	maxUnifSteps = 2_000_000
	// unifMassTol is the relative transient-mass floor at which the
	// uniformization sums are considered converged.
	unifMassTol = 1e-13
	// mcMomentReps and kronMCReps size the last-resort jump-chain estimate
	// per backend: stored rows make a jump O(out-degree), while the
	// matrix-free engine re-enumerates its row on the fly (the whole point is
	// never holding 2^n rows), which costs O(n²) per jump. mcMomentSeed is a
	// fixed internal constant: the route draws from its own substreams, so
	// the estimate is deterministic for a given chain regardless of caller
	// RNG state or worker count.
	mcMomentReps  = 65536
	kronMCReps    = 2048
	mcMomentSeed  = 8_675_309
	mcMomentJumps = 1 << 20 // per-replication jump budget
)

// momentSolution is the value flowing through the absorption-moment ladder:
// the two moments plus, for the exact routes, the full solution vectors the
// acceptance test checks residuals on (nil for the scalar-only routes).
type momentSolution struct {
	m1, m2 float64
	h, h2  []float64
}

// transientView is what the moment ladder needs of an absorbing chain: the
// transient block and a way to walk its rows. States are transient indices
// in [0, op.Dim()); the absorbing boundary is implicit.
type transientView struct {
	// op applies Q_T.
	op linalg.Operator
	// gamma dominates every total out-rate: the uniformization constant and,
	// via ‖Q_T‖∞ ≤ 2γ, the norm bound of the acceptance test.
	gamma float64
	start int
	// rows enumerates state u's transitions, yield(to, rate) per transition,
	// to < 0 meaning absorption.
	rows func(u int, yield func(to int, rate float64))
	// mcReps sizes the jump-chain rung for this backend's per-jump cost.
	mcReps int
}

// moments runs the recovery block: the backend's exact solves in order, then
// the shared uniformization and mc-estimate rungs, each candidate vetted by
// the shared acceptance test.
func (v transientView) moments(ctx context.Context, exact ...guard.Attempt[momentSolution]) (m1, m2 float64, err error) {
	b := guard.Block[momentSolution]{
		Name:    "markov/absorption-moments",
		Accept:  v.accept,
		Primary: exact[0],
		Alternates: slices.Concat(exact[1:], []guard.Attempt[momentSolution]{
			{Name: "uniformization", Run: v.uniformized},
			{Name: "mc-estimate", Degraded: true, Run: v.mc},
		}),
	}
	res, err := b.Do(ctx)
	if err != nil {
		return 0, 0, err
	}
	return res.Value.m1, res.Value.m2, nil
}

// accept is the ladder's acceptance test: NaN/Inf guard, moment consistency
// (E[T] ≥ 0 and E[T²] ≥ E[T]² — Jensen holds for the exact moments and for
// every empirical estimate alike), and, when the rung exposes its solution
// vectors, normwise residuals of Q_T·h = −1 and Q_T·h2 = −2·h from two
// operator applications, with ‖Q_T‖∞ bounded by 2γ (every row's diagonal and
// off-diagonal mass are each at most the maximum out-rate).
func (v transientView) accept(s momentSolution) error {
	if math.IsNaN(s.m1) || math.IsInf(s.m1, 0) || math.IsNaN(s.m2) || math.IsInf(s.m2, 0) {
		return guard.Rejectedf("non-finite moments E[T]=%v, E[T²]=%v", s.m1, s.m2)
	}
	if s.m1 < 0 || s.m2 < s.m1*s.m1*(1-1e-9) {
		return guard.Rejectedf("inconsistent moments E[T]=%v, E[T²]=%v", s.m1, s.m2)
	}
	if s.h == nil {
		return nil
	}
	normA := 2 * v.gamma
	r := make([]float64, len(s.h))
	v.op.MulVecInto(r, s.h)
	var res1, normH float64
	for i, x := range r {
		res1 = math.Max(res1, math.Abs(x+1)) // Q_T·h − (−1)
		normH = math.Max(normH, math.Abs(s.h[i]))
	}
	if rel := res1 / (normA*normH + 1); !(rel <= residualRelTol) {
		return guard.Rejectedf("first-moment residual %.3e exceeds %.0e", rel, residualRelTol)
	}
	v.op.MulVecInto(r, s.h2)
	var res2, normH2 float64
	for i, x := range r {
		res2 = math.Max(res2, math.Abs(x+2*s.h[i])) // Q_T·h2 − (−2h)
		normH2 = math.Max(normH2, math.Abs(s.h2[i]))
	}
	if rel := res2 / (normA*normH2 + 2*normH); !(rel <= residualRelTol) {
		return guard.Rejectedf("second-moment residual %.3e exceeds %.0e", rel, residualRelTol)
	}
	return nil
}

// uniformized is the exact fallback rung: moments through the uniformized
// jump chain. With the step π ← π + Q_Tᵀ·π/γ and s_k the transient mass after
// k DTMC steps, the absorption step count N satisfies E[N] = Σ_k s_k and
// E[N(N+1)] = 2·Σ_k (k+1)·s_k, and the absorption time T (a random Exp(γ)
// sum of N terms) has E[T] = E[N]/γ and E[T²] = E[N(N+1)]/γ². The rung checks
// probability-mass conservation as it sums: the transient mass must stay in
// [0, 1] and never grow.
func (v transientView) uniformized(ctx context.Context) (momentSolution, error) {
	if !(v.gamma > 0) {
		return momentSolution{}, guard.Numericalf("markov: uniformization undefined (no transitions)")
	}
	cur := make([]float64, v.op.Dim())
	cur[v.start] = 1
	tmp := make([]float64, len(cur))
	var eN, eNN float64
	prev := math.Inf(1)
	mass := 0.0
	for k := 0; k < maxUnifSteps; k++ {
		mass = linalg.Sum(cur)
		if mass > prev*(1+1e-12) || mass > 1+1e-9 {
			return momentSolution{}, guard.Numericalf("markov: uniformization lost probability-mass conservation at step %d (mass %v after %v)", k, mass, prev)
		}
		prev = mass
		eN += mass
		eNN += float64(k+1) * mass
		if mass < unifMassTol {
			break
		}
		if k%64 == 0 {
			if err := ctx.Err(); err != nil {
				return momentSolution{}, err
			}
		}
		v.op.MulVecTransInto(tmp, cur)
		for i, x := range tmp {
			cur[i] += x / v.gamma
		}
	}
	if mass >= unifMassTol {
		return momentSolution{}, guard.Numericalf("markov: uniformization moments did not converge in %d steps (residual mass %v)", maxUnifSteps, mass)
	}
	g := v.gamma
	return momentSolution{m1: eN / g, m2: 2 * eNN / (g * g)}, nil
}

// mc is the last-resort rung: a deterministic direct simulation of the jump
// chain with rows enumerated on the fly — no per-state tables, scratch only
// for the widest row. It is an estimate, not a solve: results carry
// O(1/√reps) noise and the rung is flagged Degraded so advice built on it is
// labelled accordingly.
func (v transientView) mc(ctx context.Context) (momentSolution, error) {
	obs.C("markov_solve_mc_total").Inc()
	// Each jump copies the current row into scratch reused across jumps, so
	// the draw is dist.ChoiceTotal over the row in enumeration order and a
	// jump allocates nothing once the scratch has grown to the widest row.
	row := &struct {
		targets []int
		weights []float64
		out     float64
	}{}
	collect := func(to int, rate float64) {
		row.targets = append(row.targets, to)
		row.weights = append(row.weights, rate)
		row.out += rate
	}
	var sum, sum2 float64
	for rep := 0; rep < v.mcReps; rep++ {
		if rep%64 == 0 {
			if err := ctx.Err(); err != nil {
				return momentSolution{}, err
			}
		}
		rng := dist.Substream(mcMomentSeed, rep)
		u := v.start
		t := 0.0
		jumps := 0
		for u >= 0 {
			row.targets, row.weights, row.out = row.targets[:0], row.weights[:0], 0
			v.rows(u, collect)
			if row.out <= 0 {
				return momentSolution{}, guard.Invalidf("markov: transient state %d with no exits", u)
			}
			t += rng.Exp(row.out)
			u = row.targets[rng.ChoiceTotal(row.weights, row.out)]
			if jumps++; jumps > mcMomentJumps {
				return momentSolution{}, guard.Numericalf("markov: MC absorption estimate exceeded %d jumps in one replication", mcMomentJumps)
			}
		}
		sum += t
		sum2 += t * t
	}
	reps := float64(v.mcReps)
	return momentSolution{m1: sum / reps, m2: sum2 / reps}, nil
}

// AbsorptionMomentsCtx is AbsorptionMoments under an explicit context: the
// context carries cancellation, any injected guard.FaultSpec, and the
// fallback guard.Recorder. The solve runs as the shared recovery block with
// the chain's own exact solves in front — dense-lu → sparse-gs below
// SparseCutoff transient states, sparse-gs alone above it — then
// uniformization → mc-estimate, each candidate result vetted by the
// acceptance test before the caller sees it.
func (c *CTMC) AbsorptionMomentsCtx(ctx context.Context, start int) (m1, m2 float64, err error) {
	if c.absorbing[start] {
		return 0, 0, nil
	}
	op := c.transientOp()
	v := op.view(start)
	solve := func(name string, vectors func(idx, order []int) (h, h2 []float64, err error)) guard.Attempt[momentSolution] {
		return guard.Attempt[momentSolution]{Name: name, Run: func(context.Context) (momentSolution, error) {
			h, h2, err := vectors(op.idx, op.order)
			if err != nil {
				return momentSolution{}, err
			}
			k := op.idx[start]
			return momentSolution{m1: h[k], m2: h2[k], h: h, h2: h2}, nil
		}}
	}
	sparse := solve("sparse-gs", c.momentVectorsSparse)
	if len(op.order) < SparseCutoff {
		return v.moments(ctx, solve("dense-lu", c.momentVectorsDense), sparse)
	}
	return v.moments(ctx, sparse)
}

// ctmcTransientOp applies a CTMC's transient block Q_T straight from its rows
// in transient order (idx maps a state to its transient index, −1 for
// absorbing; order inverts it). Nothing is assembled and nothing is counted:
// it serves the acceptance residuals and the fallback rungs.
type ctmcTransientOp struct {
	c          *CTMC
	idx, order []int
}

func (c *CTMC) transientOp() ctmcTransientOp {
	idx, order := c.transientIndex()
	return ctmcTransientOp{c: c, idx: idx, order: order}
}

// view is the moment ladder's view of the transient block from state start.
func (o ctmcTransientOp) view(start int) transientView {
	return transientView{op: o, gamma: o.c.MaxOutRate(), start: o.idx[start], rows: o.rows, mcReps: mcMomentReps}
}

func (o ctmcTransientOp) Dim() int { return len(o.order) }

func (o ctmcTransientOp) MulVecInto(dst, x []float64) {
	for k, u := range o.order {
		r := -o.c.OutRate(u) * x[k]
		for _, e := range o.c.rows[u] {
			if j := o.idx[e.To]; j >= 0 {
				r += e.Rate * x[j]
			}
		}
		dst[k] = r
	}
}

func (o ctmcTransientOp) MulVecTransInto(dst, x []float64) {
	clear(dst)
	for k, u := range o.order {
		out := 0.0
		for _, e := range o.c.rows[u] {
			out += e.Rate
			if j := o.idx[e.To]; j >= 0 {
				dst[j] += e.Rate * x[k]
			}
		}
		dst[k] -= out * x[k]
	}
}

// rows enumerates transient state k's transitions in their stored order, so
// the jump-chain rung draws exactly what dist.ChoiceTotal would over the row.
func (o ctmcTransientOp) rows(k int, yield func(to int, rate float64)) {
	for _, e := range o.c.rows[o.order[k]] {
		yield(o.idx[e.To], e.Rate)
	}
}
