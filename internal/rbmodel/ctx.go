package rbmodel

import (
	"context"
	"math"
)

// Context-aware variants of the chain-solving entry points. The context
// carries three things through to the markov recovery-block ladder:
// cancellation (a -timeout or Ctrl-C stops the solve at the next rung
// boundary), an injected guard.FaultSpec (the chaos solver-fault
// perturbation), and a guard.Recorder (how the advisor learns that a number
// it is about to rank came from a fallback route). The context-free methods
// remain the common path and are byte-identical to these under a background
// context.

// MeanXCtx is MeanX under an explicit context.
func (m *AsyncModel) MeanXCtx(ctx context.Context) (float64, error) {
	m1, _, err := m.MomentsXCtx(ctx)
	return m1, err
}

// MomentsXCtx is MomentsX under an explicit context. Every backend runs the
// one moment ladder of internal/markov under the same guard contract; only
// the primary differs: dense-lu or sparse-gs on the enumerated and orbit
// chains, kron-krylov on the kron engine, with uniformization and
// mc-estimate as the shared fallback rungs.
func (m *AsyncModel) MomentsXCtx(ctx context.Context) (m1, m2 float64, err error) {
	if c, entry := m.exactChain(); c != nil {
		return c.AbsorptionMomentsCtx(ctx, entry)
	}
	return m.kron.mf.AbsorptionMomentsCtx(ctx)
}

// DeadlineMissProbCtx is DeadlineMissProb under an explicit context. The
// enumerated and orbit chains answer with one uniformization sweep, gated on
// entry; on the kron route every Krylov-exponential segment of the sweep is
// a recovery block under ctx, so cancellation stops it between segments and a
// fallback onto uniformization reaches the context's guard.Recorder.
func (m *AsyncModel) DeadlineMissProbCtx(ctx context.Context, d float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := checkDeadline(d); err != nil {
		return 0, err
	}
	if d < 0 {
		return 1, nil
	}
	if math.IsInf(d, 1) {
		return 0, nil // X is finite almost surely: absorption is certain
	}
	cdf, err := m.cdfX(ctx, []float64{d})
	if err != nil {
		return 0, err
	}
	p := 1 - cdf[0]
	if p < 0 { // numerical guard
		p = 0
	}
	return p, nil
}

// MeanXCtx is MeanX under an explicit context.
func (m *SymmetricModel) MeanXCtx(ctx context.Context) (float64, error) {
	m1, _, err := m.chain.AbsorptionMomentsCtx(ctx, m.Entry())
	return m1, err
}

// MomentsXCtx is MomentsX under an explicit context.
func (m *SymmetricModel) MomentsXCtx(ctx context.Context) (float64, float64, error) {
	return m.chain.AbsorptionMomentsCtx(ctx, m.Entry())
}
