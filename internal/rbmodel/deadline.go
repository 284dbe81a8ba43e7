package rbmodel

import (
	"context"
	"errors"
	"math"

	"recoveryblocks/internal/guard"
)

// Section 5 of the paper argues that "the asynchronous method or a longer
// synchronization period is not acceptable for time-critical tasks in which
// a delay in system response beyond a certain value, the system deadline,
// leads to a catastrophic failure". This file quantifies that argument:
// the probability that the interval between recovery lines — a lower bound
// on the worst-case rollback distance, hence on the recovery delay — exceeds
// a deadline d.

// DeadlineMissProb returns P(X > d): the probability that no recovery line
// forms within d time units, so a failure at the wrong moment forces a
// rollback (and re-execution) longer than the deadline.
func (m *AsyncModel) DeadlineMissProb(d float64) (float64, error) {
	return m.DeadlineMissProbCtx(context.Background(), d)
}

// DeadlineMissProb for the lumped chain (large n).
func (m *SymmetricModel) DeadlineMissProb(d float64) (float64, error) {
	if err := checkDeadline(d); err != nil {
		return 0, err
	}
	if d < 0 {
		return 1, nil
	}
	if math.IsInf(d, 1) {
		return 0, nil
	}
	cdf := m.Chain().AbsorptionCDF(pointMass(m.N+2, m.Entry()), []float64{d}, 1e-10)
	p := 1 - cdf[0]
	if p < 0 {
		p = 0
	}
	return p, nil
}

// checkDeadline rejects the one deadline no convention covers: NaN. Without
// the check a NaN horizon slips past every comparison below and poisons the
// Poisson-weight truncation bound inside uniformization, yielding garbage
// instead of a typed error the guard ladder can classify.
func checkDeadline(d float64) error {
	if math.IsNaN(d) {
		return guard.Numericalf("rbmodel: deadline is NaN")
	}
	return nil
}

func pointMass(n, at int) []float64 {
	pi := make([]float64, n)
	pi[at] = 1
	return pi
}

// QuantileX returns the q-th quantile of X (0 < q < 1) by bisection on the
// analytic CDF — e.g. QuantileX(0.99) is the rollback-distance budget a
// designer must provision to cover 99 % of inter-line intervals.
func (m *AsyncModel) QuantileX(q float64) (float64, error) {
	// The NaN case must be explicit: both range comparisons are false for
	// NaN, and without it the bisection below would run on garbage.
	if math.IsNaN(q) || q <= 0 || q >= 1 {
		return 0, errors.New("rbmodel: quantile must be in (0,1)")
	}
	mean, err := m.MeanX()
	if err != nil {
		return 0, err
	}
	lo, hi := 0.0, mean
	for i := 0; i < 200; i++ {
		cdf, err := m.cdfX(context.Background(), []float64{hi})
		if err != nil {
			return 0, err
		}
		if cdf[0] >= q {
			break
		}
		hi *= 2
		if hi > mean*1e9 {
			return 0, errors.New("rbmodel: quantile beyond numerical range")
		}
	}
	for i := 0; i < 100 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		cdf, err := m.cdfX(context.Background(), []float64{mid})
		if err != nil {
			return 0, err
		}
		if cdf[0] < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// HazardX evaluates the hazard rate h(t) = f(t)/(1−F(t)) of the inter-line
// interval at the given times — the instantaneous recovery-line formation
// rate given none has formed yet. For large t it converges to the slowest
// decay mode of the chain, which is what dominates deadline-miss risk.
func (m *AsyncModel) HazardX(times []float64) []float64 {
	f := m.DensityX(times)
	cdf := m.CDFX(times)
	out := make([]float64, len(times))
	for i := range times {
		surv := 1 - cdf[i]
		if surv < 1e-15 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = f[i] / surv
	}
	return out
}
