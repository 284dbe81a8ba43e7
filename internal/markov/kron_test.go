package markov

import (
	"context"
	"errors"
	"math"
	"testing"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
)

// matrixFreeFromChain mirrors a CTMC's transient block into a MatrixFree
// engine over a CSR operator, assuming states 0..nt−1 are transient and the
// rest absorbing — the harness for judging the matrix-free routes against
// the enumerated ones on one chain.
func matrixFreeFromChain(c *CTMC, start int) *MatrixFree {
	nt := c.transientCount()
	b := linalg.NewCSRBuilder(nt, nt*4)
	var absIdx []int
	var absRate []float64
	rows := func(u int, yield func(to int, rate float64)) {
		for _, e := range c.Transitions(u) {
			if c.IsAbsorbing(e.To) {
				yield(-1, e.Rate)
			} else {
				yield(e.To, e.Rate)
			}
		}
	}
	for u := 0; u < nt; u++ {
		if c.IsAbsorbing(u) {
			panic("matrixFreeFromChain wants transient states first")
		}
		b.Add(u, u, -c.OutRate(u))
		a := 0.0
		for _, e := range c.Transitions(u) {
			if c.IsAbsorbing(e.To) {
				a += e.Rate
			} else {
				b.Add(u, e.To, e.Rate)
			}
		}
		if a > 0 {
			absIdx = append(absIdx, u)
			absRate = append(absRate, a)
		}
	}
	return NewMatrixFree(MatrixFreeSpec{
		Op:         b.Build(),
		Gamma:      c.MaxOutRate(),
		Start:      start,
		AbsorbIdx:  absIdx,
		AbsorbRate: absRate,
		Rows:       rows,
	})
}

// TestMatrixFreeMatchesEnumerated runs every MatrixFree route against the
// enumerated CTMC answers on the wandering birth–death chain.
func TestMatrixFreeMatchesEnumerated(t *testing.T) {
	c := ladderChain(60)
	mf := matrixFreeFromChain(c, 0)

	m1, m2, err := c.AbsorptionMoments(0)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, err := mf.AbsorptionMoments()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k1-m1) > 1e-8*m1 || math.Abs(k2-m2) > 1e-8*m2 {
		t.Fatalf("kron moments (%g, %g) deviate from enumerated (%g, %g)", k1, k2, m1, m2)
	}

	occ, err := c.ExpectedOccupancy(0)
	if err != nil {
		t.Fatal(err)
	}
	kocc, err := mf.ExpectedOccupancy()
	if err != nil {
		t.Fatal(err)
	}
	for i := range kocc {
		if math.Abs(kocc[i]-occ[i]) > 1e-8*(1+occ[i]) {
			t.Fatalf("occupancy[%d] = %g, enumerated says %g", i, kocc[i], occ[i])
		}
	}

	times := []float64{0, 5, 20, 50, 100}
	pi0 := make([]float64, c.N())
	pi0[0] = 1
	cdf := c.AbsorptionCDF(pi0, times, 1e-12)
	den := c.AbsorptionDensity(pi0, times, 1e-12)
	kcdf, err := mf.AbsorptionCDF(context.Background(), times, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	kden, err := mf.AbsorptionDensity(context.Background(), times, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range times {
		if math.Abs(kcdf[i]-cdf[i]) > 1e-8 {
			t.Fatalf("CDF(%g) = %g, enumerated says %g", times[i], kcdf[i], cdf[i])
		}
		if math.Abs(kden[i]-den[i]) > 1e-8 {
			t.Fatalf("density(%g) = %g, enumerated says %g", times[i], kden[i], den[i])
		}
	}
}

// TestMatrixFreeTransientFallbackRecorded forces every Krylov-exponential
// segment of the transient sweep onto its uniformization alternate: the
// fallback must reach the Recorder (so "exact" advice cannot hide it) and the
// CDF must match the healthy sweep.
func TestMatrixFreeTransientFallbackRecorded(t *testing.T) {
	mf := matrixFreeFromChain(ladderChain(40), 0)
	times := []float64{0, 5, 20, 50, 100}
	want, err := mf.AbsorptionCDF(context.Background(), times, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	rec := &guard.Recorder{}
	ctx := guard.WithRecorder(guard.WithFaults(context.Background(), guard.FaultSpec{Depth: 1}), rec)
	got, err := mf.AbsorptionCDF(ctx, times, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	routes := rec.Routes()
	if len(rec.Events()) != len(times)-1 || len(routes) != 1 || routes[0] != "markov/transient-segment→uniformization" || rec.Degraded() {
		t.Fatalf("events = %+v, want one exact uniformization fallback per segment", rec.Events())
	}
	for i := range times {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("CDF(%g) = %.12g under fallback, healthy %.12g", times[i], got[i], want[i])
		}
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mf.AbsorptionDensity(cctx, times, 1e-12); !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("canceled sweep returned %v, want ErrBudget", err)
	}
}

// TestMatrixFreeCancellation: a canceled context aborts the ladder with the
// budget taxonomy rather than hanging or mislabeling.
func TestMatrixFreeCancellation(t *testing.T) {
	c := ladderChain(40)
	mf := matrixFreeFromChain(c, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := mf.AbsorptionMomentsCtx(ctx); err == nil {
		t.Fatal("canceled context did not abort the matrix-free ladder")
	}
}
