package markov

import (
	"context"
	"errors"
	"math"
	"testing"

	"recoveryblocks/internal/guard"
)

// ladderChain builds a birth–death absorbing chain with n transient states:
// state i moves up at rate 2 (toward absorption at state n) and back down at
// rate 1, so absorption is certain but paths wander. Its moments have no
// simple closed form, which is exactly what the cross-route agreement tests
// want: four independent numerical routes to one number.
func ladderChain(n int) *CTMC {
	c := NewCTMC(n + 1)
	for i := 0; i < n; i++ {
		c.AddRate(i, i+1, 2)
		if i > 0 {
			c.AddRate(i, i-1, 1)
		}
	}
	c.SetAbsorbing(n)
	return c
}

// TestMomentLadderRouteAgreement walks the one moment ladder under each
// backend's primary: dense-lu on a small chain, sparse-gs past SparseCutoff,
// and kron-krylov on a matrix-free copy of a chain. Every depth is forced in
// turn (a saturating depth clamps onto the last rung), and each fallback must
// name its rung, carry the right Degraded flag, and reproduce the dense-LU
// answer: the exact rungs to solver tolerance, the Monte Carlo estimate to
// five standard errors at that backend's replication count.
func TestMomentLadderRouteAgreement(t *testing.T) {
	type solveFn func(ctx context.Context) (m1, m2 float64, err error)
	ctmc := func(c *CTMC) solveFn {
		return func(ctx context.Context) (float64, float64, error) { return c.AbsorptionMomentsCtx(ctx, 0) }
	}
	small, large := ladderChain(40), ladderChain(SparseCutoff+10)
	mf := matrixFreeFromChain(small, 0)
	cases := []struct {
		primary string
		chain   *CTMC // dense-LU reference
		solve   solveFn
		rungs   []string // fallback rungs, in ladder order
		reps    int
	}{
		{"dense-lu", small, ctmc(small), []string{"sparse-gs", "uniformization", "mc-estimate"}, mcMomentReps},
		{"sparse-gs", large, ctmc(large), []string{"uniformization", "mc-estimate"}, mcMomentReps},
		{"kron-krylov", small, func(ctx context.Context) (float64, float64, error) {
			return mf.AbsorptionMomentsCtx(ctx)
		}, []string{"uniformization", "mc-estimate"}, kronMCReps},
	}
	for _, tc := range cases {
		t.Run(tc.primary, func(t *testing.T) {
			m1, m2, err := tc.chain.AbsorptionMomentsDense(0)
			if err != nil {
				t.Fatalf("dense reference: %v", err)
			}
			rec := &guard.Recorder{}
			h1, h2, err := tc.solve(guard.WithRecorder(context.Background(), rec))
			if err != nil || len(rec.Events()) != 0 {
				t.Fatalf("healthy solve: err %v, events %+v", err, rec.Events())
			}
			if math.Abs(h1-m1) > 1e-8*m1 || math.Abs(h2-m2) > 1e-8*m2 {
				t.Fatalf("primary moments (%v, %v), dense (%v, %v)", h1, h2, m1, m2)
			}
			for depth := 1; depth <= len(tc.rungs)+1; depth++ {
				rung := min(depth, len(tc.rungs))
				rec := &guard.Recorder{}
				ctx := guard.WithRecorder(guard.WithFaults(context.Background(), guard.FaultSpec{Depth: depth}), rec)
				f1, f2, err := tc.solve(ctx)
				if err != nil {
					t.Fatalf("depth %d: %v", depth, err)
				}
				ev := rec.Events()
				mcRung := rung == len(tc.rungs)
				if len(ev) != 1 || ev[0].Attempt != rung || ev[0].Route != tc.rungs[rung-1] || ev[0].Degraded != mcRung {
					t.Fatalf("depth %d: events = %+v, want one fallback onto %s (rung %d, degraded %v)",
						depth, ev, tc.rungs[rung-1], rung, mcRung)
				}
				tol1, tol2 := 1e-6*m1, 1e-6*m2
				if mcRung {
					// var(T) = E[T²]−E[T]², SE = √(var/reps); allow 5 SE, and
					// d(T²) ≈ 2T·dT with slack for the second moment.
					se := math.Sqrt((m2 - m1*m1) / float64(tc.reps))
					tol1, tol2 = 5*se, 5*se*3*m1
				}
				if math.Abs(f1-m1) > tol1 || math.Abs(f2-m2) > tol2 {
					t.Fatalf("depth %d (%s): moments (%v, %v), want (%v ± %v, %v ± %v)",
						depth, ev[0].Route, f1, f2, m1, tol1, m2, tol2)
				}
			}
		})
	}
}

// TestMomentLadderSaturatingDepth pins the acceptance criterion: at any
// injection depth — chaos's max magnitude included — the solve still answers,
// from the last (degraded) rung.
func TestMomentLadderSaturatingDepth(t *testing.T) {
	c := ladderChain(12)
	ctx := guard.WithFaults(context.Background(), guard.FaultSpec{Depth: 16})
	rec := &guard.Recorder{}
	ctx = guard.WithRecorder(ctx, rec)
	m1, _, err := c.AbsorptionMomentsCtx(ctx, 0)
	if err != nil {
		t.Fatalf("saturating depth: %v", err)
	}
	if !rec.Degraded() {
		t.Fatal("saturating depth must land on the degraded rung")
	}
	if !(m1 > 0) || math.IsInf(m1, 0) {
		t.Fatalf("m1 = %v, want positive finite", m1)
	}
}

func TestMomentLadderUnreachableAbsorptionAborts(t *testing.T) {
	c := NewCTMC(3)
	c.AddRate(0, 1, 1)
	c.AddRate(1, 0, 1) // states 0,1 cycle; absorbing state 2 unreachable
	c.SetAbsorbing(2)
	_, _, err := c.AbsorptionMoments(0)
	if !errors.Is(err, guard.ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid (structural, no ladder walk)", err)
	}
}

func TestMomentLadderCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := ladderChain(8).AbsorptionMomentsCtx(ctx, 0)
	if !errors.Is(err, guard.ErrBudget) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrBudget wrapping Canceled", err)
	}
}

// TestMomentMCDeterministic pins the last-resort estimate's reproducibility:
// it draws from fixed internal substreams, so repeated runs are bit-equal.
func TestMomentMCDeterministic(t *testing.T) {
	v := ladderChain(10).transientOp().view(0)
	a, err := v.mc(context.Background())
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	b, err := v.mc(context.Background())
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if a.m1 != b.m1 || a.m2 != b.m2 {
		t.Fatalf("MC estimate not deterministic: (%v,%v) vs (%v,%v)", a.m1, a.m2, b.m1, b.m2)
	}
}

// TestUniformizedMomentsMassConservation exercises the uniformization rung on
// a chain with an exact answer: a pure Exp(λ) absorption has E[T] = 1/λ and
// E[T²] = 2/λ².
func TestUniformizedMomentsMassConservation(t *testing.T) {
	c := NewCTMC(2)
	c.AddRate(0, 1, 4)
	c.SetAbsorbing(1)
	s, err := c.transientOp().view(0).uniformized(context.Background())
	if err != nil {
		t.Fatalf("uniformized: %v", err)
	}
	if math.Abs(s.m1-0.25) > 1e-10 || math.Abs(s.m2-0.125) > 1e-10 {
		t.Fatalf("moments (%v, %v), want (0.25, 0.125)", s.m1, s.m2)
	}
}

// TestCTMCTransientOpMatchesGenerator pins the CTMC's operator view against
// the dense generator restricted to the transient states, both directions,
// with an absorbing state in the middle of the index range.
func TestCTMCTransientOpMatchesGenerator(t *testing.T) {
	c := NewCTMC(4)
	c.AddRate(0, 1, 1.5)
	c.AddRate(0, 2, 0.25)
	c.AddRate(2, 0, 2)
	c.AddRate(2, 3, 0.5)
	c.AddRate(3, 1, 3)
	c.AddRate(3, 0, 0.75)
	c.SetAbsorbing(1)
	op := c.transientOp()
	q := c.Generator()
	x := []float64{0.3, -1.2, 2.5}
	got, gotT := make([]float64, 3), make([]float64, 3)
	op.MulVecInto(got, x)
	op.MulVecTransInto(gotT, x)
	for k, u := range op.order {
		var want, wantT float64
		for j, v := range op.order {
			want += q.At(u, v) * x[j]
			wantT += q.At(v, u) * x[j]
		}
		if math.Abs(got[k]-want) > 1e-12 || math.Abs(gotT[k]-wantT) > 1e-12 {
			t.Fatalf("row %d: Q_T·x = %v (want %v), Q_Tᵀ·x = %v (want %v)", k, got[k], want, gotT[k], wantT)
		}
	}
}
