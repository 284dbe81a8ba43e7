package rbmodel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"recoveryblocks/internal/core"
	"recoveryblocks/internal/guard"
)

// forceKron builds an AsyncModel pinned to the matrix-free backend regardless
// of n, so the Kronecker route can be judged against the enumerated chain at
// sizes where both exist.
func forceKron(p Params) *AsyncModel {
	return &AsyncModel{P: p, kron: newKronEngine(p), ones: 1<<p.N() - 1}
}

// forceOrbit pins the orbit-lumped backend the same way.
func forceOrbit(t *testing.T, p Params) *AsyncModel {
	t.Helper()
	orb, err := NewOrbit(p)
	if err != nil {
		t.Fatal(err)
	}
	return &AsyncModel{P: p, orbit: orb, ones: 1<<p.N() - 1}
}

// randomParams draws strictly positive distinct-ish μ and a general symmetric
// λ (some pairs zero).
func randomParams(rng *rand.Rand, n int) Params {
	p := Params{Mu: make([]float64, n), Lambda: make([][]float64, n)}
	for i := range p.Mu {
		p.Mu[i] = 0.2 + 2*rng.Float64()
		p.Lambda[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.7 {
				v := 1.5 * rng.Float64()
				p.Lambda[i][j] = v
				p.Lambda[j][i] = v
			}
		}
	}
	return p
}

// twoClassParams returns partially-exchangeable rates: two μ classes with
// block-constant λ — lumpable onto (u_1, u_2) counts.
func twoClassParams(n1, n2 int, mu1, mu2, l11, l22, l12 float64) Params {
	n := n1 + n2
	p := Params{Mu: make([]float64, n), Lambda: make([][]float64, n)}
	for i := range p.Mu {
		if i < n1 {
			p.Mu[i] = mu1
		} else {
			p.Mu[i] = mu2
		}
		p.Lambda[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var v float64
			switch {
			case j < n1:
				v = l11
			case i >= n1:
				v = l22
			default:
				v = l12
			}
			p.Lambda[i][j] = v
			p.Lambda[j][i] = v
		}
	}
	return p
}

// TestKronBackendMatchesEnumerated judges every matrix-free answer — moments,
// occupancy profile, CDF/density sweep, deadline and quantile — against the
// enumerated chain on random general-rate models small enough for both.
func TestKronBackendMatchesEnumerated(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(4)
		p := randomParams(rng, n)
		ref, err := NewAsync(p)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Route() != "enumerated" {
			t.Fatalf("n = %d should enumerate, got %s", n, ref.Route())
		}
		mk := forceKron(p)

		em1, em2, err := ref.MomentsX()
		if err != nil {
			t.Fatal(err)
		}
		km1, km2, err := mk.MomentsX()
		if err != nil {
			t.Fatalf("trial %d: kron moments: %v", trial, err)
		}
		if math.Abs(km1-em1) > 1e-8*em1 || math.Abs(km2-em2) > 1e-8*em2 {
			t.Fatalf("trial %d: kron moments (%g, %g) deviate from enumerated (%g, %g)", trial, km1, km2, em1, em2)
		}

		eo, err := ref.OccupancyByOnes()
		if err != nil {
			t.Fatal(err)
		}
		ko, err := mk.OccupancyByOnes()
		if err != nil {
			t.Fatal(err)
		}
		for u := range eo {
			if math.Abs(ko[u]-eo[u]) > 1e-8*(1+eo[u]) {
				t.Fatalf("trial %d: occupancy[%d] = %g, enumerated says %g", trial, u, ko[u], eo[u])
			}
		}

		times := []float64{0, 0.3 * em1, em1, 3 * em1}
		ecdf, kcdf := ref.CDFX(times), mk.CDFX(times)
		eden, kden := ref.DensityX(times), mk.DensityX(times)
		for i := range times {
			if math.Abs(kcdf[i]-ecdf[i]) > 1e-8 {
				t.Fatalf("trial %d: CDF(%g) = %g, enumerated says %g", trial, times[i], kcdf[i], ecdf[i])
			}
			if math.Abs(kden[i]-eden[i]) > 1e-7*(1+eden[i]) {
				t.Fatalf("trial %d: density(%g) = %g, enumerated says %g", trial, times[i], kden[i], eden[i])
			}
		}

		ep, err := ref.DeadlineMissProb(em1)
		if err != nil {
			t.Fatal(err)
		}
		kp, err := mk.DeadlineMissProb(em1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(kp-ep) > 1e-8 {
			t.Fatalf("trial %d: deadline-miss %g, enumerated says %g", trial, kp, ep)
		}
		eq, err := ref.QuantileX(0.9)
		if err != nil {
			t.Fatal(err)
		}
		kq, err := mk.QuantileX(0.9)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(kq-eq) > 1e-6*eq {
			t.Fatalf("trial %d: quantile %g, enumerated says %g", trial, kq, eq)
		}
	}
}

// TestOrbitMatchesEnumerated checks the count-lumped chain against the full
// enumeration on partially-exchangeable rates, and that non-lumpable rate
// structures are refused.
func TestOrbitMatchesEnumerated(t *testing.T) {
	p := twoClassParams(4, 2, 1.0, 2.5, 0.3, 0.8, 0.5)
	ref, err := NewAsync(p)
	if err != nil {
		t.Fatal(err)
	}
	mo := forceOrbit(t, p)
	if got, want := mo.orbit.NumStates(), 5*3+1; got != want {
		t.Fatalf("orbit states = %d, want %d", got, want)
	}
	em1, em2, err := ref.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	om1, om2, err := mo.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(om1-em1) > 1e-10*em1 || math.Abs(om2-em2) > 1e-10*em2 {
		t.Fatalf("orbit moments (%g, %g) deviate from enumerated (%g, %g)", om1, om2, em1, em2)
	}
	eo, err := ref.OccupancyByOnes()
	if err != nil {
		t.Fatal(err)
	}
	oo, err := mo.OccupancyByOnes()
	if err != nil {
		t.Fatal(err)
	}
	for u := range eo {
		if math.Abs(oo[u]-eo[u]) > 1e-10*(1+eo[u]) {
			t.Fatalf("occupancy[%d] = %g, enumerated says %g", u, oo[u], eo[u])
		}
	}
	times := []float64{0.5 * em1, 2 * em1}
	ecdf, ocdf := ref.CDFX(times), mo.CDFX(times)
	for i := range times {
		if math.Abs(ocdf[i]-ecdf[i]) > 1e-9 {
			t.Fatalf("CDF(%g) = %g, enumerated says %g", times[i], ocdf[i], ecdf[i])
		}
	}

	// Fully distinct rates: nothing to lump.
	rng := rand.New(rand.NewSource(5))
	if _, err := NewOrbit(randomParams(rng, 5)); err == nil {
		t.Fatal("distinct-rate params reported lumpable")
	}
	// Same μ everywhere but one broken λ block: strong lumpability fails.
	broken := twoClassParams(3, 3, 1, 2, 0.4, 0.4, 0.6)
	broken.Lambda[0][1], broken.Lambda[1][0] = 0.9, 0.9
	if _, err := NewOrbit(broken); err == nil {
		t.Fatal("block-broken λ reported lumpable")
	}
}

// TestAsyncRouting pins the backend selection rule: enumeration up to the
// wall, orbit lumping past it when the rates collapse, matrix-free otherwise.
func TestAsyncRouting(t *testing.T) {
	small, err := NewAsync(Uniform(6, 1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if small.Route() != "enumerated" || small.Chain() == nil {
		t.Fatalf("n=6 route = %s (chain nil: %v)", small.Route(), small.Chain() == nil)
	}

	lumped, err := NewAsync(twoClassParams(9, 8, 1, 3, 0.2, 0.3, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if lumped.Route() != "orbit" || lumped.Chain() != nil {
		t.Fatalf("n=17 two-class route = %s", lumped.Route())
	}

	hard := randomParams(rand.New(rand.NewSource(77)), 17)
	mf, err := NewAsync(hard)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Route() != "kron" || mf.Chain() != nil {
		t.Fatalf("n=17 general route = %s", mf.Route())
	}

	if _, err := NewAsync(Uniform(MaxExactProcesses+1, 1, 0.5)); err == nil {
		t.Fatal("n beyond MaxExactProcesses accepted")
	}
	if _, err := NewSplitChain(Uniform(MaxEnumeratedProcesses+1, 1, 0.5), 0); err == nil {
		t.Fatal("split chain beyond MaxEnumeratedProcesses accepted")
	}
}

// TestLargeNKronMatchesOrbit is the past-the-wall equivalence run inside
// ordinary `go test`: at n = 17 a two-class workload solves both by orbit
// lumping (36 lumped states, exact) and by the forced matrix-free engine on
// the full 2^17 cube; at n = 18 the uniform workload adds the symmetric-chain
// answer as a third voice. This is the cheap end of the proof grid — the
// n ∈ {20, 24} cells live in the xval grid and the benchmarks.
func TestLargeNKronMatchesOrbit(t *testing.T) {
	if testing.Short() {
		t.Skip("2^17-state matrix-free solves")
	}
	p := twoClassParams(9, 8, 1.0, 2.0, 0.05, 0.08, 0.06)
	orb := forceOrbit(t, p)
	om1, om2, err := orb.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	mk := forceKron(p)
	km1, km2, err := mk.MomentsX()
	if err != nil {
		t.Fatalf("n=17 kron moments: %v", err)
	}
	if math.Abs(km1-om1) > 1e-7*om1 || math.Abs(km2-om2) > 1e-7*om2 {
		t.Fatalf("n=17 kron moments (%g, %g) deviate from orbit (%g, %g)", km1, km2, om1, om2)
	}

	const n = 18
	sym, err := NewSymmetric(n, 1, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	sm1, sm2, err := sym.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	auto, err := NewAsync(Uniform(n, 1, 0.04))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Route() != "orbit" {
		t.Fatalf("uniform n=18 route = %s, want orbit", auto.Route())
	}
	am1, _, err := auto.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(am1-sm1) > 1e-10*sm1 {
		t.Fatalf("orbit mean %g deviates from symmetric %g", am1, sm1)
	}
	kk := forceKron(Uniform(n, 1, 0.04))
	km1, km2, err = kk.MomentsX()
	if err != nil {
		t.Fatalf("n=18 kron moments: %v", err)
	}
	if math.Abs(km1-sm1) > 1e-7*sm1 || math.Abs(km2-sm2) > 1e-7*sm2 {
		t.Fatalf("n=18 kron moments (%g, %g) deviate from symmetric (%g, %g)", km1, km2, sm1, sm2)
	}
}

// TestKronLadderFaultInjection forces the moment ladder off its kron-krylov
// primary through the model surface: depth 1 lands on the shared
// uniformization rung (exact, not degraded), saturating depths clamp onto the
// degraded mc-estimate rung, and the healthy answer is reproduced within each
// rung's tolerance.
func TestKronLadderFaultInjection(t *testing.T) {
	p := randomParams(rand.New(rand.NewSource(41)), 6)
	m := forceKron(p)
	h1, h2, err := m.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 2, 9} {
		rec := &guard.Recorder{}
		ctx := guard.WithRecorder(guard.WithFaults(context.Background(), guard.FaultSpec{Depth: depth}), rec)
		f1, f2, err := m.MomentsXCtx(ctx)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		ev := rec.Events()
		if len(ev) != 1 || ev[0].Block != "markov/absorption-moments" {
			t.Fatalf("depth %d: events = %+v", depth, ev)
		}
		wantRung := min(depth, 2)
		wantRoute := []string{"kron-krylov", "uniformization", "mc-estimate"}[wantRung]
		if ev[0].Attempt != wantRung || ev[0].Route != wantRoute || ev[0].Degraded != (wantRung == 2) {
			t.Fatalf("depth %d: landed on rung %d (degraded %v)", depth, ev[0].Attempt, ev[0].Degraded)
		}
		switch {
		case wantRung < 2:
			if math.Abs(f1-h1) > 1e-6*h1 || math.Abs(f2-h2) > 1e-6*h2 {
				t.Fatalf("depth %d: fallback moments (%g, %g) deviate from healthy (%g, %g)", depth, f1, f2, h1, h2)
			}
		default:
			se := math.Sqrt((h2 - h1*h1) / 2048)
			if math.Abs(f1-h1) > 6*se {
				t.Fatalf("depth %d: MC mean %g is %.1f SE from %g", depth, f1, math.Abs(f1-h1)/se, h1)
			}
		}
	}
}

// TestKronDeadlineFallbackIsRecorded: DeadlineMissProbCtx hands its context
// to the matrix-free transient sweep, so a forced Krylov-exponential failure
// reaches the Recorder (advice built on it cannot be labelled exact), the
// uniformization alternate reproduces the healthy probability, and a dead
// context stops the sweep.
func TestKronDeadlineFallbackIsRecorded(t *testing.T) {
	m := forceKron(randomParams(rand.New(rand.NewSource(41)), 6))
	want, err := m.DeadlineMissProb(2)
	if err != nil {
		t.Fatal(err)
	}
	rec := &guard.Recorder{}
	ctx := guard.WithRecorder(guard.WithFaults(context.Background(), guard.FaultSpec{Depth: 1}), rec)
	got, err := m.DeadlineMissProbCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if routes := rec.Routes(); len(routes) != 1 || routes[0] != "markov/transient-segment→uniformization" {
		t.Fatalf("fallback routes = %v, want the transient segment's uniformization", routes)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("P(X > 2) = %.12g under fallback, healthy %.12g", got, want)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.DeadlineMissProbCtx(cctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled deadline solve returned %v", err)
	}
}

// kronDenseColumn materializes column t of the KronOp by applying it to a
// basis vector.
func kronDenseColumn(e *kronEngine, dst, basis []float64, t int) {
	for i := range basis {
		basis[i] = 0
	}
	basis[t] = 1
	e.op.MulVecInto(dst, basis)
}

// FuzzKronFactorBuilder drives random rate vectors through the checkpoint
// codec (the canonical byte round-trip) into Params, builds the Kronecker
// factors, and checks the operator agrees with the enumerated generator
// row for row, and the jump-chain row enumerator with the chain's rows.
func FuzzKronFactorBuilder(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3))
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, uint8(4)) // uniform → exchange path
	f.Add([]byte{0, 0, 7}, uint8(2))
	f.Add([]byte{255, 1, 128, 64, 32, 200, 17, 5, 90, 250, 33, 2}, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint8) {
		n := 2 + int(nRaw)%5 // 2..6
		need := n + n*(n-1)/2
		ints := make(core.Ints, need)
		for k := range ints {
			if len(raw) > 0 {
				ints[k] = int64(raw[k%len(raw)])
			}
		}
		enc, err := core.EncodeState(ints)
		if err != nil {
			t.Fatal(err)
		}
		back, err := core.DecodeState(enc)
		if err != nil {
			t.Fatal(err)
		}
		ints = back.(core.Ints)

		p := Params{Mu: make([]float64, n), Lambda: make([][]float64, n)}
		for i := range p.Mu {
			p.Mu[i] = 0.1 + float64(ints[i]%97)/16
			p.Lambda[i] = make([]float64, n)
		}
		k := n
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := float64(ints[k]%53) / 8
				p.Lambda[i][j], p.Lambda[j][i] = v, v
				k++
			}
		}
		ref, err := NewAsync(p)
		if err != nil {
			t.Fatal(err)
		}
		eng := newKronEngine(p)
		dim := 1 << n
		ones := dim - 1
		// Reference rows from the enumerated chain, entry mapped onto the
		// all-ones vertex and absorption dropped (implicit in the operator).
		cubeOf := func(state int) int {
			if state == ref.Entry() {
				return ones
			}
			return state - 1
		}
		want := make([][]float64, dim)
		for s := range want {
			want[s] = make([]float64, dim)
		}
		c := ref.Chain()
		for state := 0; state < ref.NumStates()-1; state++ {
			s := cubeOf(state)
			want[s][s] -= c.OutRate(state)
			for _, e := range c.Transitions(state) {
				if e.To != ref.Absorbing() {
					want[s][cubeOf(e.To)] += e.Rate
				}
			}
		}
		col := make([]float64, dim)
		basis := make([]float64, dim)
		for j := 0; j < dim; j++ {
			kronDenseColumn(eng, col, basis, j)
			for i := 0; i < dim; i++ {
				if math.Abs(col[i]-want[i][j]) > 1e-10*(1+math.Abs(want[i][j])) {
					t.Fatalf("Q[%b][%b] = %g, enumerated says %g", i, j, col[i], want[i][j])
				}
			}
		}
		// Jump-chain enumerator against the chain's rows (absorption as −1).
		for state := 0; state < ref.NumStates()-1; state++ {
			got := map[int]float64{}
			eng.rows(cubeOf(state), func(to int, rate float64) { got[to] += rate })
			wantRow := map[int]float64{}
			for _, e := range c.Transitions(state) {
				if e.To == ref.Absorbing() {
					wantRow[-1] += e.Rate
				} else {
					wantRow[cubeOf(e.To)] += e.Rate
				}
			}
			if len(got) != len(wantRow) {
				t.Fatalf("state %b: row enumerator has %d targets, chain %d", state, len(got), len(wantRow))
			}
			for to, rate := range wantRow {
				if math.Abs(got[to]-rate) > 1e-12*(1+rate) {
					t.Fatalf("state %b → %d: rate %g, chain says %g", state, to, got[to], rate)
				}
			}
		}
	})
}
