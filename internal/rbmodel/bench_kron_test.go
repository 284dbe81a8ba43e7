package rbmodel

// BenchmarkKron is the matrix-free engine's perf baseline: the raw Kronecker
// operator application, the preconditioned-GMRES moment solve, and the
// end-to-end MeanX through NewAsync's router, at n = 16 (the last enumerated
// size — the e2e row is the CSR route the engine replaces past the wall) and
// the matrix-free sizes n = 20 and n = 24. CI converts a fresh run to
// BENCH_kron.new.json and enforces `benchjson -compare` against the
// committed BENCH_kron.json. The 2^20/2^24-vector sizes cost seconds to
// minutes per op, so they are opt-in: set RB_BENCH_KRON=1 (the CI kron job
// does; a default `go test -bench .` sweep only pays n = 16).
//
// Refresh the baseline with
//
//	RB_BENCH_KRON=1 go test -bench BenchmarkKron -benchtime 2x -run '^$' \
//	    ./internal/rbmodel | go run ./cmd/benchjson > BENCH_kron.json

import (
	"fmt"
	"os"
	"testing"
)

// benchKronParams pins the proof-grid convention: a distinct-μ arithmetic
// ramp (never lumpable, so n > 16 always takes the kron route) with the
// uniform λ that puts interaction intensity at ρ = 1.
func benchKronParams(n int) Params {
	mu := make([]float64, n)
	sum := 0.0
	for i := range mu {
		mu[i] = 0.6 + 0.03*float64(i)
		sum += mu[i]
	}
	p := Uniform(n, 1, sum/float64(n*(n-1)))
	p.Mu = mu
	return p
}

func BenchmarkKron(b *testing.B) {
	heavy := os.Getenv("RB_BENCH_KRON") != ""
	for _, n := range []int{16, 20, 24} {
		if n > MaxEnumeratedProcesses && !heavy {
			continue // 2^n-vector sizes are opt-in: set RB_BENCH_KRON=1
		}
		p := benchKronParams(n)

		b.Run(fmt.Sprintf("matvec/n=%d", n), func(b *testing.B) {
			e := newKronEngine(p)
			x := make([]float64, e.op.Dim())
			y := make([]float64, e.op.Dim())
			for i := range x {
				x[i] = 1 / float64(len(x))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.op.MulVecInto(y, x)
			}
		})

		b.Run(fmt.Sprintf("gmres/n=%d", n), func(b *testing.B) {
			e := newKronEngine(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.mf.AbsorptionMoments(); err != nil {
					b.Fatal(err)
				}
			}
		})

		if n > MaxEnumeratedProcesses {
			// The lumping contrast: two μ-classes at the same n collapse the
			// 2^n cube to a mixed-radix orbit chain of ~(n/2+1)^2 cells; its
			// materialized solve prices what exchangeability buys over the
			// matrix-free route.
			b.Run(fmt.Sprintf("orbit-moments/n=%d", n), func(b *testing.B) {
				po := benchKronParams(n)
				for i := range po.Mu {
					po.Mu[i] = 1.0
					if i >= n/2 {
						po.Mu[i] = 2.0
					}
				}
				orb, err := NewOrbit(po)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := orb.Chain().AbsorptionMoments(orb.Entry()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		b.Run(fmt.Sprintf("e2e-meanx/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewAsync(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.MeanX(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
