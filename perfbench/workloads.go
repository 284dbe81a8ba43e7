package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"

	rb "recoveryblocks"
	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/rbmodel"
	"recoveryblocks/internal/scenario"
	"recoveryblocks/internal/strategy"
)

// outcome is what one op returned, kept until the run's checks.
type outcome struct {
	answers int    // numbers-producing answers in the op
	exact   int    // answers whose guard ladder accepted the primary rung
	route   string // async model route, when the op builds a model
	value   any
}

// workload is one benchmark workload over a decoded op list. Op i of a run
// uses list entry i mod size().
type workload interface {
	size() int
	// traceOps is how many ops the traced run records.
	traceOps() int
	// op makes the timed call(s) into the program for list entry i.
	op(ctx context.Context, i int, tr *tracer) (outcome, error)
	// probe makes the traced run's extra per-layer calls for entry i.
	probe(i int, tr *tracer, routes map[string]int) error
	// check verifies an op's outcome against references computed
	// independently of the op.
	check(i int, out outcome) error
}

func newWorkload(name string, in inputs) (workload, error) {
	switch name {
	case "advise-mid":
		scs, err := decodeSpecs(in)
		if err != nil {
			return nil, err
		}
		return &adviseMid{scs: scs, refs: make(map[int]*adviseRef), first: make(map[int]uint64)}, nil
	case "exact-kron":
		scs, err := decodeSpecs(in)
		if err != nil {
			return nil, err
		}
		w := &exactKron{refs: make(map[int]*refMoments)}
		for _, sc := range scs {
			w.params = append(w.params, sc.Params())
		}
		return w, nil
	case "crosscheck":
		batches, err := decodeBatches(in)
		if err != nil {
			return nil, err
		}
		return &crossCheck{batches: batches, first: make(map[int]uint64)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- advise-mid ----

// adviseMid prices every registered strategy of n = 11 scenarios through
// the advisor.
type adviseMid struct {
	scs   []scenario.Scenario
	refs  map[int]*adviseRef
	first map[int]uint64 // advice fingerprint of each entry's first run
}

// adviseRef holds the independent values the async row of an entry's
// advice is checked against.
type adviseRef struct {
	age, ageTol   float64 // E[X²]/(2E[X]) from the reference chain
	miss, missTol float64 // P(X > deadline) from the reference chain
	sym, symTol   float64 // lumpable entries: E[X²]/(2E[X]) from the symmetric chain
}

func (w *adviseMid) size() int     { return len(w.scs) }
func (w *adviseMid) traceOps() int { return 32 }

func (w *adviseMid) op(ctx context.Context, i int, tr *tracer) (outcome, error) {
	tr.begin("scenario.advise")
	adv, err := scenario.AdviseCtx(ctx, w.scs[i])
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	out := outcome{answers: 1, value: adv}
	if adv.Confidence == scenario.ConfidenceExact {
		out.exact = 1
	}
	return out, nil
}

// strategyWorkload is the strategy-layer view of a scenario, for the traced
// run's direct Price calls and the lumpability test.
func strategyWorkload(sc scenario.Scenario) strategy.Workload {
	return strategy.Workload{
		Name:           sc.Name,
		Mu:             sc.Mu,
		Lambda:         sc.Lambda,
		SyncInterval:   sc.SyncInterval,
		OptimalSync:    sc.OptimalSync,
		EveryK:         sc.EveryK,
		CheckpointCost: sc.CheckpointCost,
		Deadline:       sc.Deadline,
		ErrorRate:      sc.ErrorRate,
		PLocal:         sc.PLocal,
		Reps:           sc.Reps,
		Seed:           sc.Seed,
		Workers:        1,
	}
}

// probe times each registered strategy's Price, then the async chain's
// build, moment solve and deadline sweep on their own.
func (w *adviseMid) probe(i int, tr *tracer, routes map[string]int) error {
	sc := w.scs[i]
	sw := strategyWorkload(sc)
	for _, st := range strategy.All() {
		tr.begin("strategy.price." + string(st.Name()))
		_, err := st.Price(sw)
		tr.end()
		if err != nil {
			return err
		}
	}
	tr.begin("rbmodel.build")
	m, err := rbmodel.NewAsync(sc.Params())
	tr.end()
	if err != nil {
		return err
	}
	routes[m.Route()]++
	tr.begin("markov.moments")
	_, _, err = m.MomentsX()
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("markov.deadline")
	_, err = m.DeadlineMissProb(sc.Deadline)
	tr.end()
	return err
}

// relTol bounds the rounding between quantities the program derives from
// one another by a few floating-point operations.
const relTol = 1e-12

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// check verifies the advice's shape and ordering, the async row against the
// reference chain (and, on lumpable entries, the symmetric chain), and that
// the entry's advice repeats exactly.
func (w *adviseMid) check(i int, out outcome) error {
	adv := out.value.(*scenario.Advice)
	sc := w.scs[i]
	if len(adv.Ranking) != len(sc.Strategies) {
		return fmt.Errorf("ranking has %d strategies, want %d", len(adv.Ranking), len(sc.Strategies))
	}
	if adv.Winner != adv.Ranking[0].Strategy {
		return fmt.Errorf("winner %s, but %s ranks first", adv.Winner, adv.Ranking[0].Strategy)
	}
	seen := make(map[strategy.Name]bool)
	var async *strategy.Metrics
	for k := range adv.Ranking {
		r := &adv.Ranking[k]
		if seen[r.Strategy] || !slices.Contains(sc.Strategies, r.Strategy) {
			return fmt.Errorf("rank %d: strategy %s unexpected or repeated", k, r.Strategy)
		}
		seen[r.Strategy] = true
		if k > 0 {
			p := adv.Ranking[k-1]
			if p.OverheadRate > r.OverheadRate || (p.OverheadRate == r.OverheadRate && p.Strategy > r.Strategy) {
				return fmt.Errorf("rank %d: %s (%v) ranked after %s (%v)", k, r.Strategy, r.OverheadRate, p.Strategy, p.OverheadRate)
			}
		}
		sum := r.CheckpointRate + r.SyncLossRate + r.RollbackRate
		if !(r.OverheadRate >= 0) || math.IsInf(r.OverheadRate, 0) || !near(r.OverheadRate, sum, relTol*sum) {
			return fmt.Errorf("rank %d: %s overhead %v is not its parts' sum %v", k, r.Strategy, r.OverheadRate, sum)
		}
		if !(r.DeadlineMissProb >= 0 && r.DeadlineMissProb <= 1) {
			return fmt.Errorf("rank %d: %s deadline-miss probability %v", k, r.Strategy, r.DeadlineMissProb)
		}
		if r.Strategy == strategy.Async {
			async = r
		}
	}
	if async == nil {
		return errors.New("no async row")
	}
	ref, err := w.reference(i)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if !near(async.MeanRollback, ref.age, ref.ageTol) {
		return fmt.Errorf("async E[X²]/2E[X] = %.17g, reference chain gives %.17g (bound %.3g)", async.MeanRollback, ref.age, ref.ageTol)
	}
	if !near(async.DeadlineMissProb, ref.miss, ref.missTol) {
		return fmt.Errorf("async P(X > %v) = %.17g, reference chain gives %.17g (bound %.3g)", sc.Deadline, async.DeadlineMissProb, ref.miss, ref.missTol)
	}
	if want := sc.ErrorRate * async.MeanRollback; !near(async.RollbackRate, want, relTol*want) {
		return fmt.Errorf("async rollback rate %.17g, want θ·age = %.17g", async.RollbackRate, want)
	}
	if ref.symTol > 0 && !near(async.MeanRollback, ref.sym, ref.symTol) {
		return fmt.Errorf("async E[X²]/2E[X] = %.17g, symmetric chain gives %.17g (bound %.3g)", async.MeanRollback, ref.sym, ref.symTol)
	}
	h := fnv.New64a()
	for _, r := range adv.Ranking {
		io.WriteString(h, string(r.Strategy))
		binary.Write(h, binary.LittleEndian, [6]float64{r.OverheadRate, r.CheckpointRate, r.SyncLossRate, r.RollbackRate, r.MeanRollback, r.DeadlineMissProb})
	}
	if prev, ok := w.first[i]; ok && prev != h.Sum64() {
		return errors.New("advice differs from the same entry's earlier run")
	}
	w.first[i] = h.Sum64()
	return nil
}

// missTol bounds the distance between the program's P(X > d) and the
// reference's: the program's uniformization leaves out at most 1e-10 of
// Poisson mass (its truncation bound in total variation), the reference at
// most refTailEps, and rounding over a few hundred steps stays far below.
const missTol = 1e-10 + refTailEps + 1e-12

// reference solves the entry's async chain on the benchmark's own
// generator, and for the lumpable entries the independent O(n) symmetric
// chain.
func (w *adviseMid) reference(i int) (*adviseRef, error) {
	if r := w.refs[i]; r != nil {
		return r, nil
	}
	sc := w.scs[i]
	p := sc.Params()
	mom, err := solveRefMoments(p)
	if err != nil {
		return nil, err
	}
	ref := &adviseRef{missTol: missTol}
	ref.age, ref.ageTol = ageOf(mom)
	if ref.miss, err = refSurvival(p, sc.Deadline); err != nil {
		return nil, err
	}
	if lam, ok := strategyWorkload(sc).UniformLambda(); ok && strategyWorkload(sc).UniformRates() {
		ref.sym, ref.symTol, err = symmetricAge(sc, lam)
		if err != nil {
			return nil, err
		}
	}
	w.refs[i] = ref
	return ref, nil
}

// ageOf returns E[X²]/(2E[X]) and its first-order error bound from moments
// and their bounds, plus rounding.
func ageOf(m refMoments) (age, tol float64) {
	age = m.m2 / (2 * m.m1)
	return age, age*(m.tol2/m.m2+m.tol1/m.m1) + relTol*age
}

// symmetricAge returns E[X²]/(2E[X]) from the lumped symmetric chain and the
// bound within which the advisor's enumerated solve must agree with it.
func symmetricAge(sc scenario.Scenario, lambda float64) (age, tol float64, err error) {
	n := len(sc.Mu)
	sym, err := rbmodel.NewSymmetric(n, sc.Mu[0], lambda)
	if err != nil {
		return 0, 0, err
	}
	// The lumped chain's states are the full chain's orbits, so the largest
	// per-state moments over them are ‖h‖∞ and ‖h₂‖∞ of the full chain.
	c := sym.Chain()
	var h, h2 float64
	for s := 0; s < c.N(); s++ {
		if c.IsAbsorbing(s) {
			continue
		}
		m1, m2, err := c.AbsorptionMoments(s)
		if err != nil {
			return 0, 0, err
		}
		h, h2 = math.Max(h, m1), math.Max(h2, m2)
	}
	m1, m2, err := sym.MomentsX()
	if err != nil {
		return 0, 0, err
	}
	e1, e2 := momentBounds(residualRelTol, sc.Params().TotalEventRate(), h, h2)
	age, tol = ageOf(refMoments{m1: m1, m2: m2, tol1: e1, tol2: e2})
	return age, tol, nil
}

// ---- exact-kron ----

// exactKron solves E[X], E[X²] for n = 17 distinct-μ rate vectors through
// the facade, on the matrix-free route.
type exactKron struct {
	params []rb.Params
	refs   map[int]*refMoments
}

func (w *exactKron) size() int     { return len(w.params) }
func (w *exactKron) traceOps() int { return len(w.params) }

func (w *exactKron) op(ctx context.Context, i int, tr *tracer) (outcome, error) {
	rec := &guard.Recorder{}
	ctx = guard.WithRecorder(ctx, rec)
	tr.begin("rbmodel.build")
	m, err := rb.NewAsyncModel(w.params[i])
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	tr.begin("markov.moments")
	m1, m2, err := m.MomentsXCtx(ctx)
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	out := outcome{answers: 1, route: m.Route(), value: [2]float64{m1, m2}}
	if len(rec.Events()) == 0 {
		out.exact = 1
	}
	return out, nil
}

// kronMatvecCalls is how many operator applications the probe times per op.
const kronMatvecCalls = 8

// probe times KronOp.MulVecInto on an operator of the op's size and term
// structure: n sites, one exchange family and n+1 fixups.
func (w *exactKron) probe(i int, tr *tracer, routes map[string]int) error {
	tr.begin("linalg.kron_build")
	op := kronOperator(w.params[i])
	x := make([]float64, op.Dim())
	y := make([]float64, op.Dim())
	for k := range x {
		x[k] = 1
	}
	tr.end()
	for k := 0; k < kronMatvecCalls; k++ {
		tr.begin("linalg.kron_matvec")
		op.MulVecInto(y, x)
		tr.end()
	}
	return nil
}

// kronOperator assembles a KronOp with the term structure of the program's
// factor build for these rates: R1 site factors, the uniform-λ exchange
// family, and the fixups that identify the all-ones vertex with the entry
// state. It exists to time the operator; the checks never use it.
func kronOperator(p rb.Params) *linalg.KronOp {
	n := p.N()
	ones := 1<<n - 1
	op := linalg.NewKronOp(n)
	for i, mu := range p.Mu {
		op.AddSite(i, -mu, mu, 0, 0)
	}
	op.AddExchange(p.Lambda[0][1])
	for i, mu := range p.Mu {
		op.AddFixup(ones&^(1<<i), ones, -mu)
	}
	op.AddFixup(ones, ones, -p.SumMu())
	return op
}

func (w *exactKron) check(i int, out outcome) error {
	v := out.value.([2]float64)
	m1, m2 := v[0], v[1]
	if math.IsNaN(m1) || math.IsInf(m1, 0) || math.IsNaN(m2) || math.IsInf(m2, 0) {
		return fmt.Errorf("non-finite moments E[X]=%v E[X²]=%v", m1, m2)
	}
	if m2 < m1*m1 {
		return fmt.Errorf("E[X²]=%.17g < E[X]²=%.17g", m2, m1*m1)
	}
	ref, err := w.reference(i)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if math.Abs(m1-ref.m1) > ref.tol1 || math.Abs(m2-ref.m2) > ref.tol2 {
		return fmt.Errorf("E[X]=%.17g E[X²]=%.17g, reference %.17g %.17g (bounds %.3g %.3g)",
			m1, m2, ref.m1, ref.m2, ref.tol1, ref.tol2)
	}
	return nil
}

// reference solves both moment systems on the benchmark's own state-loop
// generator (reference.go), and bounds the distance an accepted program
// answer may lie from it.
func (w *exactKron) reference(i int) (*refMoments, error) {
	if r := w.refs[i]; r != nil {
		return r, nil
	}
	ref, err := solveRefMoments(w.params[i])
	if err != nil {
		return nil, err
	}
	w.refs[i] = &ref
	return &ref, nil
}

// ---- crosscheck ----

// crossAlpha is the family-wise false-alarm rate each batch is judged at.
// The default 1e-3 would, over the thousands of batches a full benchmark
// sweep evaluates, flag a handful of correct batches by chance; 1e-6 keeps
// that below one in a hundred sweeps while a biased model or simulator
// still fails by many standard errors.
const crossAlpha = 1e-6

// crossCheck runs model↔simulator cross-check batches of corpus scenarios.
type crossCheck struct {
	batches [][]scenario.Scenario
	first   map[int]uint64 // report fingerprint of each batch's first run
}

// crossOutcome is the part of a batch report the checks need; keeping it
// instead of the report holds the run's memory to what the ops themselves use.
type crossOutcome struct {
	scenarios, failures, quarantined int
	bad                              []string
	fingerprint                      uint64
}

func (w *crossCheck) size() int     { return len(w.batches) }
func (w *crossCheck) traceOps() int { return 32 }

func (w *crossCheck) op(ctx context.Context, i int, tr *tracer) (outcome, error) {
	rec := &guard.Recorder{}
	tr.begin("scenario.run")
	rep, err := scenario.Run(w.batches[i], scenario.Options{Alpha: crossAlpha, Ctx: guard.WithRecorder(ctx, rec)})
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	// One answer per scenario's advice, plus the batch's model references.
	out := outcome{answers: len(rep.Scenarios) + 1}
	co := crossOutcome{scenarios: len(rep.Scenarios), failures: rep.Failures, quarantined: rep.Quarantined}
	h := fnv.New64a()
	for _, r := range rep.Scenarios {
		if r.Error == "" && r.Advice.Confidence == scenario.ConfidenceExact {
			out.exact++
		}
		if r.Error != "" || r.Failures != 0 {
			co.bad = append(co.bad, r.Summary.Name)
		}
		io.WriteString(h, string(r.Advice.Winner))
		for _, c := range r.Checks {
			binary.Write(h, binary.LittleEndian, [3]float64{c.Ref, c.Est, c.SE})
		}
	}
	if len(rec.Events()) == 0 {
		out.exact++
	}
	co.fingerprint = h.Sum64()
	out.value = co
	return out, nil
}

func (w *crossCheck) probe(int, *tracer, map[string]int) error { return nil }

func (w *crossCheck) check(i int, out outcome) error {
	co := out.value.(crossOutcome)
	if co.failures != 0 || co.quarantined != 0 {
		return fmt.Errorf("%d failed checks, %d quarantined scenarios: %v", co.failures, co.quarantined, co.bad)
	}
	if co.scenarios != len(w.batches[i]) {
		return fmt.Errorf("report has %d scenarios, want %d", co.scenarios, len(w.batches[i]))
	}
	if prev, ok := w.first[i]; ok && prev != co.fingerprint {
		return errors.New("report differs from the same batch's earlier run")
	}
	w.first[i] = co.fingerprint
	return nil
}
