// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, closed loop (one client, one op at a time),
// checks every output, and prints one JSON result as its last line.
//
//	perfbench --workload advise-mid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a separate traced run. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"recoveryblocks/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Set-up is timed in batches of back-to-back set-ups, each batch at least
// setupBatchTime long, so that set-ups of a few hundred microseconds are not
// read off single timer calls. Batches repeat until there are at least
// setupMinBatches of them and setupMinTime has passed; setup_s is the median
// over batches of the time per set-up. Each batch starts from a collected
// heap.
const (
	setupBatchTime  = 50 * time.Millisecond
	setupMinBatches = 5
	setupMinTime    = time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: advise-mid, exact-kron or crosscheck")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames)
		return 2
	}

	st := hostStamp(*name, *seed)
	w, setups, err := setUp(*name, *seed, &st)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	b, _ := json.Marshal(map[string]any{"stamp": st})
	fmt.Fprintln(stdout, string(b))

	runtime.GC() // the timed phase starts from a collected heap too
	ctx := context.Background()
	logf := func(op, entry int, msg string) {
		fmt.Fprintf(stderr, "FAIL workload=%s seed=%d op=%d entry=%d: %s\n", *name, *seed, op, entry, msg)
	}
	var res result
	if *trace == 0 {
		res = endToEnd(ctx, w, *seconds, median(setups), logf, stdout)
	} else {
		spans := fmt.Sprintf(".bench_build/spans-%s-%d.json", *name, *seed)
		res = traced(ctx, w, *name, *seconds, spans, logf, stdout, stderr)
	}
	b, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// setUp generates the inputs and decodes them into the workload, repeatedly;
// it returns the last workload and the time per set-up of every batch.
func setUp(name string, seed int64, st *stamp) (workload, []float64, error) {
	var w workload
	once := func() error {
		in, err := generate(name, seed)
		if err != nil {
			return err
		}
		w, err = newWorkload(name, in)
		st.Inputs = in.digest()
		return err
	}
	// The first set-up sizes the batches.
	t0 := time.Now()
	if err := once(); err != nil {
		return nil, nil, err
	}
	batch := max(1, int(setupBatchTime/max(time.Since(t0), time.Microsecond)))
	var times []float64
	begin := time.Now()
	for len(times) < setupMinBatches || time.Since(begin) < setupMinTime {
		runtime.GC()
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			if err := once(); err != nil {
				return nil, nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds()/float64(batch))
	}
	return w, times, nil
}

// opRecord is one timed op.
type opRecord struct {
	idx     int
	latency float64 // seconds
	out     outcome
	err     error
}

// phase runs ops closed loop, starting at list entry 0, until minSeconds
// have passed and at least minOps ops have run (maxOps > 0 caps the count).
func phase(ctx context.Context, w workload, minSeconds float64, minOps, maxOps int, each func(i int, rec *opRecord)) (ops []opRecord, wall float64) {
	start := time.Now()
	for i := 0; maxOps <= 0 || i < maxOps; i++ {
		if time.Since(start).Seconds() >= minSeconds && i >= minOps {
			break
		}
		rec := opRecord{idx: i % w.size()}
		if each != nil {
			each(i, &rec)
		} else {
			t0 := time.Now()
			rec.out, rec.err = w.op(ctx, rec.idx, nil)
			rec.latency = time.Since(t0).Seconds()
		}
		ops = append(ops, rec)
	}
	return ops, time.Since(start).Seconds()
}

// failureLog reports one failed op: its index in the run, its list entry
// and the reason.
type failureLog func(op, entry int, msg string)

// verify runs every op's checks after the timed phase and logs each failure;
// it returns the failure count and the exact and total answer counts.
func verify(w workload, ops []opRecord, logf failureLog) (failed, exact, answers int) {
	for k, r := range ops {
		err := r.err
		if err == nil {
			err = w.check(r.idx, r.out)
		}
		if err != nil {
			failed++
			logf(k, r.idx, err.Error())
		}
		exact += r.out.exact
		answers += r.out.answers
	}
	return failed, exact, answers
}

func endToEnd(ctx context.Context, w workload, seconds, setupS float64, logf failureLog, stdout io.Writer) result {
	ops, wall := phase(ctx, w, seconds, 1, 0, nil)
	rss := readUsage().maxRSSMB
	failed, exact, answers := verify(w, ops, logf)
	lat := make([]float64, len(ops))
	for k, r := range ops {
		lat[k] = r.latency
	}
	res := result{
		Correct:   failed == 0,
		Attempted: len(ops),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {setupS, "s"},
			"throughput_ops_s": {float64(len(ops)) / wall, "ops/s"},
			"latency_p50_ms":   {1e3 * quantile(lat, 0.5), "ms"},
			"peak_rss_mb":      {rss, "MB"},
			"ok_ratio":         {float64(len(ops)-failed) / float64(len(ops)), "ratio"},
			"exact_ratio":      {ratio(exact, answers), "ratio"},
		},
	}
	// p90 is only meaningful with at least ten samples beyond it.
	summary := map[string]any{"samples": len(ops), "timed_s": wall}
	if len(ops) >= 100 {
		summary["latency_p90_ms"] = 1e3 * quantile(lat, 0.9)
	}
	b, _ := json.Marshal(map[string]any{"summary": summary})
	fmt.Fprintln(stdout, string(b))
	return res
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// traceRun is the traced phase of a traced run.
type traceRun struct {
	tr        *tracer
	sums      counts         // deterministic counter deltas over the ops' own calls
	routes    map[string]int // async model routes seen by the ops and probes
	ops       []opRecord
	probeErrs []string
	// mc pool gauges: the last run's worker count and the largest per-run
	// block imbalance.
	workers, imbalance float64
}

// runTraced runs k ops with obs enabled. Each op sits under an "op" root
// span, with the obs counters read around it; after it, outside the counted
// interval and under a "probe" root span, run the workload's layer probes.
func runTraced(ctx context.Context, w workload, k int) *traceRun {
	reg := obs.Enable()
	defer obs.Disable()
	t := &traceRun{tr: newTracer(), sums: make(counts), routes: make(map[string]int)}
	t.ops, _ = phase(ctx, w, 0, k, k, func(i int, rec *opRecord) {
		t.tr.op = i
		t.tr.begin("op")
		before := snapshot(reg)
		t0 := time.Now()
		rec.out, rec.err = w.op(ctx, rec.idx, t.tr)
		rec.latency = time.Since(t0).Seconds()
		t.sums.addDelta(snapshot(reg), before)
		if rec.out.route != "" {
			t.routes[rec.out.route]++
		}
		t.tr.end()
		t.tr.begin("probe")
		if err := w.probe(rec.idx, t.tr, t.routes); err != nil {
			t.probeErrs = append(t.probeErrs, fmt.Sprintf("op %d probe: %v", i, err))
		}
		t.tr.end()
	})
	t.workers = reg.Gauge("mc_workers").Value()
	t.imbalance = reg.Gauge("mc_imbalance_blocks").Value()
	return t
}

// traced is the per-layer run: an untraced phase for the process-level
// costs and the overhead baseline, then the traced phase. End-to-end
// metrics never come from here.
func traced(ctx context.Context, w workload, name string, seconds float64, spansPath string, logf failureLog, stdout, stderr io.Writer) result {
	k := w.traceOps()
	u0 := readUsage()
	plain, _ := phase(ctx, w, seconds/2, k, 0, nil)
	u1 := readUsage()
	t := runTraced(ctx, w, k)

	all := append(plain, t.ops...)
	failed, _, _ := verify(w, all, logf)

	lm := layerMetrics(t.tr, t.sums, t.routes, k, t.workers, t.imbalance)
	n := float64(len(plain))
	lm["process.cpu_ms_per_op"] = metric{1e3 * (u1.cpu - u0.cpu).Seconds() / n, "ms"}
	lm["process.alloc_mb_per_op"] = metric{float64(u1.alloc-u0.alloc) / 1e6 / n, "MB"}
	lm["process.gc_cycles_per_op"] = metric{float64(u1.gcs-u0.gcs) / n, "count"}
	lm["process.minor_faults_per_op"] = metric{float64(u1.minflt-u0.minflt) / n, "count"}
	lm["obs.trace_overhead"] = metric{meanLatency(plain[:k]) / meanLatency(t.ops), "ratio"}

	cs := coverageSpans[name]
	proofs := append(proveLayers(name, lm, t.tr.coverage(cs.whole, cs.parts, cs.pooled), cs.pooled), t.probeErrs...)
	for _, p := range proofs {
		fmt.Fprintln(stderr, "PROOF FAILED:", p)
	}
	t.tr.printLayers(stderr)
	if err := t.tr.write(spansPath); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing spans:", err)
	}
	b, _ := json.Marshal(map[string]any{"summary": map[string]any{
		"untraced_ops": len(plain), "traced_ops": len(t.ops), "spans": spansPath, "proofs_failed": len(proofs),
	}})
	fmt.Fprintln(stdout, string(b))
	return result{
		Correct:   failed == 0 && len(proofs) == 0,
		Attempted: len(all),
		Failed:    failed,
		Metrics:   lm,
	}
}

func meanLatency(ops []opRecord) float64 {
	s := 0.0
	for _, r := range ops {
		s += r.latency
	}
	return s / float64(len(ops))
}

// priceSpans maps each registered strategy's Price span to its metric.
var priceSpans = []string{"async", "sync", "prp", "sync-every-k"}

// coverageSpans names, per workload, the span an op's time is measured by
// and the layer spans that must account for at least 90 % of it. On
// exact-kron these are the op's own two calls, checked op by op. On
// advise-mid they are the probe's direct Price calls for the same entry
// against the advisor call, so a layer the per-strategy split misses shows;
// as these are two executions of the same work, whose times vary from call
// to call with the host's speed by up to a third, their times are pooled
// over the run's ops before the ratio is taken. A crosscheck op is a single
// call into scenario.Run, so its proof holds by construction.
var coverageSpans = map[string]struct {
	whole  string
	parts  []string
	pooled bool
}{
	"advise-mid": {"scenario.advise", []string{"strategy.price.async", "strategy.price.sync", "strategy.price.prp", "strategy.price.sync-every-k"}, true},
	"exact-kron": {"op", []string{"rbmodel.build", "markov.moments"}, false},
	"crosscheck": {"op", []string{"scenario.run"}, false},
}

// layerMetrics derives the per-layer metrics of the traced ops: times are
// per call, counts per op.
func layerMetrics(tr *tracer, c counts, routes map[string]int, ops int, workers, imbalance float64) map[string]metric {
	ls := tr.layers()
	per := func(name string) float64 { return c[name] / float64(ops) }
	ms := func(span string) float64 { return ls[span].meanMs() }
	m := map[string]metric{
		"scenario.advise_ms": {ms("scenario.advise"), "ms"},
		"scenario.run_ms":    {ms("scenario.run"), "ms"},

		"strategy.crosschecks": {per("strategy_crosschecks_total"), "count"},

		"rbmodel.build_ms": {ms("rbmodel.build"), "ms"},

		"markov.moments_ms":             {ms("markov.moments"), "ms"},
		"markov.deadline_ms":            {ms("markov.deadline"), "ms"},
		"markov.solves_dense":           {per("markov_solve_dense_total"), "count"},
		"markov.solves_sparse":          {per("markov_solve_sparse_total"), "count"},
		"markov.solves_kron":            {per("markov_solve_kron_total"), "count"},
		"markov.uniformization_matvecs": {per("markov_uniformization_matvecs_total"), "count"},
		"markov.kron_matvecs":           {per("markov_kron_matvecs_total"), "count"},
		"markov.krylov_iters":           {per("markov_krylov_iters_total"), "count"},
		"linalg.kron_matvec_ms":         {ms("linalg.kron_matvec"), "ms"},
		"linalg.gs_sweeps":              {per("linalg_gs_sweeps_total"), "count"},
		"linalg.csr_nnz":                {per("linalg_csr_nnz"), "count"},
		"guard.blocks":                  {per("guard_blocks_total"), "count"},
		"guard.fallbacks":               {per("guard_fallbacks_total"), "count"},
		"guard.rejects":                 {per("guard_rejects_total"), "count"},
		"sim.async_events":              {per("sim_async_events_total"), "count"},
		"sim.sync_cycles":               {per("sim_sync_cycles_total"), "count"},
		"sim.prp_probes":                {per("sim_prp_probes_total"), "count"},
		"mc.blocks":                     {per("mc_blocks_total"), "count"},
		"mc.map_items":                  {per("mc_map_items_total"), "count"},
		"mc.imbalance_blocks":           {imbalance, "count"},
	}
	for _, s := range priceSpans {
		m["strategy.price_ms."+s] = metric{ms("strategy.price." + s), "ms"}
	}
	models := 0
	for _, n := range routes {
		models += n
	}
	for _, r := range []string{"enumerated", "orbit", "kron"} {
		m["rbmodel.route."+r] = metric{ratio(routes[r], models), "ratio"}
	}
	share := 0.0
	if mom := ms("markov.moments"); mom > 0 {
		share = per("markov_kron_matvecs_total") * ms("linalg.kron_matvec") / mom
	}
	m["linalg.operator_share"] = metric{share, "ratio"}
	// The simulators and the mc pool run inside scenario.Run; their rates are
	// taken against its wall time.
	runS := 0.0
	if l := ls["scenario.run"]; l != nil {
		runS = l.Total
	}
	events := c["sim_async_events_total"] + c["sim_sync_cycles_total"] + c["sim_prp_probes_total"]
	evRate, busy := 0.0, 0.0
	if runS > 0 {
		evRate = events / runS
		if workers > 0 {
			busy = c["mc_worker_busy_seconds"] / (workers * runS)
		}
	}
	m["sim.events_per_s"] = metric{evRate, "1/s"}
	m["mc.worker_busy_share"] = metric{busy, "ratio"}
	return m
}

// proveLayers checks that each workload exercises the layers it claims to
// and that the timed layer calls cover each traced op.
func proveLayers(name string, m map[string]metric, coverage []float64, pooled bool) []string {
	var bad []string
	need := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	v := func(k string) float64 { return m[k].Value }
	switch name {
	case "exact-kron":
		need(v("rbmodel.route.kron") == 1, "exact-kron: rbmodel.route.kron = %v, want 1", v("rbmodel.route.kron"))
		need(v("linalg.gs_sweeps") == 0, "exact-kron: linalg.gs_sweeps = %v, want 0", v("linalg.gs_sweeps"))
	case "advise-mid":
		need(v("rbmodel.route.enumerated") == 1, "advise-mid: rbmodel.route.enumerated = %v, want 1", v("rbmodel.route.enumerated"))
		need(v("markov.kron_matvecs") == 0, "advise-mid: markov.kron_matvecs = %v, want 0", v("markov.kron_matvecs"))
	case "crosscheck":
		events := v("sim.async_events") + v("sim.sync_cycles") + v("sim.prp_probes")
		other := v("markov.uniformization_matvecs") + v("markov.kron_matvecs") + v("markov.krylov_iters") + v("linalg.gs_sweeps")
		need(events > other, "crosscheck: %v simulated events per op do not dominate %v solver steps", events, other)
		need(v("markov.kron_matvecs") == 0, "crosscheck: markov.kron_matvecs = %v, want 0", v("markov.kron_matvecs"))
	}
	for op, c := range coverage {
		who := fmt.Sprintf("op %d", op)
		if pooled {
			who = "all ops pooled"
		}
		need(c >= 0.9, "%s: layer spans cover %.3f of the op time, want ≥ 0.9", who, c)
	}
	return bad
}
