package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"recoveryblocks/internal/obs"
)

// The traced run measures each layer from outside: spans around the
// benchmark's own calls into the program's public functions, and deltas of
// the program's existing internal/obs counters around each op. Nothing is
// added inside the program.

// span is one timed call, kept in memory and written out when the run ends.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"` // index of the enclosing span; -1 for an op root
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer records nested spans. A nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Seconds()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"` // span time minus the time its child spans cover
}

func (l *layerTime) meanMs() float64 {
	if l == nil || l.Calls == 0 {
		return 0
	}
	return 1e3 * l.Total / float64(l.Calls)
}

// layers folds the spans by name and derives self time.
func (t *tracer) layers() map[string]*layerTime {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTime{}
			out[s.Name] = l
		}
		l.Calls++
		l.Total += s.dur()
		l.Self += s.dur() - child[i]
	}
	return out
}

// coverage returns, per op, the time of the op's spans named in parts over
// the time of its spans named whole. With pooled set, it returns a single
// ratio of the times summed over all ops.
func (t *tracer) coverage(whole string, parts []string, pooled bool) []float64 {
	var num, den []float64
	for _, s := range t.spans {
		k := s.Op
		if pooled {
			k = 0
		}
		for len(den) <= k {
			num, den = append(num, 0), append(den, 0)
		}
		if s.Name == whole {
			den[k] += s.dur()
		}
		if slices.Contains(parts, s.Name) {
			num[k] += s.dur()
		}
	}
	for k := range num {
		num[k] /= den[k]
	}
	return num
}

// write stores the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Layers map[string]*layerTime `json:"layers"`
		Spans  []span                `json:"spans"`
	}{t.layers(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printLayers writes the self-time table, largest first.
func (t *tracer) printLayers(w io.Writer) {
	ls := t.layers()
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return ls[names[i]].Self > ls[names[j]].Self })
	fmt.Fprintf(w, "%-26s %6s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		l := ls[n]
		fmt.Fprintf(w, "%-26s %6d %12.3f %12.3f\n", n, l.Calls, 1e3*l.Total, 1e3*l.Self)
	}
}

// Deterministic obs counters read around each op, and the histogram sums
// that go with them.
var (
	counterNames = []string{
		"markov_solve_dense_total",
		"markov_solve_sparse_total",
		"markov_solve_kron_total",
		"markov_uniformization_matvecs_total",
		"markov_kron_matvecs_total",
		"markov_krylov_iters_total",
		"linalg_gs_sweeps_total",
		"guard_blocks_total",
		"guard_fallbacks_total",
		"guard_rejects_total",
		"sim_async_events_total",
		"sim_sync_cycles_total",
		"sim_prp_probes_total",
		"mc_blocks_total",
		"mc_map_items_total",
		"strategy_crosschecks_total",
	}
	histSumNames = []string{"linalg_csr_nnz", "mc_worker_busy_seconds"}
)

// counts is a snapshot of the counters and histogram sums.
type counts map[string]float64

func snapshot(reg *obs.Registry) counts {
	c := make(counts, len(counterNames)+len(histSumNames))
	for _, n := range counterNames {
		c[n] = float64(reg.Counter(n).Value())
	}
	for _, n := range histSumNames {
		c[n] = reg.Histogram(n).Snapshot().Sum
	}
	return c
}

// addDelta accumulates after − before into c.
func (c counts) addDelta(after, before counts) {
	for n, v := range after {
		c[n] += v - before[n]
	}
}
