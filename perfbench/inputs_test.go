package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strconv"
	"testing"

	"recoveryblocks/internal/chaos"
)

func mustGenerate(t *testing.T, name string, seed int64) inputs {
	t.Helper()
	in, err := generate(name, seed)
	if err != nil {
		t.Fatalf("generate(%s, %d): %v", name, seed, err)
	}
	return in
}

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, b := mustGenerate(t, name, 7), mustGenerate(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", name)
		}
		t.Logf("%s seed 7: %d bytes, sha256 %s", name, len(a), a.digest())
	}
}

func TestDifferentSeedGivesDifferentInputs(t *testing.T) {
	for _, name := range workloadNames {
		if bytes.Equal(mustGenerate(t, name, 7), mustGenerate(t, name, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", name)
		}
	}
}

// The program is handed the decoded inputs only: the bytes carry neither
// the workload name nor the seed, and the workloads are built from the
// bytes alone.
func TestProgramReceivesOnlyInputs(t *testing.T) {
	const seed = 918273645
	for _, name := range workloadNames {
		in := mustGenerate(t, name, seed)
		if bytes.Contains(in, []byte(name)) {
			t.Errorf("%s: inputs contain the workload name", name)
		}
		if bytes.Contains(in, []byte(strconv.Itoa(seed))) {
			t.Errorf("%s: inputs contain the seed", name)
		}
		w, err := newWorkload(name, in)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if w.size() == 0 {
			t.Errorf("%s: empty op list", name)
		}
	}
}

func TestInputSizes(t *testing.T) {
	in := mustGenerate(t, "advise-mid", 3)
	scs, err := decodeSpecs(in)
	if err != nil {
		t.Fatal(err)
	}
	lumpable := 0
	for _, sc := range scs {
		if len(sc.Mu) != adviseN || sc.Deadline <= 0 || len(sc.Strategies) != 4 {
			t.Fatalf("advise-mid scenario %s: n=%d deadline=%v strategies=%d", sc.Name, len(sc.Mu), sc.Deadline, len(sc.Strategies))
		}
		w := strategyWorkload(sc)
		if _, ok := w.UniformLambda(); ok && w.UniformRates() {
			lumpable++
		}
	}
	if lumpable*adviseLumpable != len(scs) {
		t.Errorf("advise-mid: %d of %d scenarios lumpable, want one in %d", lumpable, len(scs), adviseLumpable)
	}

	scs, err = decodeSpecs(mustGenerate(t, "exact-kron", 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		seen := make(map[float64]bool)
		for _, mu := range sc.Mu {
			seen[mu] = true
		}
		if len(sc.Mu) != kronN || len(seen) != kronN {
			t.Errorf("exact-kron %s: n=%d with %d distinct rates", sc.Name, len(sc.Mu), len(seen))
		}
	}
}

// The crosscheck batches survive the trip through the spec schema exactly.
func TestCrosscheckBatchesRoundTrip(t *testing.T) {
	batches, err := decodeBatches(mustGenerate(t, "crosscheck", 5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rngFor(5, 3)
	for b := 0; b < 3; b++ {
		want, err := chaos.Corpus(crossBatch, int64(rng.Uint64()>>24))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batches[b], want) {
			t.Fatalf("batch %d differs from its corpus after decoding", b)
		}
	}
}

// Two traced runs of the same inputs record identical deterministic counts.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's ops")
	}
	for _, name := range workloadNames {
		w1, err := newWorkload(name, mustGenerate(t, name, 11))
		if err != nil {
			t.Fatal(err)
		}
		w2, err := newWorkload(name, mustGenerate(t, name, 11))
		if err != nil {
			t.Fatal(err)
		}
		k := min(2, w1.traceOps())
		if name == "exact-kron" {
			k = 1
		}
		a, b := runTraced(context.Background(), w1, k), runTraced(context.Background(), w2, k)
		delete(a.sums, "mc_worker_busy_seconds") // a timing, not a count
		delete(b.sums, "mc_worker_busy_seconds")
		if !reflect.DeepEqual(a.sums, b.sums) || !reflect.DeepEqual(a.routes, b.routes) {
			t.Errorf("%s: counts differ between two traced runs:\n%v %v\n%v %v", name, a.sums, a.routes, b.sums, b.routes)
		}
		if len(a.probeErrs) > 0 {
			t.Errorf("%s: probe errors %v", name, a.probeErrs)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.9); math.Abs(q-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Errorf("p100 = %v, want 5", q)
	}
}
