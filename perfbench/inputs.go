package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"recoveryblocks/internal/chaos"
	"recoveryblocks/internal/scenario"
	"recoveryblocks/internal/strategy"
)

// Input generation. Every workload's op list is derived from the seed alone
// and serialized to bytes; the program only ever sees what decode makes of
// those bytes, never the seed or the workload name. The same seed gives
// byte-identical inputs (see inputs_test.go), and main prints their digest.

// Stated input sizes. Each workload keeps every op in one size class so its
// latency percentiles sit inside a single mode.
const (
	adviseN        = 11 // processes per advise-mid scenario
	adviseOps      = 64 // distinct advise-mid scenarios, cycled
	adviseLumpable = 4  // every 4th advise-mid scenario has identical μ

	kronN   = 17 // processes per exact-kron rate vector: past the enumeration wall
	kronOps = 4  // distinct exact-kron rate vectors, cycled
	kronRho = 1.0

	crossBatch = 32 // scenarios per crosscheck op
	crossOps   = 96 // distinct crosscheck batches, cycled
)

// workloadNames lists the benchmark's workloads.
var workloadNames = []string{"advise-mid", "exact-kron", "crosscheck"}

// inputs is the serialized op list of one workload.
type inputs []byte

func (in inputs) digest() string {
	sum := sha256.Sum256(in)
	return hex.EncodeToString(sum[:8])
}

// rngFor derives the workload's generator. The stream constant separates
// workloads, so one seed gives unrelated inputs to each.
func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func allStrategies() []string {
	var names []string
	for _, n := range strategy.Names() {
		names = append(names, string(n))
	}
	return names
}

// generate builds the op list of the named workload from the seed.
func generate(workload string, seed int64) (inputs, error) {
	switch workload {
	case "advise-mid":
		return genAdvise(seed)
	case "exact-kron":
		return genKron(seed)
	case "crosscheck":
		return genCross(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// genAdvise draws adviseOps scenario specs with n = adviseN, a deadline and
// every registered strategy. Three in four have distinct μ; every
// adviseLumpable-th has identical μ, so its chain can be lumped. Rates,
// interaction density and deadline are drawn from narrow bands around
// μ = 1, ρ = 1 and d = 3.5 so that every seed prices the same mix of work.
func genAdvise(seed int64) (inputs, error) {
	rng := rngFor(seed, 1)
	spec := scenario.Spec{Version: scenario.SpecVersion}
	for i := 0; i < adviseOps; i++ {
		mu := make([]float64, adviseN)
		common := 0.9 + 0.2*rng.Float64()
		for j := range mu {
			mu[j] = common
			if i%adviseLumpable != adviseLumpable-1 {
				mu[j] = 0.7 + 0.6*rng.Float64()
			}
		}
		spec.Scenarios = append(spec.Scenarios, scenario.ScenarioSpec{
			Name:           fmt.Sprintf("op%03d", i),
			Mu:             mu,
			Rho:            0.9 + 0.2*rng.Float64(),
			SyncInterval:   scenario.SyncSpec{Tau: 0.5 + rng.Float64()},
			SyncEveryK:     2 + rng.IntN(3),
			CheckpointCost: 0.01 + 0.04*rng.Float64(),
			Deadline:       3 + rng.Float64(),
			ErrorRate:      0.02 + 0.08*rng.Float64(),
			Strategies:     allStrategies(),
			Reps:           scenario.QuickReps,
		})
	}
	return json.Marshal(&spec)
}

// genKron draws kronOps distinct-μ rate vectors at n = kronN with a uniform
// λ giving ρ = kronRho. Distinct μ cannot be lumped, so every op takes the
// matrix-free route. The vectors travel as a scenario spec.
func genKron(seed int64) (inputs, error) {
	rng := rngFor(seed, 2)
	spec := scenario.Spec{Version: scenario.SpecVersion}
	for i := 0; i < kronOps; i++ {
		mu := make([]float64, kronN)
		seen := make(map[float64]bool, kronN)
		for j := range mu {
			for mu[j] == 0 || seen[mu[j]] {
				mu[j] = 0.5 + 1.5*rng.Float64()
			}
			seen[mu[j]] = true
		}
		spec.Scenarios = append(spec.Scenarios, scenario.ScenarioSpec{
			Name:         fmt.Sprintf("op%03d", i),
			Mu:           mu,
			Rho:          kronRho,
			SyncInterval: scenario.SyncSpec{Tau: 1},
			Strategies:   []string{string(strategy.Async)},
			Reps:         scenario.QuickReps,
		})
	}
	return json.Marshal(&spec)
}

// genCross draws crossOps batches of crossBatch scenarios from the chaos
// corpus generator, each batch from its own corpus seed, and writes each
// batch back out as a version-1 scenario spec.
func genCross(seed int64) (inputs, error) {
	rng := rngFor(seed, 3)
	specs := make([]scenario.Spec, crossOps)
	for b := range specs {
		// The corpus seed is a fresh draw, so the benchmark seed itself never
		// reaches the program; it stays below 2^40 so that the corpus's
		// per-scenario seed offsets cannot overflow.
		scs, err := chaos.Corpus(crossBatch, int64(rng.Uint64()>>24))
		if err != nil {
			return nil, err
		}
		specs[b] = scenario.Spec{Version: scenario.SpecVersion}
		for _, sc := range scs {
			specs[b].Scenarios = append(specs[b].Scenarios, specOf(sc))
		}
	}
	return json.Marshal(specs)
}

// specOf writes a resolved scenario back in the spec schema; Resolve maps it
// to an identical scenario.
func specOf(sc scenario.Scenario) scenario.ScenarioSpec {
	ss := scenario.ScenarioSpec{
		Name:           sc.Name,
		Mu:             sc.Mu,
		LambdaMatrix:   sc.Lambda,
		SyncInterval:   scenario.SyncSpec{Optimal: sc.OptimalSync, Tau: sc.SyncInterval},
		SyncEveryK:     sc.EveryK,
		CheckpointCost: sc.CheckpointCost,
		Deadline:       sc.Deadline,
		ErrorRate:      sc.ErrorRate,
		PLocal:         &sc.PLocal,
		Reps:           sc.Reps,
		Seed:           sc.Seed,
	}
	if sc.OptimalSync {
		ss.SyncInterval.Tau = 0
	}
	for _, st := range sc.Strategies {
		ss.Strategies = append(ss.Strategies, string(st))
	}
	return ss
}

// decodeSpecs decodes advise-mid and exact-kron inputs through the public
// spec decoder.
func decodeSpecs(in inputs) ([]scenario.Scenario, error) {
	return scenario.Load(in)
}

// decodeBatches decodes crosscheck inputs: one spec per batch, each through
// the public spec decoder.
func decodeBatches(in inputs) ([][]scenario.Scenario, error) {
	var specs []json.RawMessage
	if err := json.Unmarshal(in, &specs); err != nil {
		return nil, fmt.Errorf("decode crosscheck batches: %w", err)
	}
	batches := make([][]scenario.Scenario, len(specs))
	for b, raw := range specs {
		scs, err := scenario.Load(raw)
		if err != nil {
			return nil, fmt.Errorf("decode crosscheck batch %d: %w", b, err)
		}
		batches[b] = scs
	}
	return batches, nil
}
