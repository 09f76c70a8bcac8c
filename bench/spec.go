package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bgla/internal/workload"
)

// Run shape shared by every workload on every commit.
const (
	replicas       = 4   // n
	faulty         = 1   // f
	satClients     = 16  // closed-loop client goroutines in the sat phase
	maxOutstanding = 256 // open-loop ops in flight; an arrival beyond it is shed
	setupReps      = 3   // set-ups per run; setup_s is their median
	openShare      = 0.7 // share of --seconds spent in the open phase (rest: sat)
	sampleEvery    = 50  // 1-in-N confirmed reads is checked by the oracle
	recoverCycles  = 3   // close → reopen → first read cycles on durable-mixed
	keySpace       = 10000
)

// deployment selects how a workload's cluster is assembled.
type deployment int

const (
	deployService deployment = iota // bgla.Service on chanet
	deployStore                     // bgla.Store on chanet
	deployWire                      // tcpnet nodes + rsm replicas + batch pipeline
)

// spec is one named workload. Rates and preload sizes are constants
// calibrated once on the 2-core reference box (≈40–50 % of the measured
// saturation throughput) and are never derived at run time, so the same
// offered load is applied on every commit.
type spec struct {
	name   string
	deploy deployment
	shards int
	// durable puts a WAL (SyncMode "group") under a fresh directory.
	durable bool
	// ckptEvery is CheckpointEvery (compact.Config.Every on wire-byz).
	ckptEvery int
	mix       workload.Mix
	keys      func() workload.KeyGen
	// rate is the open-loop Poisson arrival rate in ops/s.
	rate float64
	// preload is the closed-loop update count applied during set-up; it
	// is a multiple of ckptEvery so caches and anchors are warm.
	preload int
}

var specs = []spec{
	{
		// in-memory chanet cluster, 98% updates: all time is batch/gwts/tally/rbc/lattice/compact; wal, codec, tcpnet, ed25519, shard idle (control for storage/wire/shard work)
		name:   "mem-update",
		deploy: deployService, ckptEvery: 1024,
		mix:  workload.Mix{Update: 99, Read: 1},
		keys: func() workload.KeyGen { return workload.Uniform{N: keySpace} },
		rate: 1500, preload: 4096,
	},
	{
		// WAL on the OS filesystem with group fsync, 95% updates / 5% confirmed reads, Zipf keys: wal append+fsync and read materialisation do the marginal work
		name:   "durable-mixed",
		deploy: deployService, durable: true, ckptEvery: 1024,
		mix:  workload.Mix{Update: 95, Read: 5},
		keys: func() workload.KeyGen { return workload.NewZipf(keySpace, 1.1) },
		rate: 600, preload: 4096,
	},
	{
		// 4-shard Store, 90% updates / 9% point reads / 1% Scan, 16 hot keys take half the traffic: Demux fan-out, 4x replica machines and double-collect Scan do the work
		name:   "sharded-scan",
		deploy: deployStore, shards: 4, ckptEvery: 1024,
		mix:  workload.Mix{Update: 90, Read: 10},
		keys: func() workload.KeyGen { return workload.HotSet{N: keySpace, Hot: 16, Frac: 0.5} },
		rate: 700, preload: 4096,
	},
	{
		// loopback TCP, ed25519 links, binary+delta codec, replica 3 mute so every quorum needs all three correct replicas: the only workload with codec, framing and signatures on the blocking path
		name:   "wire-byz",
		deploy: deployWire, ckptEvery: 512,
		mix:  workload.Mix{Update: 90, Read: 10},
		keys: func() workload.KeyGen { return workload.Uniform{N: keySpace} },
		rate: 130, preload: 1024,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// benchmarkFile is the root BENCHMARK.json: the single list of metric
// names, units, directions and bounds. The binary computes values by
// name and reports exactly the metrics the file lists.
type benchmarkFile struct {
	RunSeconds int         `json:"run_seconds"`
	Workloads  []nameWhy   `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkFile reads BENCHMARK.json from the parent of the working
// directory (run.sh and `go run .` both run from bench/).
func loadBenchmarkFile() (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
