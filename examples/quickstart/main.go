// Quickstart: one-shot Byzantine Lattice Agreement on the Figure 1
// lattice (the power set of {1,2,3,4} under union). Four processes each
// propose a singleton; one is silent (crash-like Byzantine); the three
// correct ones decide values that lie on a single chain.
//
// From here, the live long-running entry points are bgla.Service and
// bgla.Store (see examples/batching and examples/sharding). For
// deployments that run long enough for history to matter, set
// ServiceConfig.CheckpointEvery (and/or CheckpointBytes): the cluster
// then folds its decided prefix into signed checkpoints, keeping
// per-round latency and resident memory flat as history grows and
// letting restarted replicas catch up by state transfer — see
// DESIGN.md §6.
//
// On the wire (cmd/bglarsm, internal/tcpnet), peers speak the
// zero-allocation binary frame codec, with delta framing for
// history-sized sets; WAL records use the same codec — see DESIGN.md
// §10 for the frame layout.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"bgla"
)

func main() {
	report, err := bgla.Solve(bgla.Config{
		N: 4, F: 1,
		Algorithm: bgla.WTS,
		Proposals: map[int][]string{
			0: {"1"},
			1: {"2"},
			2: {"3"},
		},
		Mute: []int{3}, // p3 plays a silent Byzantine process
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Byzantine Lattice Agreement over the Figure 1 lattice")
	fmt.Println("processes propose {1}, {2}, {3}; p3 is Byzantine-silent")
	fmt.Println()

	ids := make([]int, 0, len(report.Decisions))
	for id := range report.Decisions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		var elems []string
		for _, it := range report.Decisions[id] {
			elems = append(elems, it.Body)
		}
		sort.Strings(elems)
		fmt.Printf("  p%d decided {%s}\n", id, strings.Join(elems, ","))
	}
	fmt.Println()
	fmt.Printf("decided within %d message delays (bound: 2f+5 = 7)\n", report.MaxDelays)
	fmt.Printf("network cost: %d messages (%d max per process)\n", report.Messages, report.PerProcessMax)
	if len(report.Violations) == 0 {
		fmt.Println("specification holds: decisions form a chain, every proposal is included")
	} else {
		log.Fatalf("violations: %v", report.Violations)
	}
}
