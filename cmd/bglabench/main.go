// Command bglabench prints the paper-reproduction experiment tables
// E1-E13: the Figure 1 chain, the Theorem 1 resilience attack, the
// latency and message-complexity bounds of WTS/GWTS/SbS/GSbS, the RSM
// linearizability workload, the crash-stop baseline comparison, the
// defense ablations and wait-freedom. It exits 1 if
// any table fails. Performance is measured by bench/ (BENCHMARK.json),
// not here.
//
// Usage:
//
//	bglabench [-quick] [-only E4,E8]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bgla/internal/exp"
)

func main() {
	quick := flag.Bool("quick", false, "trimmed parameter sweeps (fast)")
	only := flag.String("only", "", "comma-separated experiment IDs to print (e.g. E2,E8)")
	flag.Parse()

	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if id != "" {
			wanted[id] = true
		}
	}

	failed := 0
	for _, tbl := range exp.All(*quick) {
		if len(wanted) > 0 && !wanted[tbl.ID] {
			continue
		}
		fmt.Println(tbl.Render())
		if !tbl.Pass {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bglabench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
