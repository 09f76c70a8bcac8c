// Command bglasim runs a single simulated execution of one of the
// paper's protocols and prints the outcome: decisions, latency in
// message delays, message counts and any specification violations.
//
// Usage:
//
//	bglasim -algo wts -n 7 -f 2 -mute 2 -seed 3
//	bglasim -algo gwts -n 4 -f 1 -rounds 3
//	bglasim -algo sbs -n 16 -f 1
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"bgla"
)

func main() {
	algoName := flag.String("algo", "wts", "protocol: wts | sbs | gwts | gsbs")
	n := flag.Int("n", 4, "number of processes")
	f := flag.Int("f", 1, "tolerated Byzantine bound (n >= 3f+1)")
	mute := flag.Int("mute", 0, "run this many processes as silent Byzantine")
	seed := flag.Int64("seed", 1, "scheduler seed")
	rounds := flag.Int("rounds", 1, "minimum rounds (generalized algorithms)")
	delayLo := flag.Uint64("delay-lo", 0, "delay lower bound (both bounds 0 = unit delays)")
	delayHi := flag.Uint64("delay-hi", 0, "delay upper bound (equal bounds = constant delay)")
	flag.Parse()

	algos := map[string]bgla.Algorithm{
		"wts": bgla.WTS, "sbs": bgla.SbS, "gwts": bgla.GWTS, "gsbs": bgla.GSbS,
	}
	algo, ok := algos[strings.ToLower(*algoName)]
	if !ok {
		fmt.Fprintf(os.Stderr, "bglasim: unknown algorithm %q\n", *algoName)
		os.Exit(2)
	}

	switch algo {
	case bgla.WTS, bgla.SbS:
		proposals := map[int][]string{}
		for i := 0; i < *n-*mute; i++ {
			proposals[i] = []string{fmt.Sprintf("v%d", i)}
		}
		var muted []int
		for i := *n - *mute; i < *n; i++ {
			muted = append(muted, i)
		}
		rep, err := bgla.Solve(bgla.Config{
			N: *n, F: *f, Algorithm: algo, Proposals: proposals,
			Mute: muted, Seed: *seed, DelayLo: *delayLo, DelayHi: *delayHi,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bglasim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s  n=%d f=%d mute=%d seed=%d\n", algo, *n, *f, *mute, *seed)
		fmt.Printf("latency: %d message delays\n", rep.MaxDelays)
		fmt.Printf("messages: %d total, %d max per process\n", rep.Messages, rep.PerProcessMax)
		printDecisions(rep.Decisions)
		printViolations(rep.Violations)
	case bgla.GWTS, bgla.GSbS:
		values := map[int][]string{}
		for i := 0; i < *n; i++ {
			values[i] = []string{fmt.Sprintf("v%d", i)}
		}
		rep, err := bgla.SolveGeneralized(bgla.GenConfig{
			N: *n, F: *f, Algorithm: algo, Values: values,
			MinRounds: *rounds, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bglasim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s  n=%d f=%d rounds>=%d seed=%d\n", algo, *n, *f, *rounds, *seed)
		fmt.Printf("messages: %d total; decision rounds: %d\n", rep.Messages, rep.Rounds)
		printDecisions(rep.Final)
		printViolations(rep.Violations)
	}
}

func printDecisions(decisions map[int][]bgla.Item) {
	ids := make([]int, 0, len(decisions))
	for id := range decisions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		var bodies []string
		for _, it := range decisions[id] {
			bodies = append(bodies, it.Body)
		}
		fmt.Printf("p%d decided {%s}\n", id, strings.Join(bodies, ", "))
	}
}

func printViolations(v []string) {
	if len(v) == 0 {
		fmt.Println("specification: OK (liveness, stability, comparability, inclusivity, non-triviality)")
		return
	}
	for _, s := range v {
		fmt.Println("VIOLATION:", s)
	}
	os.Exit(1)
}
