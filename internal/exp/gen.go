package exp

import (
	"bgla/internal/check"
	"bgla/internal/core"
	"bgla/internal/core/gwts"
	"bgla/internal/core/sbs"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

// genRun executes a generalized cluster (GWTS or GSbS) with one seed
// value per process and MinRounds rounds, returning per-proposer
// message cost and the decision count.
type genRun struct {
	perProcMsgs int
	totalMsgs   int
	rounds      int
	violations  []string
	quiesced    bool
}

func runGeneralized(algo string, n, f, minRounds int, seed int64) genRun {
	var machines []proto.Machine
	seqOf := map[ident.ProcessID]func() []lattice.Set{}
	inOf := map[ident.ProcessID]func() lattice.Set{}
	var kc sig.Keychain
	if algo == "gsbs" {
		kc = sig.NewSim(n, seed+1)
	}
	var ids []ident.ProcessID
	for i := 0; i < n; i++ {
		id := ident.ProcessID(i)
		ids = append(ids, id)
		seedVals := []lattice.Item{{Author: id, Body: "v"}}
		switch algo {
		case "gwts":
			m, err := gwts.New(gwts.Config{Self: id, N: n, F: f, InitialValues: seedVals, MinRounds: minRounds})
			if err != nil {
				panic(err)
			}
			machines = append(machines, m)
			seqOf[id] = m.Decisions
			inOf[id] = m.Inputs
		case "gsbs":
			m, err := sbs.NewG(sbs.GConfig{Self: id, N: n, F: f, Keychain: kc, InitialValues: seedVals, MinRounds: minRounds})
			if err != nil {
				panic(err)
			}
			machines = append(machines, m)
			seqOf[id] = m.Decisions
			inOf[id] = m.Inputs
		default:
			panic("unknown algo " + algo)
		}
	}
	res := faultnet.New(machines, faultnet.Options{Seed: seed}).Run(faultnet.Limits{MaxTime: 5_000_000})
	out := genRun{
		perProcMsgs: res.Metrics.MaxSentByProc(ids),
		totalMsgs:   res.Metrics.SentTotal(),
		quiesced:    res.Undelivered == 0,
	}
	run := &check.GLARun{
		DecisionSeqs: map[ident.ProcessID][]lattice.Set{},
		Inputs:       map[ident.ProcessID]lattice.Set{},
	}
	for _, id := range ids {
		seq := seqOf[id]()
		run.DecisionSeqs[id] = seq
		run.Inputs[id] = inOf[id]()
		if len(seq) > out.rounds {
			out.rounds = len(seq)
		}
	}
	min := 1
	if minRounds > min {
		min = minRounds
	}
	out.violations = run.All(min)
	return out
}

// GWTSMessages reproduces §6.4: GWTS needs O(f·n²) messages per
// proposer per decision (acceptor acks are reliably broadcast).
func GWTSMessages(quick bool) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "§6.4 — GWTS messages per proposer per decision = O(f·n²)",
		Columns: []string{"n", "f", "rounds", "per-proc msgs", "per-proc/decision", "per-dec/(f+1)n²"},
		Pass:    true,
	}
	ns := []int{4, 7, 10, 13}
	if quick {
		ns = []int{4, 7}
	}
	minRounds := 3
	var ratios []float64
	for _, n := range ns {
		f := core.MaxFaulty(n)
		run := runGeneralized("gwts", n, f, minRounds, 1)
		if len(run.violations) > 0 || run.rounds == 0 {
			t.Pass = false
			t.Note("E6 n=%d violations: %v", n, run.violations)
			continue
		}
		perDec := float64(run.perProcMsgs) / float64(run.rounds)
		ratio := perDec / (float64(f+1) * float64(n*n))
		ratios = append(ratios, ratio)
		t.AddRow(n, f, run.rounds, run.perProcMsgs, perDec, ratio)
	}
	if len(ratios) >= 2 && ratios[len(ratios)-1] > 3*ratios[0]+1 {
		t.Pass = false
		t.Note("normalized ratio grew: not O(f·n²)")
	}
	t.Note("per-decision cost normalized by (f+1)·n² stays bounded: the RBC'd acks dominate")
	return t
}

// GSbSVsGWTSMessages reproduces §8.2: replacing the ack reliable
// broadcast with signed point-to-point acks and decided certificates
// drops the per-decision cost from O(f·n²) to O(f·n).
func GSbSVsGWTSMessages(quick bool) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "§8.2 — per-proposer messages per decision: GWTS O(f·n²) vs GSbS O(f·n) at f=1",
		Columns: []string{"n", "GWTS per-dec", "GSbS per-dec", "GWTS/GSbS", "GSbS/n"},
		Pass:    true,
	}
	ns := []int{4, 8, 16, 24}
	if quick {
		ns = []int{4, 8}
	}
	var firstRatio, lastRatio float64
	for i, n := range ns {
		g := runGeneralized("gwts", n, 1, 2, 1)
		s := runGeneralized("gsbs", n, 1, 2, 1)
		if len(g.violations) > 0 || len(s.violations) > 0 || g.rounds == 0 || s.rounds == 0 {
			t.Pass = false
			t.Note("E9 n=%d violations gwts=%v gsbs=%v", n, g.violations, s.violations)
			continue
		}
		gd := float64(g.perProcMsgs) / float64(g.rounds)
		sd := float64(s.perProcMsgs) / float64(s.rounds)
		ratio := gd / sd
		if i == 0 {
			firstRatio = ratio
		}
		lastRatio = ratio
		t.AddRow(n, gd, sd, ratio, sd/float64(n))
	}
	if lastRatio <= firstRatio {
		t.Pass = false
		t.Note("GWTS/GSbS advantage did not grow with n")
	}
	return t
}
