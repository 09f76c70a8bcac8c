package exp

import (
	"fmt"

	"bgla/internal/byz"
	"bgla/internal/check"
	"bgla/internal/core/gwts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/proto"
	"bgla/internal/rsm"
)

// RSMWorkload (E10) drives the §7 replicated state machine with
// concurrent clients under several fault mixes and checks the full
// read/update specification (Theorem 6) on the resulting history.
func RSMWorkload(quick bool) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "§7 / Theorem 6 — RSM linearizability & wait-freedom under faults",
		Columns: []string{"n", "f", "faults", "clients", "ops done", "ops expected", "violations", "avg op delays"},
		Pass:    true,
	}
	type wl struct {
		n, f    int
		faults  string
		clients int
	}
	workloads := []wl{
		{4, 1, "none", 2},
		{4, 1, "mute replica", 2},
		{4, 1, "junk replica", 2},
		{7, 2, "2 mute replicas", 3},
	}
	if quick {
		workloads = workloads[:2]
	}
	for _, w := range workloads {
		opsPerClient := 4
		var byzM []proto.Machine
		switch w.faults {
		case "mute replica":
			byzM = []proto.Machine{&byz.Mute{Self: ident.ProcessID(w.n - 1)}}
		case "junk replica":
			byzM = []proto.Machine{&byz.JunkFlooder{Self: ident.ProcessID(w.n - 1)}}
		case "2 mute replicas":
			byzM = []proto.Machine{
				&byz.Mute{Self: ident.ProcessID(w.n - 1)},
				&byz.Mute{Self: ident.ProcessID(w.n - 2)},
			}
		}
		byzIDs := ident.NewSet()
		for _, b := range byzM {
			byzIDs.Add(b.ID())
		}
		var machines []proto.Machine
		var replicas []*gwts.Machine
		var clientIDs []ident.ProcessID
		for c := 0; c < w.clients; c++ {
			clientIDs = append(clientIDs, ident.ProcessID(100+c))
		}
		for i := 0; i < w.n; i++ {
			id := ident.ProcessID(i)
			if byzIDs.Has(id) {
				continue
			}
			r, err := rsm.NewReplica(rsm.ReplicaConfig{Self: id, N: w.n, F: w.f, Clients: clientIDs})
			if err != nil {
				panic(err)
			}
			replicas = append(replicas, r)
			machines = append(machines, r)
		}
		machines = append(machines, byzM...)
		var clients []*rsm.Client
		for c := 0; c < w.clients; c++ {
			var ops []rsm.Op
			for k := 0; k < opsPerClient; k++ {
				if k%2 == 0 {
					ops = append(ops, rsm.Op{Kind: rsm.OpUpdate, Body: fmt.Sprintf("c%d-add-%d", c, k)})
				} else {
					ops = append(ops, rsm.Op{Kind: rsm.OpRead})
				}
			}
			cl := rsm.NewClient(rsm.ClientConfig{
				Self: clientIDs[c], N: w.n, F: w.f,
				Replicas: ident.Range(w.n), Ops: ops,
			})
			clients = append(clients, cl)
			machines = append(machines, cl)
		}
		res := faultnet.New(machines, faultnet.Options{
			Seed:  5,
			Delay: faultnet.Uniform{Lo: 1, Hi: 3},
		}).Run(faultnet.Limits{MaxTime: 5_000_000, MaxDeliveries: 5_000_000})

		// Build the history.
		h := &check.RSMHistory{}
		type open struct {
			start uint64
			kind  string
			cmd   lattice.Item
		}
		opens := map[string]open{}
		var totalLatency uint64
		done := 0
		for _, te := range res.Timeline {
			switch e := te.Event.(type) {
			case proto.ClientStartEvent:
				opens[e.OpID] = open{start: te.Time, kind: e.Kind, cmd: e.Cmd}
			case proto.ClientDoneEvent:
				o := opens[e.OpID]
				h.Ops = append(h.Ops, check.OpRecord{
					ID: e.OpID, Kind: o.kind, Cmd: o.cmd,
					Start: o.start, End: te.Time, Value: e.Value,
				})
				totalLatency += te.Time - o.start
				done++
			}
		}
		for _, r := range replicas {
			h.DecidedByCorrect = append(h.DecidedByCorrect, r.Decisions()...)
		}
		expected := w.clients * opsPerClient
		viol := h.All(expected)
		if len(viol) > 0 {
			t.Pass = false
			t.Note("E10 %s: %v", w.faults, viol)
		}
		avg := 0.0
		if done > 0 {
			avg = float64(totalLatency) / float64(done)
		}
		t.AddRow(w.n, w.f, w.faults, w.clients, done, expected, len(viol), avg)
	}
	t.Note("history checked for read validity/consistency/monotonicity and update stability/visibility")
	return t
}
