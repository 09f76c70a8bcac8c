package bgla

import (
	"context"
	"fmt"
	"sync"

	"bgla/internal/crdt"
	"bgla/internal/lattice"
	"bgla/internal/wal"
)

// Snapshot is a Byzantine-tolerant atomic snapshot object, the
// application that originally motivated lattice agreement (Attiya,
// Herlihy, Rachman — §1/§2 of the paper: implementing a snapshot object
// is equivalent to solving Lattice Agreement). Each component holds the
// latest value written to it; Scan returns a consistent global
// photograph: scans are totally ordered (any two scans are comparable
// component-wise) and every completed Update is visible to later scans.
//
// Internally each Update is a last-writer-wins command on the RSM
// lattice, with a per-component sequence number as the write stamp, and
// Scan is an RSM read folded through the LWW map view.
//
// Memory model: the writer-side state is one global stamp counter
// (stamps are globally monotone per writer, so no per-component state
// is needed), seeded past every recovered put when DataDir is set. The replicated state itself grows with the command
// history; enable ServiceConfig.CheckpointEvery to fold the decided
// prefix into checkpoints and keep the cluster's resident state
// O(window).
type Snapshot struct {
	svc *Service

	mu    sync.Mutex
	stamp uint64
}

// NewSnapshot builds a snapshot object over a fresh replica cluster.
func NewSnapshot(cfg ServiceConfig) (*Snapshot, error) {
	svc, err := NewService(cfg)
	if err != nil {
		return nil, err
	}
	return &Snapshot{svc: svc, stamp: recoveredStamp(svc.st.pers)}, nil
}

// recoveredStamp is the highest put stamp in any recovered replica
// state (0 without a DataDir). A restarted writer must stamp past it:
// the LWW view keeps the highest stamp, so a reused stamp would leave a
// completed write invisible (recoveredSeq is the same rule for client
// sequences).
func recoveredStamp(pers []*wal.Persister) uint64 {
	var max uint64
	for _, p := range pers {
		if rec := p.Recovered(); rec != nil {
			rec.Decided().Each(func(it lattice.Item) bool {
				if _, _, st, ok := crdt.ParsePut(it.Body); ok && st > max {
					max = st
				}
				return true
			})
		}
	}
	return max
}

// Close shuts the underlying cluster down.
func (s *Snapshot) Close() { s.svc.Close() }

// Update writes value into the named component and returns once the
// write is durably decided. Safe for concurrent use: concurrent writers
// ride the Service's batching pipeline, so k concurrent Updates cost
// ~one agreement round, not k.
func (s *Snapshot) Update(component, value string) error {
	return s.UpdateCtx(context.Background(), component, value)
}

// UpdateCtx is Update with caller-controlled cancellation.
func (s *Snapshot) UpdateCtx(ctx context.Context, component, value string) error {
	s.mu.Lock()
	s.stamp++
	st := s.stamp
	s.mu.Unlock()
	return s.svc.UpdateCtx(ctx, PutCmd(component, st, value))
}

// Scan returns a consistent snapshot of all components. Two scans are
// always comparable: one reflects a superset of the writes of the other.
func (s *Snapshot) Scan() (map[string]string, error) {
	return s.ScanCtx(context.Background())
}

// ScanCtx is Scan with caller-controlled cancellation. The confirmed
// value folds straight through the LWW map view: read markers carry no
// put tag, so the view skips them without a stripping pass.
func (s *Snapshot) ScanCtx(ctx context.Context) (map[string]string, error) {
	v, err := s.svc.st.pipes[0].Read(ctx)
	if err != nil {
		return nil, err
	}
	return crdt.MapView(v), nil
}

// ScanComponent reads one component (empty string when unwritten).
func (s *Snapshot) ScanComponent(component string) (string, error) {
	snap, err := s.Scan()
	if err != nil {
		return "", err
	}
	return snap[component], nil
}

// String renders a diagnostic summary: the number of write stamps
// issued.
func (s *Snapshot) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("bgla.Snapshot{%d stamps}", s.stamp)
}
