package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
)

// fakeCluster emulates the replica side of Algorithms 5-7 well enough
// to exercise the pipeline: every submitted command joins one global
// lattice value, every live replica pushes a Decide with the current
// join after each submission, and confirmation requests are echoed.
type fakeCluster struct {
	n, f int
	mute map[ident.ProcessID]bool
	// delay postpones replies, keeping flights genuinely in flight so
	// saturation (and therefore coalescing) is deterministic in tests.
	delay time.Duration
	pipe  *Pipeline

	mu      sync.Mutex
	decided lattice.Set
	sends   int
}

func newFakeCluster(n, f int) *fakeCluster {
	return &fakeCluster{n: n, f: f, mute: map[ident.ProcessID]bool{}, decided: lattice.Empty()}
}

func (c *fakeCluster) reply(d time.Duration, deliver func()) {
	if d == 0 {
		deliver()
		return
	}
	go func() {
		time.Sleep(d)
		deliver()
	}()
}

func (c *fakeCluster) Send(to ident.ProcessID, m msg.Msg) {
	c.mu.Lock()
	c.sends++
	d := c.delay
	if c.mute[to] {
		c.mu.Unlock()
		return
	}
	switch v := m.(type) {
	case msg.NewValue:
		c.decided = c.decided.Union(lattice.Singleton(v.Cmd))
		val := c.decided
		c.mu.Unlock()
		c.reply(d, func() {
			for i := 0; i < c.n; i++ {
				id := ident.ProcessID(i)
				if !c.mute[id] {
					c.pipe.Deliver(id, msg.Decide{Value: val})
				}
			}
		})
	case msg.CnfReq:
		c.mu.Unlock()
		c.reply(d, func() { c.pipe.Deliver(to, msg.CnfRep{Value: v.Value}) })
	default:
		c.mu.Unlock()
	}
}

// silent is a Sender that never responds.
type silent struct{}

func (silent) Send(ident.ProcessID, msg.Msg) {}

func pipeOver(t *testing.T, cluster *fakeCluster, cfg Config) *Pipeline {
	t.Helper()
	cfg.Client = 1000
	cfg.Replicas = ident.Range(cluster.n)
	cfg.F = cluster.f
	p, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	cluster.pipe = p
	t.Cleanup(p.Close)
	return p
}

func item(i int) lattice.Item {
	return lattice.Item{Author: 1000, Body: fmt.Sprintf("cmd-%d", i)}
}

func TestPipelineUpdateThenRead(t *testing.T) {
	cluster := newFakeCluster(4, 1)
	p := pipeOver(t, cluster, Config{})
	ctx := context.Background()
	if err := p.Update(ctx, item(1)); err != nil {
		t.Fatal(err)
	}
	v, err := p.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Contains(item(1)) {
		t.Fatalf("read %v misses the decided command", v)
	}
	st := p.Stats()
	if st.Ops != 2 || st.Updates != 1 || st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPipelineToleratesMuteQuorumMembers(t *testing.T) {
	cluster := newFakeCluster(4, 1)
	cluster.mute[3] = true
	p := pipeOver(t, cluster, Config{SubmitTo: ident.Range(2)})
	if err := p.Update(context.Background(), item(7)); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineCoalescesUnderSaturation(t *testing.T) {
	cluster := newFakeCluster(4, 1)
	cluster.delay = 2 * time.Millisecond
	p := pipeOver(t, cluster, Config{MaxBatch: 16, MaxInFlight: 1})
	var wg sync.WaitGroup
	const ops = 64
	errs := make(chan error, ops)
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- p.Update(context.Background(), item(i))
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Ops != ops {
		t.Fatalf("ops = %d, want %d", st.Ops, ops)
	}
	if st.Flights >= ops {
		t.Fatalf("no coalescing: %d flights for %d ops", st.Flights, ops)
	}
	if st.MaxBatchOps < 2 {
		t.Fatalf("max batch = %d, want >= 2", st.MaxBatchOps)
	}
}

func TestPipelineConcurrentReadsShareNop(t *testing.T) {
	cluster := newFakeCluster(4, 1)
	p := pipeOver(t, cluster, Config{MaxBatch: 32, MaxInFlight: 1})
	if err := p.Update(context.Background(), item(1)); err != nil {
		t.Fatal(err)
	}
	// Delayed replies from here on: the first read's flight stays open
	// while the other readers arrive, forcing them to coalesce.
	cluster.mu.Lock()
	cluster.delay = 2 * time.Millisecond
	cluster.mu.Unlock()
	var wg sync.WaitGroup
	const readers = 16
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Read(context.Background())
			if err == nil && !v.Contains(item(1)) {
				err = errors.New("read misses prior update")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Flights >= readers {
		t.Fatalf("reads did not coalesce: %d flights for %d reads (+1 update)", st.Flights, readers)
	}
}

func TestPipelineTimeout(t *testing.T) {
	p, err := New(Config{
		Client: 1000, Replicas: ident.Range(4), F: 1,
		OpTimeout: 20 * time.Millisecond,
	}, silent{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Update(context.Background(), item(1)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if st := p.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
}

func TestPipelineTimeoutCountsQueueTime(t *testing.T) {
	// OpTimeout runs from enqueue: an op stuck behind a dead flight
	// times out after ~OpTimeout, not after OpTimeout per predecessor.
	p, err := New(Config{
		Client: 1000, Replicas: ident.Range(4), F: 1,
		MaxBatch: 1, MaxInFlight: 1,
		OpTimeout: 50 * time.Millisecond,
	}, silent{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := time.Now()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) { errs <- p.Update(context.Background(), item(i)) }(i)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("queued op waited %v, want ~OpTimeout", waited)
	}
}

func TestPipelineContextCancel(t *testing.T) {
	p, err := New(Config{Client: 1000, Replicas: ident.Range(4), F: 1}, silent{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Update(ctx, item(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestPipelineBackpressureBounds(t *testing.T) {
	// With a silent cluster, 1-deep queue and one flight slot, the
	// fourth concurrent update cannot even enqueue until something
	// drains: its context expires while applying backpressure.
	p, err := New(Config{
		Client: 1000, Replicas: ident.Range(4), F: 1,
		MaxBatch: 1, MaxInFlight: 1, QueueDepth: 1,
		OpTimeout: time.Minute,
	}, silent{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	deadline := 0
	var mu sync.Mutex
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := p.Update(ctx, item(i)); errors.Is(err, context.DeadlineExceeded) {
				mu.Lock()
				deadline++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if deadline == 0 {
		t.Fatal("no caller saw backpressure")
	}
}

func TestPipelineClose(t *testing.T) {
	p, err := New(Config{Client: 1000, Replicas: ident.Range(4), F: 1}, silent{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Update(context.Background(), item(1)) }()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked caller not released by Close")
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	if _, err := New(Config{}, silent{}); err == nil {
		t.Fatal("must reject empty replica set")
	}
	if _, err := New(Config{Replicas: ident.Range(4), MaxBatch: -1}, silent{}); err == nil {
		t.Fatal("must reject negative MaxBatch")
	}
	if _, err := New(Config{Replicas: ident.Range(4)}, nil); err == nil {
		t.Fatal("must reject nil sender")
	}
	if _, err := New(Config{Replicas: ident.Range(4), OpTimeout: -1}, silent{}); err == nil {
		t.Fatal("must reject negative OpTimeout")
	}
}

// outsiders answers every submission with decide notifications from
// processes that are not replicas.
type outsiders struct{ pipe *Pipeline }

func (o *outsiders) Send(_ ident.ProcessID, m msg.Msg) {
	if v, ok := m.(msg.NewValue); ok {
		for _, id := range []ident.ProcessID{900, 901} {
			o.pipe.Deliver(id, msg.Decide{Value: lattice.Singleton(v.Cmd)})
		}
	}
}

func TestPipelineIgnoresNonReplicaReplies(t *testing.T) {
	// Only replicas count toward the f+1 decide quorum (Alg 5 line 4):
	// two notifications from outside Replicas must not complete an update.
	o := &outsiders{}
	p, err := New(Config{
		Client: 1000, Replicas: ident.Range(4), F: 1,
		OpTimeout: 300 * time.Millisecond,
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	o.pipe = p
	defer p.Close()
	if err := p.Update(context.Background(), item(1)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}
