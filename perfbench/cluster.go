package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/replica"
	"prognosticator/internal/store"
)

// engineConfig is every replica's and the reference's engine: two workers
// and the default MQ-MF variant with SE preparation.
var engineConfig = engine.Config{Workers: 2}

const (
	// clusterSeed fixes raft timers and backoff jitter. The workload seed
	// drives only the request generator, so the cluster sees nothing of it
	// but the generated requests.
	clusterSeed   = 1
	submitTimeout = 30 * time.Second
	waitTimeout   = 30 * time.Second
)

// bench is one 3-replica cluster serving a workload through one closed-loop
// client.
type bench struct {
	w       workload
	seed    int64
	reg     *engine.Registry
	c       *replica.Cluster
	dataDir string
	batches int     // batches submitted; the reference regenerates them from seed
	tr      *tracer // nil when untraced

	mu  sync.Mutex
	bad map[string]bool // IDs of batches a replica did not fully commit
}

// start builds the registry (SE analysis), the cluster (which populates
// each replica's store) and waits for a leader. Its duration is setup_s.
func start(w workload, seed int64, traced bool, dataRoot string) (*bench, time.Duration, error) {
	t0 := time.Now()
	reg, err := w.cat.registry()
	if err != nil {
		return nil, 0, err
	}
	b := &bench{w: w, seed: seed, reg: reg, bad: map[string]bool{}}
	if traced {
		b.tr = &tracer{}
	}
	cfg := replica.ClusterConfig{
		Replicas:    nReplicas,
		Seed:        clusterSeed,
		NewExecutor: b.newExecutor,
		OnApply:     b.onApply,
	}
	if w.durable {
		if b.dataDir, err = os.MkdirTemp(dataRoot, w.name+"-"); err != nil {
			return nil, 0, err
		}
		cfg.DataDir = b.dataDir
		cfg.SnapshotEvery = w.snapshotEvery
	}
	if b.c, err = replica.NewCluster(cfg); err != nil {
		b.close()
		return nil, 0, err
	}
	if _, err := b.c.WaitLeader(waitTimeout); err != nil {
		b.close()
		return nil, 0, err
	}
	return b, time.Since(t0), nil
}

func (b *bench) newExecutor(id string, st *store.Store) (engine.Executor, error) {
	var r int
	if _, err := fmt.Sscanf(id, "replica-%d", &r); err != nil || r < 0 || r >= nReplicas {
		return nil, fmt.Errorf("unexpected replica id %q", id)
	}
	b.w.cat.populate(st)
	var ex engine.Executor = engine.New(b.reg, st, engineConfig)
	if b.tr != nil {
		ex = &timedExec{Executor: ex, replica: r, tr: b.tr}
	}
	return ex, nil
}

// onApply is the ClusterConfig.OnApply tap: it checks every outcome
// committed on every run, and feeds the tracer's engine counts when on.
func (b *bench) onApply(_ string, _ uint64, batchID string, _ []engine.Request, res *engine.BatchResult) {
	if uncommitted(res) > 0 {
		b.mu.Lock()
		b.bad[batchID] = true
		b.mu.Unlock()
	}
	if b.tr != nil && b.tr.on.Load() {
		b.tr.applied(res)
	}
}

// close stops the cluster and removes its data; it is safe to repeat.
func (b *bench) close() {
	if b.c != nil {
		b.c.Stop()
		b.c = nil
	}
	if b.dataDir != "" {
		_ = os.RemoveAll(b.dataDir)
		b.dataDir = ""
	}
}

// windowStats is one closed-loop measurement window.
type windowStats struct {
	lat   []float64 // SubmitBatch call → return per acknowledged batch, ms
	alloc []float64 // heap bytes allocated since process start, after each batch
	txs   int       // transactions in acknowledged batches
	wall  time.Duration
}

// window runs the closed loop until d has passed and at least minBatches
// were acknowledged: the next batch is submitted only after SubmitBatch
// returned for the previous one. It stops early at the first failed
// submit, since the batch's fate is then unknown.
func (b *bench) window(d time.Duration, minBatches int) (windowStats, error) {
	var ws windowStats
	begin := time.Now()
	for time.Since(begin) < d || len(ws.lat) < minBatches {
		reqs := batchAt(b.w.cat, b.seed, b.batches, b.w.batch)
		b.batches++
		t0 := time.Now()
		err := b.c.SubmitBatch(reqs, submitTimeout)
		t1 := time.Now()
		if err != nil {
			return ws, fmt.Errorf("batch %d: %w", b.batches, err)
		}
		if b.tr != nil && b.tr.on.Load() {
			if err := b.tr.batchDone(t0, t1); err != nil {
				return ws, err
			}
		}
		ws.lat = append(ws.lat, ms(t1.Sub(t0)))
		ws.alloc = append(ws.alloc, readRuntime("/gc/heap/allocs:bytes")[0])
		ws.txs += len(reqs)
	}
	ws.wall = time.Since(begin)
	return ws, nil
}

// check verifies the cluster after the timed windows: every replica has
// the same state, that state equals a reference that applied the same
// batches, and every outcome on every replica committed. It returns the
// reference for the recovery probe and the layer replay.
func (b *bench) check() (*reference, error) {
	if err := b.c.Err(); err != nil {
		return nil, err
	}
	if err := b.c.WaitCaughtUp(waitTimeout); err != nil {
		return nil, err
	}
	ref, err := b.mirror()
	if err != nil {
		return nil, err
	}
	return ref, b.verify(ref)
}

// mirror applies every submitted batch, regenerated from the seed, to a
// fresh reference.
func (b *bench) mirror() (*reference, error) {
	ref := newReference(b.w.cat, b.reg)
	for i := 0; i < b.batches; i++ {
		if err := ref.apply(batchAt(b.w.cat, b.seed, i, b.w.batch)); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// verify compares every replica with ref and reports batches whose
// outcomes a replica did not all commit.
func (b *bench) verify(ref *reference) error {
	if err := checkHashes(b.c.StateHashes(), ref.hash()); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.bad) > 0 {
		ids := make([]string, 0, len(b.bad))
		for id := range b.bad {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return fmt.Errorf("%d batches had uncommitted outcomes: %v", len(ids), ids)
	}
	return nil
}

// recoverProbe crashes one follower, restarts it and waits until it caught
// up, then checks it rebuilt the reference state from its snapshot and WAL.
func (b *bench) recoverProbe(ref *reference) (time.Duration, error) {
	li, err := b.c.WaitLeader(waitTimeout)
	if err != nil {
		return 0, err
	}
	f := (li + 1) % nReplicas
	if err := b.c.Crash(f); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := b.c.Restart(f); err != nil {
		return 0, err
	}
	if err := b.c.WaitCaughtUp(waitTimeout); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if h, want := b.c.ReplicaAt(f).StateHash(), ref.hash(); h != want {
		return d, fmt.Errorf("restarted replica %d state %016x != reference %016x", f, h, want)
	}
	return d, nil
}

// readRuntime samples runtime/metrics values by name.
func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		default:
			panic("runtime/metrics has no " + x.Name)
		}
	}
	return out
}
