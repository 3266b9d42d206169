package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/profile"
	"prognosticator/internal/raft"
	"prognosticator/internal/replica"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/wal"
)

const (
	replayMin     = 50 * time.Millisecond // shortest timed loop per replayed entry point
	samplesPerTx  = 64                    // generator inputs per procedure
	replayBatches = 20                    // batches for the lock-table, codec and log replays
)

// replayLayers calls each layer's entry points directly, on one goroutine
// with the cluster stopped, on inputs from the workload's seeded generator,
// and reports time and heap allocations per call. The workload's own
// procedures run against the reference's final state. The other catalog's
// procedures run against a freshly populated store, so that every
// per-procedure metric is reported on every workload.
func replayLayers(rep *report, w workload, seed int64, reg *engine.Registry, ref *reference, workdir string) error {
	if err := replayProcs(rep, w.cat, reg, ref.st, seed); err != nil {
		return err
	}
	other := rubisCatalog()
	if w.cat.name == other.name {
		other = tpccCatalog(10)
	}
	oreg, err := other.registry()
	if err != nil {
		return err
	}
	ost := store.New()
	other.populate(ost)
	if err := replayProcs(rep, other, oreg, ost, seed); err != nil {
		return err
	}

	batches := make([][]engine.Request, replayBatches)
	for i := range batches {
		batches[i] = toEngine(batchAt(w.cat, seed, i, w.batch))
	}
	view := ref.st.ViewAt(ref.st.Epoch())
	keySets := make([][]*profile.KeySet, len(batches))
	for i, b := range batches {
		for _, r := range b {
			ks, err := reg.Profiles[r.TxName].Instantiate(r.Inputs, view)
			if err != nil {
				return err
			}
			keySets[i] = append(keySets[i], ks)
		}
	}
	if err := replayLockTable(rep, reg, batches, keySets); err != nil {
		return err
	}
	if err := replayStore(rep, ref.st, keySets); err != nil {
		return err
	}
	cmds, err := replayCodec(rep, batches)
	if err != nil {
		return err
	}
	if err := replayLogs(rep, cmds, w.batch, workdir); err != nil {
		return err
	}
	return replaySnapshot(rep, ref.st)
}

// measure runs op(0..n-1) in rounds until replayMin has passed and at
// least minOps calls were made, and returns the wall time in nanoseconds
// and the heap allocations per call, and the number of calls.
func measure(n, minOps int, op func(i int) error) (ns, allocs float64, ops int, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for ops < minOps || time.Since(t0) < replayMin {
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				return 0, 0, ops, err
			}
		}
		ops += n
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops), ops, nil
}

// replayProcs times profile instantiation and the interpreter for each
// procedure of a catalog. lang.Run executes through the engine's write
// buffer, as a worker does, so the store is never changed.
func replayProcs(rep *report, cat catalog, reg *engine.Registry, st *store.Store, seed int64) error {
	inputs := map[string][]map[string]value.Value{}
	gen := cat.newGen(seed)
	for missing := len(cat.programs); missing > 0; {
		name, in := gen.Next()
		if len(inputs[name]) < samplesPerTx {
			if inputs[name] = append(inputs[name], in); len(inputs[name]) == samplesPerTx {
				missing--
			}
		}
	}
	view := st.ViewAt(st.Epoch())
	for _, prog := range cat.programs {
		name := prog.Name
		prof, in := reg.Profiles[name], inputs[name]
		perOp, allocs, _, err := measure(len(in), len(in), func(i int) error {
			_, err := prof.Instantiate(in[i], view)
			return err
		})
		if err != nil {
			return err
		}
		rep.set("profile.instantiate_us."+name, perOp/1e3, "us/op")
		rep.set("profile.instantiate_allocs."+name, allocs, "allocs/op")
		perOp, allocs, _, err = measure(len(in), len(in), func(i int) error {
			_, err := lang.Run(prog, in[i], engine.NewOverlay(view))
			return err
		})
		if err != nil {
			return err
		}
		rep.set("lang.run_us."+name, perOp/1e3, "us/op")
		rep.set("lang.run_allocs."+name, allocs, "allocs/op")
	}
	return nil
}

// replayLockTable enqueues each batch's update transactions with their
// real key-sets, releases them in grant order as workers would, and resets
// the table, as the engine does every round. The time is per transaction.
func replayLockTable(rep *report, reg *engine.Registry, batches [][]engine.Request, keySets [][]*profile.KeySet) error {
	entries := make([][]*locktable.Entry, len(batches))
	total := 0
	for i, b := range batches {
		for j, r := range b {
			if reg.Classes[r.TxName] == profile.ClassROT {
				continue
			}
			ks := keySets[i][j]
			entries[i] = append(entries[i], &locktable.Entry{Seq: uint64(j), Keys: locktable.BuildKeys(ks.Reads, ks.Writes)})
		}
		total += len(entries[i])
	}
	lt := locktable.New()
	var ready []*locktable.Entry
	push := func(e *locktable.Entry) { ready = append(ready, e) }
	perBatch, allocs, _, err := measure(len(entries), len(entries), func(i int) error {
		ready = ready[:0]
		for _, e := range entries[i] {
			if lt.Enqueue(e) {
				ready = append(ready, e)
			}
		}
		for k := 0; k < len(ready); k++ {
			lt.Release(ready[k], push)
		}
		lt.Reset()
		if len(ready) != len(entries[i]) {
			return fmt.Errorf("lock table replay: %d of %d entries granted", len(ready), len(entries[i]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	perTx := float64(len(entries)) / float64(total)
	rep.set("locktable.cycle_ns", perBatch*perTx, "ns/tx")
	rep.set("locktable.cycle_allocs", allocs*perTx, "allocs/tx")
	return nil
}

// replayStore reads every key the batches touch from the final state, and
// writes the values found into a scratch store.
func replayStore(rep *report, st *store.Store, keySets [][]*profile.KeySet) error {
	epoch := st.Epoch()
	var keys []value.Key
	var vals []value.Value
	for _, b := range keySets {
		for _, ks := range b {
			for _, k := range append(append([]value.Key{}, ks.Reads...), ks.Writes...) {
				if v, ok := st.Get(epoch, k); ok {
					keys, vals = append(keys, k), append(vals, v)
				}
			}
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("store replay: no key of the replayed batches is present")
	}
	perOp, allocs, _, _ := measure(len(keys), len(keys), func(i int) error {
		st.Get(epoch, keys[i])
		return nil
	})
	rep.set("store.get_ns", perOp, "ns/op")
	rep.set("store.get_allocs", allocs, "allocs/op")
	scratch := store.New()
	perOp, allocs, _, _ = measure(len(keys), len(keys), func(i int) error {
		scratch.Put(1, keys[i], vals[i])
		return nil
	})
	rep.set("store.put_ns", perOp, "ns/op")
	rep.set("store.put_allocs", allocs, "allocs/op")
	return nil
}

// replayCodec encodes and decodes each batch as the submit path and the
// replicas' apply loops do, and returns the encoded commands.
func replayCodec(rep *report, batches [][]engine.Request) ([][]byte, error) {
	cmds := make([][]byte, len(batches))
	ids := make([]string, len(batches))
	for i := range ids {
		ids[i] = fmt.Sprintf("perfbench-%d", i)
	}
	perOp, allocs, _, err := measure(len(batches), len(batches), func(i int) error {
		var err error
		cmds[i], err = sequencer.EncodeBatchID(ids[i], batches[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.set("sequencer.encode_us", perOp/1e3, "us/batch")
	rep.set("sequencer.encode_allocs", allocs, "allocs/batch")
	perOp, allocs, _, err = measure(len(cmds), len(cmds), func(i int) error {
		_, err := sequencer.DecodeBatch(raft.Committed{Index: uint64(i + 1), Cmd: cmds[i]})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.set("sequencer.decode_us", perOp/1e3, "us/batch")
	rep.set("sequencer.decode_allocs", allocs, "allocs/batch")
	bytes, txs := 0, 0
	for i, c := range cmds {
		bytes += len(c)
		txs += len(batches[i])
	}
	rep.set("sequencer.bytes_per_tx", float64(bytes)/float64(txs), "B/tx")
	return cmds, nil
}

// replayLogs appends the encoded batches to a replica WAL at the
// ClusterConfig default SyncOS, and to raft FileStorage at its default
// SyncAlways, and reports the bytes each directory holds per transaction.
func replayLogs(rep *report, cmds [][]byte, batch int, workdir string) error {
	walDir, err := os.MkdirTemp(workdir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	l, err := wal.Open(walDir, wal.Options{Sync: wal.SyncOS})
	if err != nil {
		return err
	}
	// A replica WAL record is the 8-byte raft index followed by the command.
	recs := make([][]byte, len(cmds))
	for i, c := range cmds {
		recs[i] = append(make([]byte, 8, 8+len(c)), c...)
	}
	perOp, allocs, ops, err := measure(len(recs), len(recs), func(i int) error { return l.Append(recs[i]) })
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	size, err := dirSize(walDir)
	if err != nil {
		return err
	}
	rep.set("wal.append_us", perOp/1e3, "us/batch")
	rep.set("wal.append_allocs", allocs, "allocs/batch")
	rep.set("wal.bytes_per_tx", float64(size)/float64(ops*batch), "B/tx")

	raftDir, err := os.MkdirTemp(workdir, "raft-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(raftDir)
	stg, err := raft.OpenFileStorage(raftDir)
	if err != nil {
		return err
	}
	next := uint64(1)
	perOp, allocs, ops, err = measure(len(cmds), len(cmds), func(i int) error {
		next++
		return stg.Append(next-1, []raft.Entry{{Term: 1, Cmd: cmds[i]}})
	})
	if cerr := stg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if size, err = dirSize(raftDir); err != nil {
		return err
	}
	rep.set("raft.storage_append_us", perOp/1e3, "us/batch")
	rep.set("raft.storage_append_allocs", allocs, "allocs/batch")
	rep.set("raft.log_bytes_per_tx", float64(size)/float64(ops*batch), "B/tx")
	return nil
}

// replaySnapshot captures and encodes the final state, as a replica does
// every SnapshotEvery batches.
func replaySnapshot(rep *report, st *store.Store) error {
	perOp, allocs, _, err := measure(1, 1, func(int) error {
		_, err := replica.EncodeSnapshot(&replica.StoreSnapshot{Index: 1, Pairs: replica.CaptureStore(st)})
		return err
	})
	if err != nil {
		return err
	}
	rep.set("replica.snapshot_ms", perOp/1e6, "ms")
	rep.set("replica.snapshot_allocs", allocs, "allocs/op")
	return nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
