// Command perfbench is the repository's wall-clock benchmark. It runs one
// workload on an in-process 3-replica replica.Cluster driven by a single
// closed-loop client, checks every replica's final state against a
// reference execution, and prints the metrics as one JSON object on the
// last line of standard output.
//
//	perfbench --workload tpcc-10wh --seed 1 --seconds 35 --trace 0
//
// --trace 0 reports the end-to-end metrics with nothing but the outcome
// check attached to the cluster. --trace 1 reports the per-layer metrics:
// spans timed around each layer's public entry points from this package,
// and a single-goroutine replay of each layer on the workload's inputs.
// README.md defines every metric and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

const (
	setupReps = 3 // setup_s is the median of this many cluster set-ups
	// warmupTx transactions precede every window. The warm-up is a fixed
	// amount of work, so the live heap after it does not depend on speed.
	// On rubis-durable it ends 50 batches past a snapshot, well after the
	// raft log compaction the snapshot triggers.
	warmupTx = 2500
	// minLatencySamples keeps at least ten samples beyond lat_p90_ms: the
	// end-to-end window runs past --seconds until this many batches were
	// acknowledged.
	minLatencySamples = 110
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and prints each as it is set.
type report struct {
	result
	prefix string
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%s %-36s %14.4f %s\n", r.prefix, name, v, unit)
}

func main() {
	workloadName := flag.String("workload", "", "workload name (tpcc-10wh, rubis-durable)")
	seed := flag.Int64("seed", 1, "request generator seed")
	seconds := flag.Int("seconds", 35, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/perfbench", "scratch directory for data directories")
	flag.Parse()

	w, err := findWorkload(*workloadName)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds < 1) {
		err = errors.New("--trace must be 0 or 1 and --seconds at least 1")
	}
	if err == nil {
		err = os.MkdirAll(*workdir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d batch=%d flush=%q nproc=%d GOMAXPROCS=%d go=%s\n",
		w.name, *seed, *seconds, *trace, w.batch, w.flushPolicy(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	rep := &report{result: result{Metrics: map[string]metric{}}, prefix: w.name}
	window := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		err = runEndToEnd(rep, w, *seed, window, *workdir)
	} else {
		err = runTraced(rep, w, *seed, window, *workdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
	if rep.Attempted > 0 {
		fmt.Printf("%s %-36s %14.4f ratio\n", rep.prefix, "failed_frac", float64(rep.Failed)/float64(rep.Attempted))
	}
	rep.Correct = err == nil
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: metric %s is %v\n", name, m.Value)
		}
	}
	if !rep.Correct {
		os.Exit(1)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// fail marks every attempted batch failed: once the final state disagrees
// with the reference, no acknowledged batch can be trusted.
func (r *report) fail(b *bench, err error) error {
	r.Attempted = b.batches
	r.Failed = b.batches
	return err
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(rep *report, w workload, seed int64, window time.Duration, workdir string) error {
	var setups []float64
	var b *bench
	for i := 0; i < setupReps; i++ {
		nb, d, err := start(w, seed, false, workdir)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			nb.close()
		} else {
			b = nb
		}
	}
	defer b.close()
	if _, err := b.window(0, warmupTx/w.batch); err != nil {
		return rep.fail(b, err)
	}
	// The second GC empties the sync.Pool victim caches the first one
	// keeps, such as encoding/json buffers as large as a snapshot.
	runtime.GC()
	runtime.GC()
	live := readRuntime("/gc/heap/live:bytes")[0]
	alloc0 := readRuntime("/gc/heap/allocs:bytes")[0]
	ws, err := b.window(window, minLatencySamples)
	rep.Attempted = b.batches
	if err != nil {
		return rep.fail(b, err)
	}
	ref, err := b.check()
	if err != nil {
		return rep.fail(b, err)
	}
	if w.durable {
		if _, err := b.recoverProbe(ref); err != nil {
			return rep.fail(b, err)
		}
	}

	// Allocation is counted over whole snapshot periods: the warm-up ends
	// mid-period, so each period holds exactly one snapshot, whatever the
	// speed. A window shorter than one period is counted whole.
	allocBatches := len(ws.lat)
	if p := int(w.snapshotEvery); p > 0 && allocBatches >= p {
		allocBatches -= allocBatches % p
	}
	allocKiB := (ws.alloc[allocBatches-1] - alloc0) / 1024
	p50, _ := percentile(ws.lat, 0.5)
	p90, beyond := percentile(ws.lat, 0.9)
	fmt.Printf("%s window: %d batches, %d tx, %.3f s; %d samples beyond p90; setups %v s\n",
		w.name, len(ws.lat), ws.txs, ws.wall.Seconds(), beyond, setups)
	rep.set("tx_per_s", float64(ws.txs)/ws.wall.Seconds(), "tx/s")
	rep.set("lat_p50_ms", p50, "ms")
	rep.set("lat_p90_ms", p90, "ms")
	rep.set("alloc_kb_per_tx", allocKiB/float64(allocBatches*w.batch), "KiB/tx")
	rep.set("live_heap_mb", live/(1<<20), "MiB")
	rep.set("setup_s", median(setups), "s")
	return nil
}

// runTraced measures the per-layer metrics. Untraced and traced chunks
// alternate U T T U on one cluster, so drift over the run cancels out of
// trace.overhead_frac; every span and engine count comes from the T
// chunks.
func runTraced(rep *report, w workload, seed int64, window time.Duration, workdir string) error {
	b, _, err := start(w, seed, true, workdir)
	if err != nil {
		return err
	}
	defer b.close()
	if _, err := b.window(0, warmupTx/w.batch); err != nil {
		return rep.fail(b, err)
	}
	chunk := window / 4
	var untracedTx, tracedTx int
	var untracedWall, tracedWall time.Duration
	var gcCPU, totalCPU, msgs float64
	for _, traced := range []bool{false, true, true, false} {
		if !traced {
			ws, err := b.window(chunk, 0)
			if err != nil {
				return rep.fail(b, err)
			}
			untracedTx += ws.txs
			untracedWall += ws.wall
			continue
		}
		cpu0 := readRuntime("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
		net0 := sentMessages(b)
		b.tr.on.Store(true)
		ws, err := b.window(chunk, 0)
		b.tr.on.Store(false)
		if err != nil {
			return rep.fail(b, err)
		}
		cpu1 := readRuntime("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
		msgs += float64(sentMessages(b) - net0)
		gcCPU += cpu1[0] - cpu0[0]
		totalCPU += cpu1[1] - cpu0[1]
		tracedTx += ws.txs
		tracedWall += ws.wall
	}
	rep.Attempted = b.batches
	snapshots := 0
	for i := 0; i < nReplicas; i++ {
		snapshots += b.c.ReplicaAt(i).Snapshots()
	}
	ref, err := b.check()
	if err != nil {
		return rep.fail(b, err)
	}
	var recoverMs float64 // no DataDir: a replica cannot crash and recover
	if w.durable {
		d, err := b.recoverProbe(ref)
		if err != nil {
			return rep.fail(b, err)
		}
		recoverMs = ms(d)
	}
	b.close()

	t := b.tr
	batches := float64(len(t.lat))
	fmt.Printf("%s traced: %d batches; mean latency %.4f ms = commit %.4f + engine %.4f + follower lag %.4f + ack wait %.4f\n",
		w.name, len(t.lat), mean(t.lat), mean(t.commit), mean(t.engFirst), mean(t.lag), mean(t.ack))
	untraced := float64(untracedTx) / untracedWall.Seconds()
	traced := float64(tracedTx) / tracedWall.Seconds()
	rep.set("trace.overhead_frac", (untraced-traced)/untraced, "ratio")
	rep.set("raft.commit_ms", mean(t.commit), "ms")
	rep.set("engine.batch_ms", mean(t.engMedian), "ms")
	rep.set("replica.follower_lag_ms", mean(t.lag), "ms")
	rep.set("replica.ack_wait_ms", mean(t.ack), "ms")
	rep.set("engine.busy_frac", t.busy.Seconds()/(nReplicas*tracedWall.Seconds()), "ratio")
	txs := float64(t.txs)
	rep.set("engine.aborts_per_tx", float64(t.aborts)/txs, "aborts/tx")
	rep.set("engine.rounds_per_batch", float64(t.rounds)/float64(t.results), "rounds/batch")
	rep.set("engine.commit_ratio", txs/(txs+float64(t.aborts)), "ratio")
	rep.set("engine.prepare_us_per_tx", us(t.prepare)/txs, "us/tx")
	rep.set("engine.exec_us_per_tx", us(t.exec)/txs, "us/tx")
	rep.set("runtime.gc_cpu_frac", gcCPU/totalCPU, "ratio")
	rep.set("memnet.msgs_per_batch", msgs/batches, "msgs/batch")
	rep.set("replica.snapshots", float64(snapshots)/nReplicas, "count")
	rep.set("replica.recover_ms", recoverMs, "ms")
	return replayLayers(rep, w, seed, b.reg, ref, workdir)
}

// sentMessages is the number of Send calls the in-process network has seen:
// every send is delivered or counted under exactly one drop cause.
func sentMessages(b *bench) int64 {
	s := b.c.Net.Stats()
	return s.Delivered + s.DroppedLoss + s.DroppedOverflow + s.DroppedPartition +
		s.DroppedDown + s.DroppedClosed + s.DroppedCanceled
}
