package main

import "testing"

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {1, 100, 0}} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p*100, v, beyond, c.want, c.wantBeyond)
		}
	}
	// Ties at the percentile are not beyond it.
	if v, beyond := percentile([]float64{1, 2, 2, 2, 2, 2, 2, 2, 2, 3}, 0.9); v != 2 || beyond != 1 {
		t.Errorf("tied p90 = %v with %d beyond, want 2 with 1", v, beyond)
	}
}

// TestCheckRejectsPlantedDivergence runs a small cluster, then checks it
// against the honest reference and against one fed an extra transaction.
func TestCheckRejectsPlantedDivergence(t *testing.T) {
	w := workload{name: "rubis-test", cat: rubisCatalog(), batch: 10}
	b, _, err := start(w, 7, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if _, err := b.window(0, 5); err != nil {
		t.Fatal(err)
	}
	ref, err := b.check()
	if err != nil {
		t.Fatalf("honest reference rejected: %v", err)
	}
	planted, err := b.mirror()
	if err != nil {
		t.Fatal(err)
	}
	extra := batchAt(w.cat, 99, 0, 1)
	if err := planted.apply(extra); err != nil {
		t.Fatal(err)
	}
	if err := b.verify(planted); err == nil {
		t.Fatal("check accepted a reference that applied one extra transaction")
	}
	if err := b.verify(ref); err != nil {
		t.Fatalf("honest reference rejected on re-check: %v", err)
	}
}

// TestTracedSpansCoverEachBatch checks that the four consecutive spans of
// every traced batch add up to its submit→ack latency.
func TestTracedSpansCoverEachBatch(t *testing.T) {
	w := workload{name: "rubis-test", cat: rubisCatalog(), batch: 10}
	b, _, err := start(w, 3, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.tr.on.Store(true)
	ws, err := b.window(0, 10)
	b.tr.on.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	tr := b.tr
	if len(tr.lat) != len(ws.lat) || tr.results != nReplicas*len(ws.lat) {
		t.Fatalf("traced %d batches and %d results for %d submits", len(tr.lat), tr.results, len(ws.lat))
	}
	for i, lat := range tr.lat {
		sum := tr.commit[i] + tr.engFirst[i] + tr.lag[i] + tr.ack[i]
		if d := sum - lat; d > 1e-6 || d < -1e-6 {
			t.Errorf("batch %d: spans sum to %v ms, latency %v ms", i, sum, lat)
		}
		if tr.commit[i] < 0 || tr.engFirst[i] <= 0 || tr.lag[i] < 0 || tr.ack[i] < 0 {
			t.Errorf("batch %d: negative span %v %v %v %v", i, tr.commit[i], tr.engFirst[i], tr.lag[i], tr.ack[i])
		}
	}
}
