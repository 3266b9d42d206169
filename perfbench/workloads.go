package main

import (
	"fmt"

	"prognosticator/internal/engine"
	"prognosticator/internal/lang"
	"prognosticator/internal/replica"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
	"prognosticator/internal/workload/rubis"
	"prognosticator/internal/workload/tpcc"
)

// generator draws the next transaction of a workload's mix.
type generator interface {
	Next() (string, map[string]value.Value)
}

// catalog is one transaction mix: its schema, the procedures in the mix,
// how to load the initial state, and a seeded request generator.
type catalog struct {
	name     string
	schema   *lang.Schema
	programs []*lang.Program
	populate func(*store.Store)
	newGen   func(seed int64) generator
}

func (c catalog) registry() (*engine.Registry, error) {
	return engine.NewRegistry(c.schema, c.programs...)
}

func tpccCatalog(warehouses int) catalog {
	cfg := tpcc.DefaultConfig(warehouses)
	return catalog{
		name:     "tpcc",
		schema:   tpcc.Schema(),
		programs: tpcc.Programs(cfg),
		populate: func(st *store.Store) { tpcc.Populate(st, cfg) },
		newGen:   func(seed int64) generator { return tpcc.NewGenerator(cfg, seed) },
	}
}

// rubisCatalog registers the RUBiS-C update mix only: the read-only views
// are never generated, so analysing them would only inflate setup_s.
func rubisCatalog() catalog {
	cfg := rubis.Config{Users: 1000, Items: 1000}
	return catalog{
		name:     "rubis",
		schema:   rubis.Schema(),
		programs: rubis.UpdatePrograms(cfg),
		populate: func(st *store.Store) { rubis.Populate(st, cfg) },
		newGen:   func(seed int64) generator { return rubis.NewGenerator(cfg, seed) },
	}
}

// workload is one benchmark traffic mix on a 3-replica cluster.
type workload struct {
	name  string
	cat   catalog
	batch int // transactions per SubmitBatch
	// durable sets a DataDir: raft FileStorage at SyncAlways, replica WAL
	// at the ClusterConfig default SyncOS, and snapshots every
	// snapshotEvery applied batches.
	durable       bool
	snapshotEvery uint64
}

// flushPolicy describes where acknowledged batches live, for the run header.
func (w workload) flushPolicy() string {
	if !w.durable {
		return "memory only (no DataDir)"
	}
	return fmt.Sprintf("raft FileStorage SyncAlways, replica WAL SyncOS, snapshot every %d batches", w.snapshotEvery)
}

// workloads are the benchmark's traffic mixes; the names are the ledger's
// keys and must not change. The rationale for each is in README.md.
var workloads = []workload{
	{name: "tpcc-10wh", cat: tpccCatalog(10), batch: 100},
	{name: "rubis-durable", cat: rubisCatalog(), batch: 10, durable: true, snapshotEvery: 200},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// batchAt returns the i-th batch of n requests of a run seeded with seed.
// Each batch draws from a generator of its own, so a run samples many of
// the generator's per-instance choices (TPC-C fixes its NURand constants,
// and with them the hot items and customers, per generator) instead of
// one: runs with different seeds then see statistically the same workload.
func batchAt(cat catalog, seed int64, i, n int) []replica.Request {
	g := cat.newGen(seed*1_000_003 + int64(i))
	reqs := make([]replica.Request, n)
	for j := range reqs {
		reqs[j].TxName, reqs[j].Inputs = g.Next()
	}
	return reqs
}
