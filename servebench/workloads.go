package main

import (
	"fmt"
	"math/rand"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// streamLen is the length of a workload's generated op stream; streams
// wrap around. It is larger than any run issues to explore_cold, so
// that workload never repeats a request because the stream wrapped.
const streamLen = 1 << 15

// hotPairs is the hot set of hot_routed: 64 (user, category) pairs, far
// below the 4,096-entry default cache, so every read after warm-up hits.
const hotPairs = 64

// churnPairs is the read set of ingest_churn. Its reads mostly miss,
// since every flush orphans their cache entries, so their cost is the
// engine's for the pairs drawn: over 64 pairs that cost varied by ±20%
// from one seed's draw to the next, over 256 by ±6%. 256 pairs still
// fit the cache.
const churnPairs = 256

// workloadDef is one traffic mix. Rates are fixed: an open-loop phase
// at 30–50% of the closed-loop capacity measured on a 2-core box.
type workloadDef struct {
	name string
	// scale sizes the travel corpus: 300·scale users, 100·scale
	// destinations.
	scale int
	// routed puts a route.Router in front of the server.
	routed bool
	// warmCache sends every distinct read of the stream during warm-up,
	// so the whole hot set is cached before measuring.
	warmCache bool
	// rate is the open-loop phase's fixed rate in ops/s.
	rate float64
	// ops generates the op stream for a corpus and seed.
	ops func(c *workload.TravelCorpus, seed int64) ([]op, error)
}

// op is one request of a workload's stream.
type op struct {
	write bool
	user  graph.NodeID
	q     string
}

var workloads = []*workloadDef{
	// Uncached /search at scale 4: every request pays top-k, discovery,
	// presentation and the engine.
	{
		name:  "explore_cold",
		scale: 4,
		rate:  42,
		ops:   categoricalReads,
	},
	// Cache hits through the router: the engine does nothing, so an
	// engine-side change must not move it.
	{
		name:      "hot_routed",
		scale:     1,
		routed:    true,
		warmCache: true,
		rate:      2500,
		ops:       hotReads,
	},
	// Durable writes beside reads: the graph, index, WAL and checkpoint
	// layers do their work here. 150/s leaves the write connection idle
	// enough that a slow stretch of the host's disk does not grow its
	// queue without bound, as it did at 240 writes/s.
	{
		name:  "ingest_churn",
		scale: 1,
		rate:  150,
		ops:   churnOps,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// corpus generates the workload's travel site; the same seed gives the
// same graph.
func (w *workloadDef) corpus(seed int64) (*workload.TravelCorpus, error) {
	return workload.Travel(workload.TravelConfig{
		Users: 300 * w.scale, Destinations: 100 * w.scale, Seed: seed,
		VisitsPerUser: 8, TagFraction: 0.8,
	})
}

// categoricalReads draws Table 1's categorical queries, the class the
// top-k index answers, each for a user drawn uniformly.
func categoricalReads(c *workload.TravelCorpus, seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, streamLen)
	for len(ops) < streamLen {
		log, err := workload.QueryLog(4*streamLen, workload.PaperMixture(), rng.Int63())
		if err != nil {
			return nil, err
		}
		for _, lq := range log {
			if lq.Class == workload.Categorical && len(ops) < streamLen {
				ops = append(ops, op{user: c.Users[rng.Intn(len(c.Users))], q: lq.Text})
			}
		}
	}
	return ops, nil
}

// hotSet draws n (user, category) pairs.
func hotSet(c *workload.TravelCorpus, rng *rand.Rand, n int) []op {
	hot := make([]op, n)
	for i := range hot {
		hot[i] = op{
			user: c.Users[rng.Intn(len(c.Users))],
			q:    workload.Categories[rng.Intn(len(workload.Categories))],
		}
	}
	return hot
}

func hotReads(c *workload.TravelCorpus, seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	hot := hotSet(c, rng, hotPairs)
	ops := make([]op, streamLen)
	for i := range ops {
		ops[i] = hot[rng.Intn(len(hot))]
	}
	return ops, nil
}

// churnOps interleaves reads of the churn pairs with writes: in every
// block of five ops one, at a seeded position, is a read, so reads are
// exactly 20%.
func churnOps(c *workload.TravelCorpus, seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	hot := hotSet(c, rng, churnPairs)
	ops := make([]op, streamLen)
	const block = 5
	for b := 0; b < streamLen; b += block {
		readAt := b + rng.Intn(block)
		for i := b; i < b+block && i < streamLen; i++ {
			if i == readAt {
				ops[i] = hot[rng.Intn(len(hot))]
			} else {
				ops[i] = op{write: true}
			}
		}
	}
	return ops, nil
}
