package main

import (
	"fmt"
	"math/rand"
	"sync"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// churnBatch is the mutation count of one /apply: the server's default
// immediate-flush threshold (graph.BulkApplyThreshold), so write latency
// measures the apply path rather than the coalescer's flush ticker.
const churnBatch = graph.BulkApplyThreshold

// churnWindow is how many acknowledged taggings stay live. Once warm-up
// has filled it, every batch adds churnBatch/2 fresh taggings and retracts
// the churnBatch/2 oldest, so the link count stays level and late
// requests cost what early ones did.
const churnWindow = 512

// churn generates the write side of a workload: batches of tagging
// additions and retractions. It records what the server acknowledged, so
// the durability check knows which taggings must survive a restart and
// which must not. Safe for concurrent use.
//
// The ledger stays the size of the window however many batches a run
// sends: every tagging the churn added has an ID above the corpus's
// highest, so one that is neither live nor unsure must be an
// acknowledged retraction.
type churn struct {
	mu      sync.Mutex
	rng     *rand.Rand
	users   []graph.NodeID
	items   []graph.NodeID
	base    graph.LinkID  // the corpus's highest link ID
	nextID  graph.LinkID  // the last ID handed out
	filled  bool          // the window reached churnWindow once
	window  []*graph.Link // acknowledged live taggings, oldest first
	live    map[graph.LinkID]*graph.Link
	unsure  map[graph.LinkID]bool // taggings of failed batches
	version uint64                // highest acknowledged engine version
}

func newChurn(c *workload.TravelCorpus, seed int64) *churn {
	return &churn{
		rng:    rand.New(rand.NewSource(seed)),
		users:  c.Users,
		items:  c.Destinations,
		base:   c.Graph.MaxLinkID(),
		nextID: c.Graph.MaxLinkID(),
		live:   make(map[graph.LinkID]*graph.Link),
		unsure: make(map[graph.LinkID]bool),
	}
}

// warm reports whether the window is full, after which every batch is
// half additions and half retractions.
func (c *churn) warm() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.filled
}

// next returns the next batch. Retractions are taken from the window at
// once, so concurrent batches never retract the same tagging, and only
// acknowledged taggings are retracted.
func (c *churn) next() []graph.Mutation {
	c.mu.Lock()
	defer c.mu.Unlock()
	adds := churnBatch
	if c.filled {
		adds = churnBatch / 2
	}
	muts := make([]graph.Mutation, 0, churnBatch)
	for i := 0; i < adds; i++ {
		c.nextID++
		l := graph.NewLink(c.nextID, c.users[c.rng.Intn(len(c.users))],
			c.items[c.rng.Intn(len(c.items))], graph.TypeAct, graph.SubtypeTag)
		l.Attrs.Add("tags", workload.Categories[c.rng.Intn(len(workload.Categories))])
		muts = append(muts, graph.Mutation{Kind: graph.MutAddLink, Link: l})
	}
	for len(muts) < churnBatch {
		l := c.window[0]
		c.window = c.window[1:]
		muts = append(muts, graph.Mutation{Kind: graph.MutRemoveLink, Link: l})
	}
	return muts
}

// ack records that the server applied the batch at the given version.
func (c *churn) ack(muts []graph.Mutation, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range muts {
		switch m.Kind {
		case graph.MutAddLink:
			c.window = append(c.window, m.Link)
			c.live[m.Link.ID] = m.Link
		case graph.MutRemoveLink:
			delete(c.live, m.Link.ID)
		}
	}
	if len(c.window) >= churnWindow {
		c.filled = true
	}
	c.version = max(c.version, version)
}

// fail records a batch whose outcome is unknown: its taggings leave the
// durability check, since either outcome is then legal.
func (c *churn) fail(muts []graph.Mutation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range muts {
		delete(c.live, m.Link.ID)
		c.unsure[m.Link.ID] = true
	}
}

// verify checks a recovered graph against what was acknowledged: every
// live tagging present, every retracted one absent.
func (c *churn) verify(g *graph.Graph, version uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != c.version {
		return fmt.Errorf("recovered version %d, last acknowledged %d", version, c.version)
	}
	for id := c.base + 1; id <= c.nextID; id++ {
		switch {
		case c.unsure[id]:
		case c.live[id] != nil:
			if !g.HasLink(id) {
				return fmt.Errorf("acknowledged tagging %d lost in recovery", id)
			}
		case g.HasLink(id):
			return fmt.Errorf("acknowledged retraction of tagging %d undone in recovery", id)
		}
	}
	return nil
}
