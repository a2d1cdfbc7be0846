package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/obs"
	"socialscope/internal/serve"
)

// gateSamples is how many distinct reads the correctness gate checks.
const gateSamples = 24

// sampleReads draws up to n distinct reads of the stream, seeded.
func sampleReads(ops []op, n int, seed int64) []op {
	var reads []op
	seen := make(map[op]bool)
	for _, o := range ops {
		if !o.write && !seen[o] {
			seen[o] = true
			reads = append(reads, o)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	return reads[:min(n, len(reads))]
}

// checkAnswers is the correctness gate, run once no write is in flight.
// Each sampled read is sent twice with the cache on: the second answer
// must come from the cache, and it must be byte-identical to a nocache=1
// answer at the same version and equal that of an engine answering with
// exhaustive top-k over the same graph — the ranking early termination
// must not change. It returns the reads checked and one message per
// wrong answer.
func (s *system) checkAnswers(seed int64) (int, []string, error) {
	oracle, err := socialscope.New(s.eng.Graph(), socialscope.Config{
		ItemType: "destination", TopK: socialscope.TopKExhaustive, ClusterStrategy: "peruser",
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		return 0, nil, err
	}
	var wrong []string
	sample := sampleReads(s.ops, gateSamples, seed)
	for _, o := range sample {
		// The first GET stores the answer if it was not cached yet.
		if _, _, err := s.get(o, false); err != nil {
			return 0, nil, err
		}
		cached, h1, err := s.get(o, false)
		if err != nil {
			return 0, nil, err
		}
		bypass, h2, err := s.get(o, true)
		if err != nil {
			return 0, nil, err
		}
		v1, v2 := h1.Get(serve.HeaderVersion), h2.Get(serve.HeaderVersion)
		switch {
		case h1.Get(serve.HeaderCache) != string(serve.OutcomeHit):
			wrong = append(wrong, fmt.Sprintf("user %d %q: repeated GET answered with cache outcome %q, not from the cache",
				o.user, o.q, h1.Get(serve.HeaderCache)))
			continue
		case v1 != v2:
			wrong = append(wrong, fmt.Sprintf("user %d %q: cached answer at version %s, uncached at %s", o.user, o.q, v1, v2))
			continue
		case !bytes.Equal(cached, bypass):
			wrong = append(wrong, fmt.Sprintf("user %d %q: cached and uncached bodies differ:\n  %s\n  %s", o.user, o.q, cached, bypass))
			continue
		}
		want, err := oracleAnswer(oracle, o)
		if err != nil {
			return 0, nil, err
		}
		var got serve.SearchResponse
		if err := json.Unmarshal(cached, &got); err != nil {
			return 0, nil, fmt.Errorf("user %d %q: %w", o.user, o.q, err)
		}
		got.Version, got.Stats = 0, nil
		if gotJSON, err := json.Marshal(got); err != nil {
			return 0, nil, err
		} else if !bytes.Equal(gotJSON, want) {
			wrong = append(wrong, fmt.Sprintf("user %d %q: answer differs from exhaustive top-k:\n  %s\n  %s", o.user, o.q, gotJSON, want))
		}
	}
	return len(sample), wrong, nil
}

// oracleAnswer renders the exhaustive engine's answer as the server would,
// without the version and work report, which legitimately differ.
func oracleAnswer(oracle *socialscope.Engine, o op) ([]byte, error) {
	q, err := discovery.ParseQuery(o.q)
	if err != nil {
		return nil, err
	}
	resp, err := oracle.QueryCtx(context.Background(), o.user, q)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.SearchResponseFromEngine(oracle, 0, q, resp, nil))
}
