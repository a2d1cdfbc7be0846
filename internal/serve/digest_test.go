package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"socialscope"
	"socialscope/internal/workload"
)

// searchDigest pins the /search bodies of a fixed seeded travel site for
// a fixed set of (user, category) reads: results, explanation summaries,
// grouping and related entities, byte for byte. Optimizations of the
// answer path must leave it unchanged.
const searchDigest = "deb87681581d0cde4e16dc50a51dfd70ada867f4a3a5d03302d89493722321f1"

func TestSearchBodyDigest(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 150, Destinations: 50, Seed: 7, VisitsPerUser: 8, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{
		ItemType: "destination", TopK: socialscope.TopKTA, ClusterStrategy: "peruser",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	defer srv.Close()
	h := srv.Handler()
	var all bytes.Buffer
	results := 0
	for i, u := range corpus.Users[:40] {
		for _, q := range workload.Categories[i%3 : i%3+3] {
			v := url.Values{"user": {strconv.FormatInt(int64(u), 10)}, "q": {q}, "nocache": {"1"}}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/search?"+v.Encode(), nil))
			if rec.Code != 200 {
				t.Fatalf("search user %d %q: status %d: %s", u, q, rec.Code, rec.Body)
			}
			results += bytes.Count(rec.Body.Bytes(), []byte(`"explanation":`))
			all.Write(rec.Body.Bytes())
		}
	}
	if results < 100 {
		t.Fatalf("only %d explained results: the digest would pin too little", results)
	}
	sum := sha256.Sum256(all.Bytes())
	if got := hex.EncodeToString(sum[:]); got != searchDigest {
		t.Fatalf("/search body digest = %s, want %s (%d results)", got, searchDigest, results)
	}
}
