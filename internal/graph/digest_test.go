package graph_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// The digests below pin the graph's three serialized forms — the JSON
// interchange encoding, the binary checkpoint bodies and the WAL mutation
// payloads — for one fixed seeded corpus. Any change to how attributes
// (or anything else) are held in memory must leave these bytes alone:
// files written by one build are read by the next.
const (
	encodeDigest     = "a841fe439dee63f80c06911bf50f52e36d964c32fbd1d15b9bf850fb43563e03"
	ckptBodyDigest   = "98c7e83a9bf996470fc207e9836f5fad25b580be435fe3f8c9769a15d38a692f"
	checkpointDigest = "cf1d754214e0b642ea31f10b50fe59e57c8abb6bbb25fb10b852fa4761d99a72"
	mutationsDigest  = "529fd66eb60c90177c5b77233fdb044cb3f19dcbbba4f450933cdc2142408924"
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestCorpus is a small travel site plus hand-made elements whose
// attribute values arrive out of key order and with repeats, so the pinned
// bytes cover sorted keys, per-key insertion order and empty attributes.
func digestCorpus(t *testing.T) *graph.Graph {
	t.Helper()
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 40, Destinations: 15, Seed: 5, VisitsPerUser: 6, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.Graph.ShallowClone()
	n := graph.NewNode(g.MaxNodeID()+1, "item", "note")
	n.Attrs.Add("zeta", "z2")
	n.Attrs.Add("alpha", "a9")
	n.Attrs.Add("zeta", "z1")
	n.Attrs.Add("alpha", "a1")
	n.Attrs.Add("alpha", "a9") // repeat: ignored
	n.Attrs.Set("empty")
	if err := g.AddNode(n); err != nil {
		t.Fatal(err)
	}
	bare := graph.NewNode(g.MaxNodeID()+1, "item")
	if err := g.AddNode(bare); err != nil {
		t.Fatal(err)
	}
	l := graph.NewLink(g.MaxLinkID()+1, n.ID, bare.ID, "act", "tag")
	l.Attrs.Add("tags", "zz")
	l.Attrs.Add("tags", "aa")
	l.Attrs.SetFloat("rating", 4.5)
	if err := g.AddLink(l); err != nil {
		t.Fatal(err)
	}
	return g
}

// digestBatch records a fixed mutation batch covering every kind: adds,
// consolidating puts (with Prev), and cascading removals.
func digestBatch(t *testing.T, base *graph.Graph) []graph.Mutation {
	t.Helper()
	g := base.ShallowClone()
	log := graph.RecordInto(g)
	users := g.NodesOfType(graph.TypeUser)
	u, v := users[0].ID, users[1].ID
	n := graph.NewNode(g.MaxNodeID()+1, "destination", "item")
	n.Attrs.Add("name", "Salida")
	n.Attrs.Add("city", "Salida")
	n.Attrs.Add("category", "outdoors")
	n.Attrs.Add("category", "family")
	if err := g.AddNode(n); err != nil {
		t.Fatal(err)
	}
	merge := graph.NewNode(u, graph.TypeUser)
	merge.Attrs.Add("nick", "second")
	merge.Attrs.Add("nick", "first")
	g.PutNode(merge)
	l := graph.NewLink(g.MaxLinkID()+1, u, n.ID, "act", "tag")
	l.Attrs.Add("tags", "river")
	if err := g.AddLink(l); err != nil {
		t.Fatal(err)
	}
	more := graph.NewLink(l.ID, u, n.ID, "act", "tag")
	more.Attrs.Add("tags", "kayak")
	more.Attrs.Add("tags", "river")
	if err := g.PutLink(more); err != nil {
		t.Fatal(err)
	}
	g.RemoveLink(g.Out(v)[0].ID)
	g.RemoveNode(v)
	return log.Drain()
}

func TestEncodingDigests(t *testing.T) {
	g := digestCorpus(t)

	var js bytes.Buffer
	if err := g.Encode(&js); err != nil {
		t.Fatal(err)
	}
	var bodies []byte
	for _, n := range g.Nodes() {
		bodies = graph.AppendNodeBin(bodies, n)
	}
	for _, l := range g.Links() {
		bodies = graph.AppendLinkBin(bodies, l)
	}
	ckpt := graph.NewCkptWriter().AppendCheckpoint(nil, g)
	muts := graph.AppendMutations(nil, digestBatch(t, g))

	for _, c := range []struct {
		name, want string
		b          []byte
	}{
		{"Encode JSON", encodeDigest, js.Bytes()},
		{"node/link bodies", ckptBodyDigest, bodies},
		{"checkpoint", checkpointDigest, ckpt},
		{"AppendMutations", mutationsDigest, muts},
	} {
		if got := digest(c.b); got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, got, c.want)
		}
	}
}
