package obs

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNilSafe verifies every Span method is a no-op on nil — the
// property that lets instrumentation sites record unconditionally.
func TestSpanNilSafe(t *testing.T) {
	var sp *Span
	sp.SetString("k", "v")
	sp.SetUint("u", 1)
	sp.SetInt("i", -1)
	sp.SetFloat("f", 1.5)
	sp.SetBool("b", true)
	sp.Stage("s")()
	if sp.Annex() != "" {
		t.Fatal("nil span rendered an annex")
	}
	if sp.SlogAttrs() != nil {
		t.Fatal("nil span rendered slog attrs")
	}
	if got := SpanFrom(context.Background()); got != nil {
		t.Fatal("empty context produced a span")
	}
}

// TestSpanAnnex verifies the annex is valid single-line JSON carrying
// attrs in insertion order, overwrite-on-same-key, stage _ms entries
// and total_ms.
func TestSpanAnnex(t *testing.T) {
	sp := NewSpan()
	sp.SetString("strategy", "ta")
	sp.SetUint("snapshot_version", 7)
	sp.SetBool("early_terminated", false)
	sp.SetUint("snapshot_version", 8) // overwrite, not append
	sp.Stage("discovery")()
	annex := sp.Annex()
	if strings.ContainsAny(annex, "\n\r") {
		t.Fatalf("annex not single-line: %q", annex)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(annex), &m); err != nil {
		t.Fatalf("annex not JSON: %v\n%s", err, annex)
	}
	if m["strategy"] != "ta" || m["snapshot_version"] != float64(8) {
		t.Fatalf("attrs wrong: %v", m)
	}
	if _, ok := m["discovery_ms"]; !ok {
		t.Fatalf("stage latency missing: %v", m)
	}
	if _, ok := m["total_ms"]; !ok {
		t.Fatalf("total missing: %v", m)
	}
	if i := strings.Index(annex, "strategy"); i > strings.Index(annex, "snapshot_version") {
		t.Fatalf("insertion order lost: %s", annex)
	}
}

// TestSpanContext round-trips a span through a context.
func TestSpanContext(t *testing.T) {
	sp := NewSpan()
	ctx := WithSpan(context.Background(), sp)
	if got := SpanFrom(ctx); got != sp {
		t.Fatal("span did not round-trip the context")
	}
}

// TestSpanConcurrent hammers one span from many goroutines (the serve
// handler and engine layers annotate the same span); meaningful under
// -race.
func TestSpanConcurrent(t *testing.T) {
	sp := NewSpan()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp.SetUint("shared", uint64(i))
				sp.SetInt(string(rune('a'+w)), int64(i))
				done := sp.Stage("stage")
				done()
				_ = sp.Annex()
			}
		}(w)
	}
	wg.Wait()
	var m map[string]any
	if err := json.Unmarshal([]byte(sp.Annex()), &m); err != nil {
		t.Fatalf("post-hammer annex not JSON: %v", err)
	}
	annexKeys(t, sp.Annex())
}

// annexKeys walks an annex token by token — json.Unmarshal into a map
// would silently keep the last of two equal keys — and fails on a
// duplicate key. It returns the keys in order.
func annexKeys(t *testing.T, annex string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(annex))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("annex does not open an object: %v %v", tok, err)
	}
	var keys []string
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("annex key: %v", err)
		}
		k := tok.(string)
		if seen[k] {
			t.Fatalf("duplicate key %q in annex %s", k, annex)
		}
		seen[k] = true
		keys = append(keys, k)
		if _, err := dec.Token(); err != nil {
			t.Fatalf("annex value of %q: %v", k, err)
		}
	}
	return keys
}

// TestSpanStageAggregates runs stages repeatedly under one name and checks
// the annex carries each stage once, as the sum of its runs.
func TestSpanStageAggregates(t *testing.T) {
	sp := NewSpan()
	for i := 0; i < 3; i++ {
		sp.Stage("discovery")()
		done := sp.Stage("presentation")
		time.Sleep(time.Millisecond)
		done()
	}
	keys := annexKeys(t, sp.Annex())
	want := []string{"discovery_ms", "presentation_ms", "total_ms"}
	if !slices.Equal(keys, want) {
		t.Fatalf("annex keys %v, want %v", keys, want)
	}
	var m map[string]float64
	if err := json.Unmarshal([]byte(sp.Annex()), &m); err != nil {
		t.Fatal(err)
	}
	if m["presentation_ms"] < 3 {
		t.Fatalf("presentation_ms = %v, want the sum of three ≥1 ms runs", m["presentation_ms"])
	}
	if n := len(sp.SlogAttrs()); n != 3 {
		t.Fatalf("slog attrs: %d, want 3", n)
	}
}
