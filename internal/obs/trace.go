package obs

import (
	"context"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A Span is one request's trace: an ordered list of key/value
// annotations plus per-stage latencies, recorded as the request
// descends router → serve → facade → top-k/discovery. It is carried on
// the context (WithSpan / SpanFrom) so layers annotate without new
// plumbing; a nil *Span is a valid no-op receiver, so callers record
// unconditionally:
//
//	obs.SpanFrom(ctx).SetUint("postings_scanned", n)
//
// Spans render as a compact single-line JSON annex — the X-SS-Trace
// response header when the client asks for it, and the sampled
// structured slog line.
type Span struct {
	mu     sync.Mutex
	start  time.Time
	attrs  []attr
	stages []stage
}

type attr struct {
	key string
	val any // string, bool, uint64, int64 or float64
}

type stage struct {
	name string
	d    time.Duration // summed over every run of the stage
}

// NewSpan starts a span now.
func NewSpan() *Span { return &Span{start: time.Now()} }

type spanCtxKey struct{}

// WithSpan attaches s to the context.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the span on ctx, or nil — and nil is safe to record
// against.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

func (s *Span) set(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val = val
			return
		}
	}
	s.attrs = append(s.attrs, attr{key, val})
}

// SetString records a string annotation (overwriting a previous value
// under the same key).
func (s *Span) SetString(key, val string) { s.set(key, val) }

// SetUint records an unsigned integer annotation.
func (s *Span) SetUint(key string, val uint64) { s.set(key, val) }

// SetInt records a signed integer annotation.
func (s *Span) SetInt(key string, val int64) { s.set(key, val) }

// SetFloat records a float annotation.
func (s *Span) SetFloat(key string, val float64) { s.set(key, val) }

// SetBool records a boolean annotation.
func (s *Span) SetBool(key string, val bool) { s.set(key, val) }

// Stage starts a named stage timer; the returned func records the
// elapsed time when called (typically deferred):
//
//	defer sp.Stage("discovery")()
//
// Repeated stages of one name add up to one entry, so the annex carries
// each stage once however often it ran.
func (s *Span) Stage(name string) func() {
	if s == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := range s.stages {
			if s.stages[i].name == name {
				s.stages[i].d += d
				return
			}
		}
		s.stages = append(s.stages, stage{name, d})
	}
}

// ms renders a duration as fractional milliseconds, 3 decimals.
func ms(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
}

func appendVal(b *strings.Builder, v any) {
	switch x := v.(type) {
	case string:
		b.WriteString(strconv.Quote(x))
	case bool:
		b.WriteString(strconv.FormatBool(x))
	case uint64:
		b.WriteString(strconv.FormatUint(x, 10))
	case int64:
		b.WriteString(strconv.FormatInt(x, 10))
	case float64:
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	default:
		b.WriteString(strconv.Quote("?"))
	}
}

// Annex renders the span as one compact JSON object in insertion
// order, ending with per-stage latencies and the total elapsed time —
// newline-free, so it is valid as an HTTP header value.
func (s *Span) Annex() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(a.key))
		b.WriteByte(':')
		appendVal(&b, a.val)
	}
	for _, st := range s.stages {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(st.name + "_ms"))
		b.WriteByte(':')
		b.WriteString(ms(st.d))
	}
	if b.Len() > 1 {
		b.WriteByte(',')
	}
	b.WriteString(`"total_ms":`)
	b.WriteString(ms(time.Since(s.start)))
	b.WriteByte('}')
	return b.String()
}

// SlogAttrs renders the span as slog attributes for the sampled
// structured trace line.
func (s *Span) SlogAttrs() []slog.Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]slog.Attr, 0, len(s.attrs)+len(s.stages)+1)
	for _, a := range s.attrs {
		out = append(out, slog.Any(a.key, a.val))
	}
	for _, st := range s.stages {
		out = append(out, slog.Duration(st.name, st.d))
	}
	out = append(out, slog.Duration("total", time.Since(s.start)))
	return out
}
