package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vossketch/vos"
)

// Tracing: spans are recorded only from this package, around the calls
// into each layer's public surface — the load generator's client call,
// the http.Handler of each server, the vos.SimilarityService handed to
// server.New, and direct Engine.Flush/ShardStats calls. Nothing inside
// the program changes. An operation's spans share its Op id; each span
// names its parent, and the trace context crosses HTTP hops in two
// request headers that the tracing transport sets and the handler
// wrapper reads.

// span is one timed call. Start and End are nanoseconds since the
// tracer's epoch.
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Dirty marks a read with at least one acknowledged write since the
	// previous read (set on the load generator's root span).
	Dirty bool `json:"dirty,omitempty"`
	// Status and Bytes are the response status and body size of a
	// handler span.
	Status int   `json:"status,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanRef is the trace context carried in a context.Context.
type spanRef struct{ op, id uint64 }

type spanKey struct{}

func refFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// start opens a child span of the context's span. It returns ok=false,
// and records nothing, when the context carries no trace: untraced
// operations pass straight through every wrapper.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *span, bool) {
	parent, ok := refFrom(ctx)
	if t == nil || !ok {
		return ctx, nil, false
	}
	s := &span{Op: parent.op, ID: t.ids.Add(1), Parent: parent.id, Name: name, Start: t.now()}
	return context.WithValue(ctx, spanKey{}, spanRef{parent.op, s.ID}), s, true
}

// root opens the span of a new operation.
func (t *tracer) root(ctx context.Context, name string) (context.Context, *span) {
	id := t.ids.Add(1)
	s := &span{Op: id, ID: id, Name: name, Start: t.now()}
	return context.WithValue(ctx, spanKey{}, spanRef{id, id}), s
}

func (t *tracer) end(s *span) {
	s.End = t.now()
	t.add(*s)
}

// write stores the spans as JSON lines after a header line.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Trace headers carry the trace context across an HTTP hop.
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
)

// transport injects the context's trace into outgoing requests.
type transport struct{ base http.RoundTripper }

func (t transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := refFrom(r.Context()); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrOp, strconv.FormatUint(ref.op, 10))
		r.Header.Set(hdrParent, strconv.FormatUint(ref.id, 10))
	}
	return t.base.RoundTrip(r)
}

// tracedHandler wraps a server's http.Handler: one span per traced
// request, named prefix + the route, with status and response size.
func (t *tracer) handler(prefix string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err1 := strconv.ParseUint(r.Header.Get(hdrOp), 10, 64)
		parent, err2 := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := &span{Op: op, ID: t.ids.Add(1), Parent: parent, Name: prefix + r.URL.Path, Start: t.now()}
		rec := &recorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{op, s.ID})))
		s.Status, s.Bytes = rec.status, rec.bytes
		t.end(s)
	})
}

type recorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// exporter is the service surface a traced server needs beyond
// vos.SimilarityService: /v1/cluster/sketch probes for it.
type exporter interface {
	vos.SimilarityService
	vos.StateExporter
}

// tracedService wraps the service handed to server.New. On an engine
// node (eng != nil) a traced read first calls Engine.Flush and
// Engine.ShardStats directly, so the flush and the snapshot-plus-query
// that follows are separate spans, and a read whose applied-edge count
// moved since the previous read is marked as one that rebuilds the
// snapshot. The inner service's own flush then finds nothing to do.
type tracedService struct {
	inner exporter
	t     *tracer
	name  string
	eng   *vos.Engine

	mu          sync.Mutex
	lastApplied uint64
	rebuilds    int
	reads       int
	backlogMax  uint64
}

// timed runs f in a child span of ctx's span, or directly when ctx
// carries no trace.
func (s *tracedService) timed(ctx context.Context, name string, f func(context.Context)) {
	ctx, sp, ok := s.t.start(ctx, s.name+"."+name)
	f(ctx)
	if ok {
		s.t.end(sp)
	}
}

// applied is the engine's applied-edge count, from Engine.ShardStats.
func (s *tracedService) applied() uint64 {
	var n uint64
	for _, st := range s.eng.ShardStats() {
		n += st.Processed
	}
	return n
}

// settle makes the engine's current applied count the baseline, so the
// first traced read after the preload is not counted as a rebuild.
func (s *tracedService) settle() {
	n := s.applied()
	s.mu.Lock()
	s.lastApplied = n
	s.mu.Unlock()
}

// prepareRead flushes and samples the engine before a traced read,
// reporting whether the read will rebuild the merged snapshot.
func (s *tracedService) prepareRead(ctx context.Context) bool {
	if _, traced := refFrom(ctx); !traced || s.eng == nil {
		return false
	}
	s.timed(ctx, "flush", func(context.Context) { s.eng.Flush() })
	var n uint64
	s.timed(ctx, "shardstats", func(context.Context) { n = s.applied() })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	dirty := n != s.lastApplied
	if dirty {
		s.rebuilds++
		s.lastApplied = n
	}
	return dirty
}

func (s *tracedService) Ingest(ctx context.Context, edges []vos.Edge) (err error) {
	s.timed(ctx, "ingest", func(ctx context.Context) { err = s.inner.Ingest(ctx, edges) })
	if _, traced := refFrom(ctx); traced && s.eng != nil {
		s.timed(ctx, "shardstats", func(context.Context) {
			var backlog uint64
			for _, st := range s.eng.ShardStats() {
				backlog = max(backlog, st.Backlog())
			}
			s.mu.Lock()
			s.backlogMax = max(s.backlogMax, backlog)
			s.mu.Unlock()
		})
	}
	return err
}

func (s *tracedService) Similarity(ctx context.Context, u, v vos.User) (est vos.Estimate, err error) {
	name := "similarity"
	if s.prepareRead(ctx) {
		name = "similarity_dirty"
	}
	s.timed(ctx, name, func(ctx context.Context) { est, err = s.inner.Similarity(ctx, u, v) })
	return est, err
}

func (s *tracedService) TopK(ctx context.Context, u vos.User, candidates []vos.User, n int) (top []vos.TopKResult, err error) {
	name := "topk"
	if s.prepareRead(ctx) {
		name = "topk_dirty"
	}
	s.timed(ctx, name, func(ctx context.Context) { top, err = s.inner.TopK(ctx, u, candidates, n) })
	return top, err
}

// TopKPartial keeps the gateway's degraded-read path: server.New serves
// top-K through it when the service has one.
func (s *tracedService) TopKPartial(ctx context.Context, u vos.User, candidates []vos.User, n int) (top []vos.TopKResult, complete bool, err error) {
	pt, ok := s.inner.(vos.PartialTopK)
	if !ok {
		top, err = s.TopK(ctx, u, candidates, n)
		return top, true, err
	}
	s.timed(ctx, "topk", func(ctx context.Context) { top, complete, err = pt.TopKPartial(ctx, u, candidates, n) })
	return top, complete, err
}

func (s *tracedService) Cardinality(ctx context.Context, u vos.User) (int64, error) {
	return s.inner.Cardinality(ctx, u)
}

func (s *tracedService) Stats(ctx context.Context) (vos.Stats, error) { return s.inner.Stats(ctx) }

func (s *tracedService) ExportSketch(ctx context.Context) (data []byte, err error) {
	s.timed(ctx, "export", func(ctx context.Context) { data, err = s.inner.ExportSketch(ctx) })
	return data, err
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach int64
	reach = s.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return s.End - s.Start - covered
}

// spanIndex groups the spans of a run for the per-layer metrics.
type spanIndex struct {
	byID     map[uint64]span
	children map[uint64][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byID: make(map[uint64]span, len(spans)), children: make(map[uint64][]span)}
	for _, s := range spans {
		ix.byID[s.ID] = s
		if s.Parent != 0 && s.Parent != s.ID {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// root returns the operation's root span.
func (ix *spanIndex) root(s span) (span, error) {
	r, ok := ix.byID[s.Op]
	if !ok {
		return span{}, fmt.Errorf("span %d (%s) has no root %d", s.ID, s.Name, s.Op)
	}
	return r, nil
}
