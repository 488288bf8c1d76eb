package main

import (
	"context"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
)

// sample is one finished (or failed) request of the load generator.
// Times are offsets from the start of its phase.
type sample struct {
	kind opKind
	// dirty marks a read with at least one acknowledged write since the
	// previous read.
	dirty  bool
	traced bool
	ok     bool
	tail   bool // sent in the tail phase
	start  time.Duration
	end    time.Duration
	edges  int // edges a write carried
	// cpu is the process CPU time the request took: the client, the
	// server and every layer below run in this process, and one request
	// is in flight at a time, so it is the request's whole cost,
	// including background work (shard apply, GC) that ran meanwhile.
	cpu time.Duration
}

func (s sample) latency() time.Duration { return s.end - s.start }

// stream is one write stream: an S, S⁻¹ cycle of batches sent in order,
// over and over. sent counts the acknowledged batches.
type stream struct {
	batches [][]vos.Edge
	sent    int
}

func (s *stream) next() []vos.Edge { return s.batches[s.sent%len(s.batches)] }

// residual is what the acknowledged batches left: every whole S, S⁻¹
// cycle cancels, so only the part of the last one counts.
func (s *stream) residual() []vos.Edge {
	var out []vos.Edge
	for _, b := range s.batches[:s.sent%max(1, len(s.batches))] {
		out = append(out, b...)
	}
	return out
}

// driver issues a workload's requests over loopback HTTP with
// client.Client, from one goroutine: a closed loop with one request in
// flight.
type driver struct {
	pr  params
	in  *inputs
	t   *tracer // nil in an untraced run
	cli *client.Client
	// wcli ships the small write batches and bcli the bulk batches: each
	// client's batch size equals its write size, so every Ingest is one
	// synchronous request and nothing is left buffered.
	wcli, bcli     *client.Client
	writes, bulk   stream
	wroteSinceRead bool
	sentEdges      int // edges of every acknowledged write
}

// clientOptions configures a client for the load generator: no linger
// buffer, no retries (a failed request counts as failed), and the run's
// transport.
func clientOptions(t *tracer, batch int) client.Options {
	return client.Options{HTTPClient: httpClient(t), BatchSize: batch, Linger: -1, MaxRetries: -1}
}

func newDriver(pr params, in *inputs, t *tracer, url string) *driver {
	return &driver{
		pr: pr, in: in, t: t,
		cli:    client.New(url, clientOptions(t, pr.writeBatch)),
		wcli:   client.New(url, clientOptions(t, pr.writeBatch)),
		bcli:   client.New(url, clientOptions(t, pr.bulkBatch)),
		writes: stream{batches: in.writes},
		bulk:   stream{batches: in.bulk},
	}
}

func (d *driver) close() {
	// Nothing is buffered: every write is a full batch of its client.
	_ = d.cli.Close()
	_ = d.wcli.Close()
	_ = d.bcli.Close()
}

// write sends the next batch of a write stream.
func (d *driver) write(ctx context.Context, bulk bool) (edges int, err error) {
	w, s := d.wcli, &d.writes
	if bulk {
		w, s = d.bcli, &d.bulk
	}
	b := s.next()
	if err = w.Ingest(ctx, b); err == nil {
		err = w.Flush(ctx)
	}
	if err == nil {
		s.sent++
		d.sentEdges += len(b)
		d.wroteSinceRead = true
	}
	return len(b), err
}

// exec runs one request. A traced request opens the root span of its
// operation; every layer below links its spans to it.
func (d *driver) exec(o op, s *sample) error {
	ctx := context.Background()
	var root *span
	if s.traced {
		ctx, root = d.t.root(ctx, "client."+o.kind.String())
	}
	var err error
	switch o.kind {
	case opWrite:
		s.edges, err = d.write(ctx, o.bulk)
	case opPair:
		s.dirty, d.wroteSinceRead = d.wroteSinceRead, false
		_, err = d.cli.Similarity(ctx, o.u, o.v)
	case opTopK:
		s.dirty, d.wroteSinceRead = d.wroteSinceRead, false
		_, err = d.cli.TopK(ctx, o.u, d.in.candidates, d.pr.topN)
	}
	if s.traced {
		root.Dirty = s.dirty
		d.t.end(root)
	}
	return err
}

// tracedAt reports whether a request sent at offset at falls in a traced
// segment: the measured part of a traced run alternates untraced and
// traced segments, so the tracing overhead is the difference between the
// two halves.
func (d *driver) tracedAt(at time.Duration) bool {
	return d.t != nil && at >= d.pr.warm && ((at-d.pr.warm)/d.pr.segment)%2 == 1
}

// loop sends a phase's plan from start, each request as soon as the
// previous one is answered, starting the plan again when it runs out,
// until the phase's duration has passed. It stops at a failed write: the
// batches after it would no longer form an S, S⁻¹ cycle. Only the main
// phase is ever traced.
func (d *driver) loop(ph phase, start time.Time, tail bool) []sample {
	var out []sample
	for i := 0; ; i++ {
		at := time.Since(start)
		if at >= ph.dur {
			return out
		}
		o := ph.ops[i%len(ph.ops)]
		s := sample{kind: o.kind, tail: tail, start: at, traced: !tail && d.tracedAt(at)}
		c0 := processCPU()
		err := d.exec(o, &s)
		s.cpu = processCPU() - c0
		s.end = time.Since(start)
		s.ok = err == nil
		out = append(out, s)
		if o.kind == opWrite && !s.ok {
			return out
		}
	}
}

// finishCycles sends, unmeasured, the rest of each write stream's current
// S, S⁻¹ cycle, so every run ends in the state it started from and its
// end-of-run gates and jaccard_mae depend on the seed alone.
func (d *driver) finishCycles() error {
	for _, bulk := range []bool{false, true} {
		s := &d.writes
		if bulk {
			s = &d.bulk
		}
		for len(s.batches) > 0 && s.sent%len(s.batches) != 0 {
			if _, err := d.write(context.Background(), bulk); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushingRead is a read that makes every acknowledged write visible:
// the node flushes its engine, the gateway re-gathers every backend.
func (d *driver) flushingRead() error {
	_, err := d.cli.Similarity(context.Background(), d.in.candidates[0], d.in.candidates[1])
	return err
}

// acked returns the edges the run's acknowledged writes left, for the
// oracle: the residual of each write stream.
func (d *driver) acked() []vos.Edge {
	return append(d.bulk.residual(), d.writes.residual()...)
}
