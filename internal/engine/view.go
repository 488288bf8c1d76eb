package engine

import (
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

// The merged read view.
//
// Queries answer from one long-lived sketch, e.view, kept equal to the
// merge of the recovery bases and every shard: view = base ⊕ winBase ⊕
// shard₀ ⊕ … ⊕ shardₙ₋₁ word for word, with each user's counter the sum
// of theirs. A write does not rebuild it. Each shard's sketch records into
// its own core.Dirty the array words it flips and the users it writes,
// inside the worker's skMu critical section that applies the batch, and
// the next read refreshes the view from those records alone
// (core.VOS.Remerge): the cost of a read after a write follows the write's
// size, not the sketch's, and does not grow with the shard count. The
// view's recovered-sketch cache survives the refresh: Remerge logs the
// array words it changed, and a cached sketch is patched on its next read
// by re-reading only its slots in those words.
//
// A refresh runs under viewMu.Lock, and only when some shard has applied
// edges since the last one (or a full recompute is pending). It takes
// winMu.RLock in window mode, then every shard's skMu.Lock in index order
// — Lock, because it empties the shards' dirty records, which the workers
// write — so the view it publishes is a consistent cut: every shard at
// once, on one side of any rotation, each shard exactly at its processed
// count. Readers hold viewMu.RLock for their whole read, so every answer
// describes one such cut. A written user's counter is read from its
// owning shard and the recovery bases only, so neither part of a refresh
// costs more with more shards beyond one pass over each shard's
// dirty-word bits.
//
// Whole-sketch changes are not recorded per word: engine start, a window
// rotation and an ImportSketch set viewFull, and the next refresh marks
// every word and user dirty, so the same Remerge loop recomputes the view
// in full and every cached recovered sketch is gathered again. The users a refresh takes are forwarded to the ANN index's
// pending set, which is how index maintenance learns about writes.
//
// Lock order: viewMu, then winMu, then shards' skMu in index order, then
// the ANN index's mutex.

// invalidateView makes the next read recompute the whole view. Callers
// changing shard or base state outside the recorded per-edge path call it
// before releasing the lock that guards the change (winMu for a rotation,
// viewMu for an import), so no refresh can run between the change and
// the mark.
func (e *Engine) invalidateView() { e.viewFull.Store(true) }

// applied sums the shards' processed counts.
func (e *Engine) applied() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.processed.Load()
	}
	return n
}

// readView returns the merged view covering every edge applied before the
// call, refreshing it first if needed, with viewMu read-locked: callers
// must call e.viewMu.RUnlock when done reading.
func (e *Engine) readView() *core.VOS {
	e.maybeAdvance()
	e.viewMu.RLock()
	if e.viewFull.Load() || e.applied() != e.viewApplied {
		e.viewMu.RUnlock()
		e.refresh()
		e.viewMu.RLock()
	}
	return e.view
}

// refresh brings the view up to date with the shards (see the top of this
// file).
func (e *Engine) refresh() {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	if e.cfg.Window != nil {
		e.winMu.RLock()
		defer e.winMu.RUnlock()
	}
	for _, s := range e.shards {
		s.skMu.Lock()
		defer s.skMu.Unlock()
	}
	full := e.viewFull.Swap(false)
	applied := e.applied()
	if !full && applied == e.viewApplied {
		return // a concurrent reader's refresh already covered this cut
	}
	srcs := make([]*core.VOS, 0, len(e.shards)+2)
	if base := e.base.Load(); base != nil {
		srcs = append(srcs, base)
	}
	if e.winBase != nil {
		srcs = append(srcs, e.winBase.Merged())
	}
	for _, s := range e.shards {
		e.pending.Absorb(s.dirty)
		srcs = append(srcs, s.sk)
	}
	if full {
		e.pending.MarkAll()
		e.viewStats.fulls++
	}
	if a := e.ann; a != nil {
		e.pending.ResolveUsers(append(srcs, e.view)...)
		a.mu.Lock()
		e.pending.ForEachUser(func(u stream.User) { a.dirty[u] = struct{}{} })
		a.mu.Unlock()
	}
	e.viewStats.words += uint64(e.view.Remerge(srcs, e.pending, e.cardinalityLocked))
	e.viewStats.refreshes++
	e.viewApplied = applied
}

// viewStats counts refresh work, for tests that pin its cost: refreshes
// run, full recomputes among them, and array words recomputed in total.
// Written under viewMu.Lock; read under viewMu.RLock.
type viewStats struct {
	refreshes, fulls, words uint64
}
