package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/stream"
)

// patchRig is a merged view over tracked sources — two plain sketches and
// a window's merged view — with a recovered-sketch cache, refreshed by
// Remerge as the engine refreshes its read view.
type patchRig struct {
	t       *testing.T
	rng     *rand.Rand
	win     *Window
	srcs    []*VOS
	dirty   []*Dirty
	view    *VOS
	pending *Dirty
	item    stream.Item
	users   int
}

func newPatchRig(t *testing.T, seed int64, users int) *patchRig {
	cfg := testConfig()
	win, err := NewWindow(cfg, 2, time.Second, time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	r := &patchRig{
		t: t, rng: rand.New(rand.NewSource(seed)), win: win,
		srcs: []*VOS{MustNew(cfg), MustNew(cfg), win.Merged()},
		view: MustNew(cfg), pending: NewDirty(cfg), users: users,
	}
	for _, s := range r.srcs {
		d := NewDirty(cfg)
		s.TrackDirty(d)
		r.dirty = append(r.dirty, d)
	}
	return r
}

func (r *patchRig) edge() stream.Edge {
	r.item++
	return stream.Edge{User: stream.User(r.rng.Intn(r.users)), Item: r.item, Op: stream.Insert}
}

// write lands n fresh edges in one random source, through its batch or
// per-edge path.
func (r *patchRig) write(n int) {
	batch := make([]stream.Edge, n)
	for i := range batch {
		batch[i] = r.edge()
	}
	switch s := r.rng.Intn(len(r.srcs)); {
	case s == 2:
		r.win.ProcessBatch(batch)
	case r.rng.Intn(2) == 0:
		r.srcs[s].ProcessBatch(batch)
	default:
		for _, e := range batch {
			r.srcs[s].Process(e)
		}
	}
}

// refresh brings the view back to the merge of the sources.
func (r *patchRig) refresh() {
	for _, d := range r.dirty {
		r.pending.Absorb(d)
	}
	r.view.Remerge(r.srcs, r.pending, func(u stream.User) int64 {
		c := int64(0)
		for _, s := range r.srcs {
			c += s.Cardinality(u)
		}
		return c
	})
}

// check reads users through the cache and holds every answer to an
// uncached one: each RecoverSketch equals gatherBits word for word,
// popcount included, and each QueryRecovered — against another of users,
// so no other entry is touched — equals QueryPerBit.
func (r *patchRig) check(step string, users []stream.User) {
	r.t.Helper()
	for _, u := range users {
		got := r.view.RecoverSketch(u)
		want := r.view.gatherBits(u)
		if !got.bits.Equal(want) || got.bits.Count() != want.Count() {
			r.t.Fatalf("%s: RecoverSketch(%d) = %d ones, differs from a fresh gather (%d ones)",
				step, u, got.bits.Count(), want.Count())
		}
		w := users[r.rng.Intn(len(users))]
		if got, want := r.view.QueryRecovered(got, w), r.view.QueryPerBit(u, w); got != want {
			r.t.Fatalf("%s: QueryRecovered(%d, %d) = %+v, QueryPerBit %+v", step, u, w, got, want)
		}
	}
}

// someUsers picks a random subset, so entries age unevenly: some are read
// after every refresh, some only after the log has trimmed past them.
func (r *patchRig) someUsers() []stream.User {
	var out []stream.User
	for u := 0; u < r.users; u++ {
		if r.rng.Intn(3) == 0 {
			out = append(out, stream.User(u))
		}
	}
	return out
}

// TestRecoveredPatchModel drives random refreshes of a merged view with a
// warm recovered-sketch cache — small ones the change log covers, ones
// larger than its bound, full recomputes, writes straight to the view
// (Process, Merge, Unmerge, Reset) and window rotations — and after every
// step holds every cached read to an uncached one (patchRig.check). It
// also pins that both paths ran: stale entries were patched, and entries
// the log no longer covers were gathered again.
func TestRecoveredPatchModel(t *testing.T) {
	r := newPatchRig(t, 11, 40)
	other := MustNew(testConfig())
	for i := 0; i < 30; i++ {
		other.Process(r.edge())
	}
	r.refresh()
	r.check("start", r.someUsers())
	for round := 0; round < 300; round++ {
		var step string
		switch op := r.rng.Intn(20); {
		case op < 12:
			step = "small refresh"
			r.write(1 + r.rng.Intn(8))
		case op < 14:
			step = "refresh past the log bound"
			r.write(3 * r.view.changeLimit())
		case op == 14:
			step = "full recompute"
			r.write(1 + r.rng.Intn(8))
			r.pending.MarkAll()
		case op == 15:
			step = "window rotation"
			r.win.Rotate()
			r.pending.MarkAll()
		default:
			// A write straight to the view, which the change log does
			// not record; read once in between, then restore the merge.
			switch op {
			case 16:
				step = "view Process"
				r.view.Process(r.edge())
			case 17:
				step = "view Merge"
				if err := r.view.Merge(other); err != nil {
					t.Fatal(err)
				}
			case 18:
				step = "view Unmerge"
				if err := r.view.Unmerge(other); err != nil {
					t.Fatal(err)
				}
			default:
				step = "view Reset"
				r.view.Reset()
			}
			r.check(fmt.Sprintf("round %d: %s", round, step), r.someUsers())
			r.pending.MarkAll()
		}
		r.refresh()
		r.check(fmt.Sprintf("round %d: after %s", round, step), r.someUsers())
	}
	st, _ := r.view.RecoveredCacheStats()
	if st.Patched == 0 || st.Misses == st.Patched {
		t.Fatalf("cache stats %+v: want both patched and fully gathered entries", st)
	}
}

// TestRecoveredPatchCounts pins when an entry is patched and when it is
// gathered again: a refresh within the log's bound patches every stale
// entry, one past the bound or a full recompute gathers them all, and a
// refresh that trims the log gathers only the entries stamped before what
// it trimmed.
func TestRecoveredPatchCounts(t *testing.T) {
	r := newPatchRig(t, 12, 30)
	users := make([]stream.User, r.users)
	for i := range users {
		users[i] = stream.User(i)
	}
	r.write(20)
	r.refresh()
	r.check("warm", users)
	step := func(name string, prepare func(), read []stream.User, patched, gathered uint64) {
		t.Helper()
		before, _ := r.view.RecoveredCacheStats()
		prepare()
		r.refresh()
		r.check(name, read)
		after, _ := r.view.RecoveredCacheStats()
		p, g := after.Patched-before.Patched, (after.Misses-after.Patched)-(before.Misses-before.Patched)
		if p != patched || g != gathered {
			t.Fatalf("%s: %d patched, %d gathered; want %d, %d", name, p, g, patched, gathered)
		}
	}
	n := uint64(len(users))
	step("small refresh", func() { r.write(5) }, users, n, 0)
	step("refresh past the bound", func() { r.write(3 * r.view.changeLimit()) }, users, 0, n)
	step("full recompute", func() { r.write(1); r.pending.MarkAll() }, users, 0, n)

	// Read only users[0] while refreshes fill the log; the others stay
	// stamped at the full recompute's version.
	stamp := r.view.version
	for r.view.logged+8 <= r.view.changeLimit() {
		step("filling refresh", func() { r.write(8) }, users[:1], 1, 0)
	}
	// A refresh too large for the room left trims the oldest records: the
	// horizon passes the others' stamp, so they are gathered again, while
	// users[0], read at the last refresh, is still patched.
	step("trimming refresh", func() { r.write(r.view.changeLimit() / 2) }, users, 1, n-1)
	if r.view.horizon <= stamp {
		t.Fatalf("horizon %d did not pass the trimmed stamp %d", r.view.horizon, stamp)
	}
}

// TestRecoveredPatchConcurrent runs parallel TopKRecovered workers over
// the same stale entries after each small refresh, as the engine's top-K
// fan-out does under its read lock: under -race this checks that patching
// shares the change bitmap and cached words without a data race, and
// every worker's ranking must equal one computed with QueryPerBit.
func TestRecoveredPatchConcurrent(t *testing.T) {
	r := newPatchRig(t, 13, 60)
	candidates := make([]stream.User, r.users)
	for i := range candidates {
		candidates[i] = stream.User(i)
	}
	r.write(50)
	r.refresh()
	r.view.TopK(0, candidates, len(candidates)) // warm every entry
	for round := 0; round < 20; round++ {
		r.write(1 + r.rng.Intn(8))
		r.refresh()
		probe := stream.User(r.rng.Intn(r.users))
		h := newTopHeap(5)
		for _, w := range candidates {
			if w != probe {
				h.offer(TopKResult{User: w, Estimate: r.view.QueryPerBit(probe, w)})
			}
		}
		want := h.sorted()
		rec := r.view.RecoverSketch(probe)
		var wg sync.WaitGroup
		got := make([][]TopKResult, 4)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = r.view.TopKRecovered(rec, candidates, 5)
			}()
		}
		wg.Wait()
		for g, top := range got {
			if fmt.Sprint(top) != fmt.Sprint(want) {
				t.Fatalf("round %d worker %d: %v, want %v", round, g, top, want)
			}
		}
	}
	if st, _ := r.view.RecoveredCacheStats(); st.Patched == 0 {
		t.Fatalf("no entry was patched: %+v", st)
	}
}
