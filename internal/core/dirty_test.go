package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/stream"
)

// TestRemergeMatchesMerge keeps a view equal to the merge of tracked
// sources through random batches, single edges, a source written through
// a Window, a batch that overflows the user log, and an untracked
// whole-array change marked with MarkAll:
// after every Remerge the view must serialize byte-identically to a fresh
// merge of the sources.
func TestRemergeMatchesMerge(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(9))
	win, err := NewWindow(cfg, 2, time.Second, time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	srcs := []*VOS{MustNew(cfg), MustNew(cfg), win.Merged()}
	dirty := make([]*Dirty, len(srcs))
	for i, s := range srcs {
		dirty[i] = NewDirty(cfg)
		s.TrackDirty(dirty[i])
	}
	view, pending := MustNew(cfg), NewDirty(cfg)
	item := stream.Item(0)
	edge := func() stream.Edge {
		item++
		return stream.Edge{User: stream.User(rng.Intn(30)), Item: item, Op: stream.Insert}
	}
	for round := 0; round < 40; round++ {
		for i := rng.Intn(4); i >= 0; i-- {
			size := 1 + rng.Intn(50)
			if round == 20 {
				size = maxLogged + 1 // overflows the user log
			}
			batch := make([]stream.Edge, size)
			for j := range batch {
				batch[j] = edge()
			}
			switch s := rng.Intn(len(srcs)); {
			case s == 2:
				win.ProcessBatch(batch)
			case rng.Intn(2) == 0:
				srcs[s].ProcessBatch(batch)
			default:
				for _, e := range batch {
					srcs[s].Process(e)
				}
			}
		}
		if round%10 == 9 {
			// A rotation retires half the window's edges and is not
			// recorded per word: the owner marks everything.
			win.Rotate()
			pending.MarkAll()
		}
		for _, d := range dirty {
			pending.Absorb(d)
		}
		view.Remerge(srcs, pending, func(u stream.User) int64 {
			c := int64(0)
			for _, s := range srcs {
				c += s.Cardinality(u)
			}
			return c
		})

		want := MustNew(cfg)
		for _, s := range srcs {
			if err := want.Merge(s); err != nil {
				t.Fatal(err)
			}
		}
		got, _ := view.MarshalBinary()
		exp, _ := want.MarshalBinary()
		if !bytes.Equal(got, exp) {
			t.Fatalf("round %d: remerged view diverges from a fresh merge", round)
		}
		for i, d := range append(dirty, pending) {
			if len(d.logged) != 0 || len(d.users) != 0 || d.allUsers {
				t.Fatalf("round %d: Dirty %d not emptied: %d logged, %d users, all=%v",
					round, i, len(d.logged), len(d.users), d.allUsers)
			}
		}
	}
}

// TestTrackingLeavesStateAlone: attaching a Dirty changes what a sketch
// records, never what it computes, and a detached Dirty records nothing.
func TestTrackingLeavesStateAlone(t *testing.T) {
	cfg := testConfig()
	d := NewDirty(cfg)
	tracked, plain := MustNew(cfg), MustNew(cfg)
	tracked.TrackDirty(d)
	batch := []stream.Edge{{User: 1, Item: 1, Op: stream.Insert}, {User: 2, Item: 2, Op: stream.Insert}}
	tracked.ProcessBatch(batch)
	tracked.Process(stream.Edge{User: 3, Item: 3, Op: stream.Insert})
	plain.ProcessBatch(batch)
	plain.Process(stream.Edge{User: 3, Item: 3, Op: stream.Insert})
	if len(d.logged) != 3 {
		t.Fatalf("Dirty logged %d users, want 3", len(d.logged))
	}
	a, _ := tracked.MarshalBinary()
	b, _ := plain.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("tracking changed the sketch state")
	}
	tracked.TrackDirty(nil)
	tracked.Process(stream.Edge{User: 4, Item: 4, Op: stream.Insert})
	if len(d.logged) != 3 {
		t.Fatalf("detached Dirty logged a write: %d users", len(d.logged))
	}
}
