package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

// snapshot returns the refreshed merged view, for tests that read it on a
// quiescent engine (nothing writes while they use the result).
func (e *Engine) snapshot() *core.VOS {
	view := e.readView()
	e.viewMu.RUnlock()
	return view
}

// assertSameBytes fails unless the engine serializes byte-identically to
// the oracle sketch.
func assertSameBytes(t *testing.T, e *Engine, oracle *core.VOS, step int) {
	t.Helper()
	got, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("step %d: engine bytes diverge from the oracle (stats %+v vs %+v)", step, e.Stats(), oracle.Stats())
	}
}

// modelRead runs one flushed read of a random kind against the engine and
// the oracle and fails unless they agree.
func modelRead(t *testing.T, rng *rand.Rand, e *Engine, oracle *core.VOS, users, step int) {
	t.Helper()
	e.Flush()
	u, v := stream.User(rng.Intn(users)), stream.User(rng.Intn(users))
	switch rng.Intn(3) {
	case 0:
		if got, want := e.Query(u, v), oracle.Query(u, v); got != want {
			t.Fatalf("step %d: Query(%d,%d) = %+v, oracle %+v", step, u, v, got, want)
		}
	case 1:
		cands := make([]stream.User, 20)
		for i := range cands {
			cands[i] = stream.User(rng.Intn(users))
		}
		got, want := e.TopK(u, cands, 5), oracle.TopK(u, cands, 5)
		if len(got) != len(want) {
			t.Fatalf("step %d: TopK returned %d results, oracle %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: TopK rank %d = %+v, oracle %+v", step, i, got[i], want[i])
			}
		}
	default:
		st := e.Stats()
		st.WindowSeconds, st.WindowBuckets = 0, 0
		if ost := oracle.Stats(); ost.OnesCount != st.OnesCount || ost.Users != st.Users {
			t.Fatalf("step %d: Stats = %+v, oracle %+v", step, st, ost)
		}
	}
	assertSameBytes(t, e, oracle, step)
}

// TestViewModel drives a durable engine through random interleavings of
// batched writes, flushed reads, imports, checkpoints and close/reopen
// cycles. After every read the engine must serialize byte-identically to
// one core.VOS fed the same edges and imports: the incrementally
// refreshed view may never drift from the merge it stands for.
func TestViewModel(t *testing.T) {
	cfg := testConfig()
	const users = 60
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dcfg := durableConfig(t.TempDir(), 1+rng.Intn(3))
			e := MustOpen(dcfg)
			defer func() { e.Close() }()
			oracle := core.MustNew(cfg)
			edges := feasibleStream(4000, users, 0.3, seed)
			next, importItem := 0, stream.Item(1<<40)
			for step := 0; next < len(edges); step++ {
				switch op := rng.Intn(12); {
				case op < 6:
					end := min(next+1+rng.Intn(64), len(edges))
					if err := e.ProcessBatch(edges[next:end]); err != nil {
						t.Fatal(err)
					}
					oracle.ProcessBatch(edges[next:end])
					next = end
				case op < 9:
					modelRead(t, rng, e, oracle, users, step)
				case op == 9:
					// Fresh items, so the imported edges keep the
					// stream feasible whatever users they hit.
					imp := core.MustNew(cfg)
					for i := rng.Intn(20); i >= 0; i-- {
						importItem++
						imp.Process(stream.Edge{User: stream.User(rng.Intn(users)), Item: importItem, Op: stream.Insert})
					}
					data, err := imp.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if err := e.ImportSketch(data); err != nil {
						t.Fatal(err)
					}
					if err := oracle.Merge(imp); err != nil {
						t.Fatal(err)
					}
				case op == 10:
					if _, err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				default:
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					e = MustOpen(dcfg)
				}
			}
			modelRead(t, rng, e, oracle, users, -1)
		})
	}
}

// TestViewModelWindow is TestViewModel on a durable windowed engine, with
// window advances in place of imports: after every read the engine's live
// window must serialize byte-identically to one core.Window fed the same
// edges and advanced to the same instants.
func TestViewModelWindow(t *testing.T) {
	const users, buckets = 60, 3
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			now := time.Unix(5000, 0).Add(100 * time.Millisecond)
			clk := newFakeClock(now)
			dcfg := durableWindowConfig(t.TempDir(), 1+rng.Intn(3), buckets, clk)
			e := MustOpen(dcfg)
			defer func() { e.Close() }()
			oracle, err := core.NewWindow(testConfig(), buckets, time.Second, now)
			if err != nil {
				t.Fatal(err)
			}
			edges := feasibleStream(4000, users, 0.3, seed)
			next := 0
			for step := 0; next < len(edges); step++ {
				switch op := rng.Intn(12); {
				case op < 6:
					end := min(next+1+rng.Intn(64), len(edges))
					if err := e.ProcessBatch(edges[next:end]); err != nil {
						t.Fatal(err)
					}
					oracle.ProcessBatch(edges[next:end])
					next = end
				case op < 9:
					modelRead(t, rng, e, oracle.Merged(), users, step)
				case op == 9:
					// Buffered edges belong to the bucket they were sent
					// in: apply them before the clock moves.
					e.Flush()
					now = now.Add(time.Duration(300+rng.Intn(1200)) * time.Millisecond)
					clk.Set(now)
					e.AdvanceWindowTo(now)
					oracle.AdvanceTo(now)
				case op == 10:
					if _, err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				default:
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					e = MustOpen(dcfg)
				}
			}
			modelRead(t, rng, e, oracle.Merged(), users, -1)
		})
	}
}

// TestViewConcurrent races producers against readers, window rotations
// and checkpoints under the race detector. The producers only insert, so
// every user's cardinality only grows: a reader that ever sees one fall
// has been handed a view older than one it already read, or a cut that
// never existed. The rotations retire only buckets older than every edge,
// so after the producers finish the engine must serialize byte-identically
// to one core.VOS fed every edge — whatever order the shards applied them
// in.
func TestViewConcurrent(t *testing.T) {
	const users, producers, readers, perProducer = 50, 2, 3, 3000
	now := time.Unix(7000, 0).Add(100 * time.Millisecond)
	clk := newFakeClock(now)
	cfg := durableWindowConfig(t.TempDir(), 3, 4, clk)
	cfg.BatchSize = 16
	e := MustOpen(cfg)
	defer e.Close()

	feeds := make([][]stream.Edge, producers)
	for p := range feeds {
		for i := 0; i < perProducer; i++ {
			item := stream.Item(p*perProducer + i)
			feeds[p] = append(feeds[p], stream.Edge{User: stream.User(i % users), Item: item, Op: stream.Insert})
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for p := range feeds {
		wg.Add(1)
		go func(feed []stream.Edge) {
			defer wg.Done()
			for len(feed) > 0 {
				n := min(1+len(feed)%37, len(feed))
				if err := e.ProcessBatch(feed[:n]); err != nil {
					t.Error(err)
					return
				}
				feed = feed[n:]
			}
		}(feeds[p])
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			u := stream.User(r)
			last := int64(0)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var c int64
				switch i % 3 {
				case 0:
					c = e.Query(u, u+1).CardinalityU
				case 1:
					top := e.TopK(u+1, []stream.User{u}, 1)
					if len(top) != 1 {
						t.Errorf("reader %d: TopK returned %d results", r, len(top))
						return
					}
					c = top[0].Estimate.CardinalityV
				default:
					data, err := e.MarshalBinary()
					if err != nil {
						t.Error(err)
						return
					}
					sk, err := core.UnmarshalVOS(data)
					if err != nil {
						t.Error(err)
						return
					}
					c = sk.Cardinality(u)
				}
				if c < last {
					t.Errorf("reader %d: cardinality of %d fell from %d to %d", r, u, last, c)
					return
				}
				last = c
			}
		}(r)
	}
	// Three advances: every edge stays inside the 4-bucket window, but
	// each rotation makes the next refresh a full recompute.
	for i := 0; i < 3; i++ {
		now = now.Add(time.Second)
		clk.Set(now)
		e.AdvanceWindowTo(now)
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(done)
	rwg.Wait()

	e.Flush()
	oracle := core.MustNew(testConfig())
	for _, feed := range feeds {
		oracle.ProcessBatch(feed)
	}
	assertSameBytes(t, e, oracle, -1)
}
