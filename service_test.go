package vos_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/vossketch/vos"
)

func serviceSketchConfig() vos.Config {
	return vos.Config{MemoryBits: 1 << 18, SketchBits: 512, Seed: 7}
}

// TestServiceAdaptersAgree: the engine service answers a stream exactly
// as a plain Sketch that consumed it does, at one shard and at several —
// the interface is a veneer, not a second estimator.
func TestServiceAdaptersAgree(t *testing.T) {
	ctx := context.Background()
	edges := engineTestStream(8_000, 60, 0.25, 21)

	ref := vos.MustNew(serviceSketchConfig())
	for _, e := range edges {
		ref.Process(e)
	}
	candidates := make([]vos.User, 50)
	for i := range candidates {
		candidates[i] = vos.User(i)
	}
	wantTop := ref.TopK(1, candidates, 5)

	for _, shards := range []int{1, 2} {
		eng := vos.MustNewEngine(vos.EngineConfig{Sketch: serviceSketchConfig(), Shards: shards})
		defer eng.Close()
		svc := vos.NewEngineService(eng)
		if err := svc.Ingest(ctx, edges); err != nil {
			t.Fatalf("shards=%d: Ingest: %v", shards, err)
		}
		for u := vos.User(0); u < 20; u++ {
			got, err := svc.Similarity(ctx, u, u+3)
			if err != nil {
				t.Fatalf("shards=%d: Similarity: %v", shards, err)
			}
			if want := ref.Query(u, u+3); got != want {
				t.Fatalf("shards=%d: Similarity(%d,%d) = %+v, reference %+v", shards, u, u+3, got, want)
			}
			gotCard, err := svc.Cardinality(ctx, u)
			if err != nil {
				t.Fatalf("shards=%d: Cardinality: %v", shards, err)
			}
			if want := ref.Cardinality(u); gotCard != want {
				t.Fatalf("shards=%d: Cardinality(%d) = %d, want %d", shards, u, gotCard, want)
			}
		}
		gotTop, err := svc.TopK(ctx, 1, candidates, 5)
		if err != nil {
			t.Fatalf("shards=%d: TopK: %v", shards, err)
		}
		if !reflect.DeepEqual(gotTop, wantTop) {
			t.Fatalf("shards=%d: TopK = %+v, want %+v", shards, gotTop, wantTop)
		}
		gotStats, err := svc.Stats(ctx)
		if err != nil {
			t.Fatalf("shards=%d: Stats: %v", shards, err)
		}
		if want := ref.Stats(); gotStats != want {
			t.Fatalf("shards=%d: Stats = %+v, want %+v", shards, gotStats, want)
		}
	}
}

// TestServicePreCancelledContext: every method of the engine service
// refuses an already-cancelled context with ctx.Err().
func TestServicePreCancelledContext(t *testing.T) {
	eng := vos.MustNewEngine(vos.EngineConfig{Sketch: serviceSketchConfig(), Shards: 2})
	defer eng.Close()
	svc := vos.NewEngineService(eng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	edges := []vos.Edge{{User: 1, Item: 2, Op: vos.Insert}}
	if err := svc.Ingest(ctx, edges); !errors.Is(err, context.Canceled) {
		t.Errorf("Ingest on cancelled ctx: %v", err)
	}
	if _, err := svc.Similarity(ctx, 1, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("Similarity on cancelled ctx: %v", err)
	}
	if _, err := svc.TopK(ctx, 1, []vos.User{2, 3}, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("TopK on cancelled ctx: %v", err)
	}
	if _, err := svc.Cardinality(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("Cardinality on cancelled ctx: %v", err)
	}
	if _, err := svc.Stats(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Stats on cancelled ctx: %v", err)
	}
}

// TestEngineTopKCancellationAborts is the acceptance-criterion test: a
// context cancelled while Engine.TopK's worker fan-out is mid-scan aborts
// the search with context.Canceled instead of running the candidate set to
// completion. The workload is sized so the scan takes hundreds of
// milliseconds cold (every candidate is a fresh recovery at k=4096), while
// the cancel lands after ~10ms — and the early return is also the -race
// target for the worker error plumbing.
func TestEngineTopKCancellationAborts(t *testing.T) {
	eng := vos.MustNewEngine(vos.EngineConfig{
		Sketch: vos.Config{MemoryBits: 1 << 22, SketchBits: 4096, Seed: 3},
		Shards: 2,
		// The candidate users below are cold on purpose: caches would make
		// the scan fast enough to finish before the cancel lands.
		PositionCacheUsers: -1,
	})
	defer eng.Close()
	var edges []vos.Edge
	for u := vos.User(0); u < 200; u++ {
		for i := 0; i < 20; i++ {
			edges = append(edges, vos.Edge{User: u, Item: vos.Item(int(u)*100 + i), Op: vos.Insert})
		}
	}
	if err := eng.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	eng.Flush()

	candidates := make([]vos.User, 30_000)
	for i := range candidates {
		candidates[i] = vos.User(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := eng.TopKContext(ctx, 1, candidates, 10)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled mid-flight TopK returned %v (after %s), want context.Canceled",
				err, time.Since(start))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled TopK never returned")
	}
}

// TestEngineServiceClosed: after Close, every service method returns the
// ErrClosed sentinel — typed lifecycle errors instead of stale answers.
func TestEngineServiceClosed(t *testing.T) {
	eng := vos.MustNewEngine(vos.EngineConfig{Sketch: serviceSketchConfig()})
	svc := vos.NewEngineService(eng)
	ctx := context.Background()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest(ctx, []vos.Edge{{User: 1, Item: 2, Op: vos.Insert}}); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Ingest after Close: %v", err)
	}
	if _, err := svc.Similarity(ctx, 1, 2); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Similarity after Close: %v", err)
	}
	if _, err := svc.TopK(ctx, 1, []vos.User{2}, 1); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("TopK after Close: %v", err)
	}
	if _, err := svc.Cardinality(ctx, 1); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Cardinality after Close: %v", err)
	}
	if _, err := svc.Stats(ctx); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Stats after Close: %v", err)
	}
	// ErrClosed and the legacy ErrEngineClosed are the same sentinel.
	if !errors.Is(vos.ErrClosed, vos.ErrEngineClosed) {
		t.Fatal("ErrClosed and ErrEngineClosed diverged")
	}
}
