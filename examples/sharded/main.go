// Sharded concurrent ingestion with the Engine.
//
// VOS state is pure parity: the shared bit array of a stream equals the
// XOR of the arrays of ANY partition of that stream, and the cardinality
// counters add. vos.Engine packages that fact as a running system — the
// pattern a high-throughput deployment uses:
//
//  1. edges route to one of N shards by user hash (stream.ShardOf, the
//     same routing as vos.PartitionByUser),
//  2. each shard is a private sketch owned by one ingest goroutine, fed
//     through a buffered channel in batches — no shared write lock,
//  3. queries answer from a merged read view; merging is exact, so after
//     Flush the engine's estimates are bit-identical to a sketch that
//     consumed the whole stream sequentially.
//
// The program ingests a synthetic day of traffic sequentially and through
// engines at several shard counts, verifies the bit-identity, and prints
// per-shard health counters. On a multicore machine the engine's
// throughput grows with the shard count; on one core it tracks the
// sequential baseline (the floor).
//
// Run with:
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/vossketch/vos"
)

func main() {
	cfg := vos.Config{MemoryBits: 1 << 24, SketchBits: 6400, Seed: 99}

	// A synthetic day of traffic: 2M subscription events with 20%
	// unsubscriptions, generated feasibly.
	fmt.Println("generating 2,000,000 events…")
	edges := generate(2_000_000, 50_000, 0.2)

	// Sequential reference.
	seq := vos.MustNew(cfg)
	t0 := time.Now()
	for _, e := range edges {
		seq.Process(e)
	}
	seqTime := time.Since(t0)
	fmt.Printf("sequential single sketch: %v (%.2fM edges/s)\n\n",
		seqTime.Round(time.Millisecond), rateM(len(edges), seqTime))

	maxShards := runtime.GOMAXPROCS(0)
	fmt.Printf("GOMAXPROCS = %d\n", maxShards)
	for shards := 1; shards <= maxShards; shards *= 2 {
		runEngine(cfg, edges, shards, seq, seqTime)
	}
}

// runEngine ingests the stream into an n-shard engine with n producer
// goroutines, verifies exactness against the sequential sketch, and prints
// throughput plus per-shard counters.
func runEngine(cfg vos.Config, edges []vos.Edge, shards int, seq *vos.Sketch, seqTime time.Duration) {
	eng := vos.MustNewEngine(vos.EngineConfig{Sketch: cfg, Shards: shards})
	defer eng.Close()

	// A monitor goroutine samples the shard counters the way a dashboard
	// would: a RateMeter turns the summed applied-edge counter into
	// windowed edges/s, and we keep the peak window.
	monStop := make(chan struct{})
	monDone := make(chan float64, 1)
	go func() {
		var meter vos.RateMeter
		peak := 0.0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-monStop:
				monDone <- peak
				return
			case now := <-tick.C:
				total := vos.TotalShardStats(eng.ShardStats())
				if r := meter.Observe(total.Processed, now); r > peak {
					peak = r
				}
			}
		}
	}()

	const chunk = 2048
	per := (len(edges) + shards - 1) / shards
	t0 := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < shards; p++ {
		lo, hi := p*per, (p+1)*per
		if hi > len(edges) {
			hi = len(edges)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(part []vos.Edge) {
			defer wg.Done()
			for len(part) > 0 {
				m := min(chunk, len(part))
				if err := eng.ProcessBatch(part[:m]); err != nil {
					log.Fatal(err)
				}
				part = part[m:]
			}
		}(edges[lo:hi])
	}
	wg.Wait()
	eng.Flush()
	engTime := time.Since(t0)
	close(monStop)
	peakRate := <-monDone

	// The merged engine state must be bit-identical to the sequential
	// sketch: same array, same β, same estimates.
	a, b := seq.Stats(), eng.Stats()
	if a != b {
		log.Fatalf("MERGE MISMATCH — engine stats %+v, sequential %+v", b, a)
	}
	if q1, q2 := seq.Query(1, 2), eng.Query(1, 2); q1 != q2 {
		log.Fatal("query mismatch between engine and sequential sketch")
	}

	fmt.Printf("\nengine with %d shard(s): %v (%.2fM edges/s, %.2fx sequential) — estimates identical ✓\n",
		shards, engTime.Round(time.Millisecond), rateM(len(edges), engTime),
		seqTime.Seconds()/engTime.Seconds())
	stats := eng.ShardStats()
	for _, st := range stats {
		fmt.Printf("  %s\n", st)
	}
	total := vos.TotalShardStats(stats)
	fmt.Printf("  total: %d applied across %d shards, mean β=%.5f, peak windowed rate %.2fM edges/s\n",
		total.Processed, shards, total.Beta, peakRate/1e6)
}

func rateM(edges int, d time.Duration) float64 {
	return float64(edges) / d.Seconds() / 1e6
}

// generate builds a feasible stream: random subscriptions across users
// and items, with delFrac of events unsubscribing a live edge.
func generate(n, users int, delFrac float64) []vos.Edge {
	rng := rand.New(rand.NewSource(3))
	type key struct {
		u vos.User
		i vos.Item
	}
	liveList := make([]key, 0, n)
	liveIdx := make(map[key]int, n)
	out := make([]vos.Edge, 0, n)
	for len(out) < n {
		if len(liveList) > 0 && rng.Float64() < delFrac {
			pos := rng.Intn(len(liveList))
			k := liveList[pos]
			last := len(liveList) - 1
			liveList[pos] = liveList[last]
			liveIdx[liveList[pos]] = pos
			liveList = liveList[:last]
			delete(liveIdx, k)
			out = append(out, vos.Edge{User: k.u, Item: k.i, Op: vos.Delete})
			continue
		}
		k := key{vos.User(rng.Intn(users)), vos.Item(rng.Uint64() % 1_000_000)}
		if _, dup := liveIdx[k]; dup {
			continue
		}
		liveIdx[k] = len(liveList)
		liveList = append(liveList, k)
		out = append(out, vos.Edge{User: k.u, Item: k.i, Op: vos.Insert})
	}
	return out
}
