package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/engine"
	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/stream"
)

// QueryPerf measures the materialized read path at the paper-scale sketch
// configuration (m = 2^24, k = λ·32·K32 = 6400 by default): per-pair query
// cost and top-10-of-1000-candidates cost on each path —
//
//   - per-bit: the scalar reference (2k seeded hashes + 2k single-bit
//     probes per pair; for top-K, per-pair queries plus a full sort);
//   - materialized: packed recovery, batched hashing, word-level
//     XOR+popcount, no caches;
//   - warm: position tables and packed recovered sketches cached — the
//     read-heavy serving steady state;
//   - engine: Engine.TopK over the merged read view with the parallel
//     candidate fan-out (top-K row only).
//
// Every path is parity-checked against the per-bit reference before it is
// timed; a mismatch is an error, not a table row.
func QueryPerf(opts Options) (*Table, error) {
	opts = opts.normalized()

	p, err := gen.ProfileByName(opts.Dataset)
	if err != nil {
		return nil, err
	}
	p.Users = opts.RuntimeUsers
	p.Items = opts.RuntimeUsers * 4
	p.Edges = opts.RuntimeEdges
	base := gen.Bipartite(p, opts.Seed)
	edges := gen.Dynamize(base, gen.PaperDynamize(len(base), opts.Seed+1))

	// The issue's paper-scale read-path configuration: a 2 MiB shared
	// array with the §V virtual sketch size.
	cfg := core.Config{
		MemoryBits: 1 << 24,
		SketchBits: opts.Lambda * 32 * opts.K32,
		Seed:       uint64(opts.Seed),
	}

	sk := core.MustNew(cfg)
	for _, e := range edges {
		sk.Process(e)
	}

	nCand := 1000
	if int(opts.RuntimeUsers) < nCand {
		nCand = int(opts.RuntimeUsers)
	}
	probe := stream.User(0)
	candidates := make([]stream.User, nCand)
	for i := range candidates {
		candidates[i] = stream.User(i + 1)
	}
	const topN = 10

	// Parity gate: all paths must agree with the per-bit oracle bit for
	// bit before any timing is reported.
	sk.EnablePositionCache(nCand + 1)
	sk.SetRecoveredCacheCapacity(0)
	nParity := 50
	if len(candidates) < nParity {
		nParity = len(candidates)
	}
	for _, w := range candidates[:nParity] {
		if sk.Query(probe, w) != sk.QueryPerBit(probe, w) {
			return nil, fmt.Errorf("experiments: materialized query mismatch for pair (%d,%d)", probe, w)
		}
	}

	tbl := &Table{
		ID:     "query",
		Title:  "materialized read path: pair query and top-K cost per path",
		Header: []string{"op", "path", "ns/op", "speedup"},
	}
	tbl.AddNote("dataset=%s users=%d edges=%d (after dynamize: %d)", p.Name, p.Users, p.Edges, len(edges))
	tbl.AddNote("sketch: m=%d bits, k=%d, seed=%d; top-K: best %d of %d candidates",
		cfg.MemoryBits, cfg.SketchBits, cfg.Seed, topN, nCand)
	tbl.AddNote("warm = position cache (%d entries) + recovered-sketch cache, steady state", nCand+1)
	tbl.AddNote("GOMAXPROCS=%d (engine row fans out across cores)", runtime.GOMAXPROCS(0))

	// timeOp runs fn repeatedly until budget elapses (at least once) and
	// returns ns per call. Calls run in geometrically growing blocks
	// between clock reads, so the ~20-30ns cost of time.Since does not
	// inflate the sub-microsecond warm paths; slow paths keep blocks small
	// and stay near budget.
	timeOp := func(budget time.Duration, fn func()) float64 {
		fn() // warm
		reps, block := 0, 1
		t0 := time.Now()
		elapsed := time.Duration(0)
		for elapsed < budget || reps == 0 {
			for i := 0; i < block; i++ {
				fn()
			}
			reps += block
			elapsed = time.Since(t0)
			if block < 1024 && elapsed < budget/2 {
				block *= 2
			}
		}
		return float64(elapsed.Nanoseconds()) / float64(reps)
	}
	const pairBudget = 200 * time.Millisecond
	const topkBudget = 400 * time.Millisecond

	addRows := func(op string, ns map[string]float64, order []string) {
		base := ns["per-bit"]
		for _, path := range order {
			tbl.AddRow(op, path, fmt.Sprintf("%.0f", ns[path]), fmt.Sprintf("%.1fx", base/ns[path]))
		}
	}

	// Pair query rows.
	pair := map[string]float64{}
	pair["per-bit"] = timeOp(pairBudget, func() { estSink = sk.QueryPerBit(probe, candidates[0]) })
	sk.SetPositionCache(nil)
	sk.SetRecoveredCacheCapacity(-1)
	pair["materialized"] = timeOp(pairBudget, func() { estSink = sk.Query(probe, candidates[0]) })
	sk.EnablePositionCache(nCand + 1)
	sk.SetRecoveredCacheCapacity(0)
	pair["warm"] = timeOp(pairBudget, func() { estSink = sk.Query(probe, candidates[0]) })
	addRows("pair", pair, []string{"per-bit", "materialized", "warm"})

	// Top-K rows.
	topk := map[string]float64{}
	topk["per-bit"] = timeOp(topkBudget, func() { topkSink = perBitTopK(sk, probe, candidates, topN) })
	sk.SetPositionCache(nil)
	sk.SetRecoveredCacheCapacity(-1)
	topk["materialized"] = timeOp(topkBudget, func() { topkSink = sk.TopK(probe, candidates, topN) })
	sk.EnablePositionCache(nCand + 1)
	sk.SetRecoveredCacheCapacity(0)
	topk["warm"] = timeOp(topkBudget, func() { topkSink = sk.TopK(probe, candidates, topN) })

	// Engine row: same stream through a sharded engine, ranked from the
	// merged read view with the parallel fan-out.
	eng, err := engine.New(engine.Config{
		Sketch:             cfg,
		Shards:             runtime.GOMAXPROCS(0),
		PositionCacheUsers: nCand + 1,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := eng.ProcessBatch(edges); err != nil {
		return nil, err
	}
	eng.Flush()
	engTop := eng.TopK(probe, candidates, topN)
	refTop := perBitTopK(sk, probe, candidates, topN)
	for i := range refTop {
		if engTop[i] != refTop[i] {
			return nil, fmt.Errorf("experiments: engine top-K rank %d mismatch: %d vs %d",
				i, engTop[i].User, refTop[i].User)
		}
	}
	topk["engine"] = timeOp(topkBudget, func() { topkSink = eng.TopK(probe, candidates, topN) })
	addRows(fmt.Sprintf("top%d/%d", topN, nCand), topk, []string{"per-bit", "materialized", "warm", "engine"})

	return tbl, nil
}

// estSink and topkSink keep timed results live (the query paths inline).
var (
	estSink  core.Estimate
	topkSink []core.TopKResult
)

// perBitTopK ranks candidates with per-pair scalar queries and a full sort
// — the pre-materialization shape, used as the baseline and parity oracle.
func perBitTopK(sk *core.VOS, u stream.User, candidates []stream.User, n int) []core.TopKResult {
	xs := make([]core.TopKResult, 0, len(candidates))
	for _, w := range candidates {
		if w == u {
			continue
		}
		xs = append(xs, core.TopKResult{User: w, Estimate: sk.QueryPerBit(u, w)})
	}
	sort.Slice(xs, func(i, j int) bool { return core.RankBefore(xs[i], xs[j]) })
	if n > len(xs) {
		n = len(xs)
	}
	return xs[:n]
}
