package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/exact"
)

// checkGates runs the end-of-run correctness gates against the stack at
// cli and returns jaccard_mae. The oracle is a vos.Sketch fed the preload
// and the acknowledged writes; the exact state is the preload store with
// the same writes applied. Any mismatch is an error: the run then reports
// no numbers.
//
//   - The exported sketch (/v1/cluster/sketch) is byte-identical to the
//     oracle's serialization.
//   - Every sampled Similarity, Cardinality and TopK answer equals the
//     oracle's.
//   - jaccard_mae is the mean |Ĵ − J| over the fixed pair sample, J from
//     internal/exact.
func checkGates(ctx context.Context, pr params, in *inputs, cli *client.Client, acked []vos.Edge) (float64, error) {
	oracle, err := vos.New(pr.sketch)
	if err != nil {
		return 0, err
	}
	oracle.EnablePositionCache(pr.pairAmong + pr.candidates)
	oracle.ProcessBatch(in.preload)
	oracle.ProcessBatch(acked)
	store := exact.NewStore()
	for _, edges := range [][]vos.Edge{in.preload, acked} {
		for _, e := range edges {
			if err := store.Apply(e); err != nil {
				return 0, fmt.Errorf("exact state: %w", err)
			}
		}
	}
	pairs := samplePairs(store, in.ranked, pr.pairAmong, pr.pairSample, in.seed)
	if len(pairs) == 0 {
		return 0, fmt.Errorf("empty pair sample")
	}

	got, err := cli.ExportSketch(ctx)
	if err != nil {
		return 0, fmt.Errorf("export: %w", err)
	}
	want, err := oracle.MarshalBinary()
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("parity: exported sketch (%d bytes) differs from the oracle's (%d bytes)", len(got), len(want))
	}

	var absErr float64
	for _, p := range pairs {
		est, err := cli.Similarity(ctx, p.U, p.V)
		if err != nil {
			return 0, fmt.Errorf("similarity(%d, %d): %w", p.U, p.V, err)
		}
		if want := oracle.Query(p.U, p.V); est != want {
			return 0, fmt.Errorf("parity: similarity(%d, %d) = %+v, oracle %+v", p.U, p.V, est, want)
		}
		absErr += math.Abs(est.Jaccard - store.Jaccard(p.U, p.V))
	}
	for _, u := range in.candidates[:min(pr.cardSample, len(in.candidates))] {
		card, err := cli.Cardinality(ctx, u)
		if err != nil {
			return 0, fmt.Errorf("cardinality(%d): %w", u, err)
		}
		if want := oracle.Cardinality(u); card != want {
			return 0, fmt.Errorf("parity: cardinality(%d) = %d, oracle %d", u, card, want)
		}
		if card != int64(store.Cardinality(u)) {
			return 0, fmt.Errorf("cardinality(%d) = %d, exact %d", u, card, store.Cardinality(u))
		}
	}
	for _, p := range pairs[:min(pr.topKSample, len(pairs))] {
		top, err := cli.TopK(ctx, p.U, in.candidates, pr.topN)
		if err != nil {
			return 0, fmt.Errorf("topk(%d): %w", p.U, err)
		}
		want := oracle.TopK(p.U, in.candidates, pr.topN)
		if len(top) != len(want) {
			return 0, fmt.Errorf("parity: topk(%d) has %d results, oracle %d", p.U, len(top), len(want))
		}
		for i := range top {
			if top[i] != want[i] {
				return 0, fmt.Errorf("parity: topk(%d)[%d] = %+v, oracle %+v", p.U, i, top[i], want[i])
			}
		}
	}
	return absErr / float64(len(pairs)), nil
}
