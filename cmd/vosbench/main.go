// Command vosbench regenerates the paper's evaluation figures and the
// repository's ablation tables from scratch: it generates the workloads,
// runs every method under the §V memory-equalised protocol, and prints the
// rows the corresponding figure plots.
//
// Usage:
//
//	vosbench -experiment fig3a
//	vosbench -experiment all -scale 0.02 -csv
//	vosbench -experiment throughput -shards 1,2,4,8
//	vosbench -experiment query -json
//	vosbench -experiment window -buckets 8 -json
//
// Experiments: fig2a, fig2b, fig3a, fig3b, fig3c, fig3d, abl-lambda,
// abl-load, abl-dense, abl-delbias, compare, throughput, query, hashing,
// window, topk-ann, udpsoak, cluster, all.
//
// The throughput experiment measures the sharded ingestion engine: for
// each shard count it ingests the runtime workload through vos.Engine,
// reports edges/s and the speedup over both the sequential sketch and the
// single-shard engine, and verifies the engine's post-flush estimates are
// bit-identical to the sequential sketch (VOS merging is exact).
//
// The query experiment measures the materialized read path: per-pair and
// top-K-of-1000 cost on the scalar per-bit baseline, the packed
// materialized path, the warm-cache steady state, and the engine's
// parallel fan-out — each parity-checked against the per-bit oracle
// before it is timed.
//
// The hashing experiment measures the hash layer and the compare kernels:
// position-table fill cost per family (classic k-seeded vs DKT-style
// fast), the blocked gather/XOR/popcount kernels against their scalar
// references, cold pair-query cost per family, and ingest ns/edge —
// every row parity-gated (bulk fill vs scalar definition, blocked vs
// reference kernels, planted-pair accuracy for both families, fast
// materialized vs per-bit queries) before it is timed.
//
// The window experiment measures the sliding-window subsystem: bucket
// rotation cost at growing fill levels (rotation is O(sketch), so the
// cost must stay flat) and windowed-query accuracy against exact
// in-window ground truth, parity-gated on the live window sketch being
// bit-identical to a fresh sketch built from only the in-window edges.
//
// The udpsoak experiment soaks both ingest planes over real loopback
// sockets at the same batch size — the HTTP binary path (one POST
// round-trip per batch) and the VOSSTRM1 datagram path (fire-and-forget
// frames with windowed acks) — reporting edges/s, ns/edge, and ack RTT
// percentiles, then replays the datagram run under a deterministic
// drop/duplicate/reorder fault plan and refuses to emit rows unless every
// injected fault surfaces in the receiver's counters exactly and each
// transport's sketch is bit-identical to an in-process oracle.
//
// The cluster experiment measures the gateway tier (internal/cluster):
// for each node count it stands up K engine-backed nodes behind a
// scatter-gather gateway over real loopback HTTP, fans the workload in
// through the ring's user partition (multi-node rows include a live shard
// handoff at half-stream), and reports sharded-ingest throughput plus
// cold-gather and cached-snapshot query cost — refusing to emit a row
// unless the cluster's merged export is bit-identical to a single
// in-process engine over the same stream and sampled answers match it.
//
// The topk-ann experiment measures the approximate top-K path
// (Engine.TopKApprox over the banded-LSH index) against the exact scan on
// a planted heavy-cluster workload, and refuses to emit a timing row when
// mean recall@10 falls below -ann-min-recall or any approximate result is
// not a subset-ordered prefix of the exact ranking.
//
// -json renders every table as a machine-readable JSON document (see
// bench/ for the checked-in trajectory this feeds).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/vossketch/vos/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (fig2a fig2b fig3a fig3b fig3c fig3d abl-lambda abl-load abl-dense abl-delbias compare throughput query hashing window topk-ann udpsoak cluster all)")
		scale      = flag.Float64("scale", 0.01, "dataset profile scale factor (paper scale = 1.0)")
		seed       = flag.Int64("seed", 2, "workload seed")
		k32        = flag.Int("k", 100, "registers per user for the baselines (paper: 100)")
		lambda     = flag.Int("lambda", 2, "VOS virtual-sketch multiplier (paper: 2)")
		topUsers   = flag.Int("topusers", 100, "highest-cardinality users seeding tracked pairs")
		maxPairs   = flag.Int("maxpairs", 500, "cap on tracked pairs")
		checks     = flag.Int("checkpoints", 12, "measurement points for over-time panels")
		runtimeKs  = flag.String("runtime-ks", "1,10,100,1000,10000", "comma-separated k sweep for fig2")
		dataset    = flag.String("dataset", "YouTube", "profile for single-dataset experiments (YouTube, Flickr, Orkut, LiveJournal)")
		shards     = flag.String("shards", "1,2,4,8", "comma-separated shard counts for -experiment throughput")
		buckets    = flag.Int("buckets", 8, "sliding-window bucket count for -experiment window")
		soakEdges  = flag.Int("soak-edges", 200_000, "workload size per transport for -experiment udpsoak")
		soakBatch  = flag.Int("soak-batch", 256, "edges per batch/frame for -experiment udpsoak")

		clusterEdges = flag.Int("cluster-edges", 120_000, "workload size per cluster run for -experiment cluster")
		clusterNodes = flag.String("cluster-nodes", "1,2,3,4", "comma-separated node counts for -experiment cluster")

		annUsers     = flag.Int("ann-users", 100000, "total population for -experiment topk-ann")
		annBands     = flag.Int("ann-bands", 0, "LSH bands for -experiment topk-ann (0 = experiment default 128)")
		annRows      = flag.Int("ann-rows", 0, "LSH rows per band for -experiment topk-ann (0 = experiment default 20)")
		annProbes    = flag.Int("ann-probes", 24, "cluster members probed by -experiment topk-ann")
		annMinRecall = flag.Float64("ann-min-recall", 0.95, "recall@10 gate for -experiment topk-ann; below it the run errors instead of emitting rows")
		csv          = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut      = flag.Bool("json", false, "emit machine-readable JSON instead of aligned text")
		outdir       = flag.String("outdir", "", "also write each table as <outdir>/<id>.csv")
	)
	flag.Parse()

	ks, err := parseIntList(*runtimeKs, "-runtime-ks")
	if err != nil {
		fatal(err)
	}
	opts := experiments.Options{
		Scale:       *scale,
		Seed:        *seed,
		K32:         *k32,
		Lambda:      *lambda,
		TopUsers:    *topUsers,
		MaxPairs:    *maxPairs,
		Checkpoints: *checks,
		Dataset:     *dataset,
		RuntimeKs:   ks,
	}

	shardCounts, err := parseIntList(*shards, "-shards")
	if err != nil {
		fatal(err)
	}

	annOpts := experiments.TopKANNOptions{
		Users:     *annUsers,
		Bands:     *annBands,
		Rows:      *annRows,
		Probes:    *annProbes,
		MinRecall: *annMinRecall,
	}

	soakOpts := experiments.UDPSoakOptions{Edges: *soakEdges, BatchSize: *soakBatch}

	clusterNodeCounts, err := parseIntList(*clusterNodes, "-cluster-nodes")
	if err != nil {
		fatal(err)
	}
	clusterOpts := experiments.ClusterOptions{Edges: *clusterEdges, Nodes: clusterNodeCounts}

	tables, err := runWithShards(*experiment, opts, shardCounts, *buckets, annOpts, soakOpts, clusterOpts)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		switch {
		case *jsonOut:
			err = t.RenderJSON(os.Stdout)
		case *csv:
			err = t.RenderCSV(os.Stdout)
		default:
			err = t.Render(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		if *outdir != "" {
			if err := writeCSV(*outdir, t); err != nil {
				fatal(err)
			}
		}
	}
}

// writeCSV persists one table under dir as <id>.csv.
func writeCSV(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	if err := t.RenderCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWithShards dispatches experiments that take extra topology knobs
// (the shard-count sweep, the window bucket count, the ANN shape) and
// delegates everything else to run.
func runWithShards(id string, opts experiments.Options, shardCounts []int, buckets int, annOpts experiments.TopKANNOptions, soakOpts experiments.UDPSoakOptions, clusterOpts experiments.ClusterOptions) ([]*experiments.Table, error) {
	switch id {
	case "throughput":
		t, err := experiments.Throughput(opts, shardCounts)
		return one(t, err)
	case "window":
		t, err := experiments.WindowExperiment(opts, buckets)
		return one(t, err)
	case "topk-ann":
		t, err := experiments.TopKANN(opts, annOpts)
		return one(t, err)
	case "udpsoak":
		t, err := experiments.UDPSoak(opts, soakOpts)
		return one(t, err)
	case "cluster":
		t, err := experiments.Cluster(opts, clusterOpts)
		return one(t, err)
	}
	return run(id, opts)
}

func run(id string, opts experiments.Options) ([]*experiments.Table, error) {
	switch id {
	case "fig2a":
		t, err := experiments.Fig2a(opts)
		return one(t, err)
	case "fig2b":
		t, err := experiments.Fig2b(opts)
		return one(t, err)
	case "fig3a":
		a, _, err := experiments.Fig3TimeSeries(opts)
		return one(a, err)
	case "fig3c":
		_, c, err := experiments.Fig3TimeSeries(opts)
		return one(c, err)
	case "fig3b":
		b, _, err := experiments.Fig3Final(opts)
		return one(b, err)
	case "fig3d":
		_, d, err := experiments.Fig3Final(opts)
		return one(d, err)
	case "abl-lambda":
		t, err := experiments.AblLambda(opts)
		return one(t, err)
	case "abl-load":
		t, err := experiments.AblLoad(opts)
		return one(t, err)
	case "abl-dense":
		t, err := experiments.AblDense(opts)
		return one(t, err)
	case "abl-delbias":
		t, err := experiments.AblDelBias(opts)
		return one(t, err)
	case "compare":
		t, err := experiments.Compare(opts)
		return one(t, err)
	case "query":
		t, err := experiments.QueryPerf(opts)
		return one(t, err)
	case "hashing":
		t, err := experiments.HashingPerf(opts)
		return one(t, err)
	case "all":
		var out []*experiments.Table
		f2a, err := experiments.Fig2a(opts)
		if err != nil {
			return nil, err
		}
		out = append(out, f2a)
		f2b, err := experiments.Fig2b(opts)
		if err != nil {
			return nil, err
		}
		out = append(out, f2b)
		f3a, f3c, err := experiments.Fig3TimeSeries(opts)
		if err != nil {
			return nil, err
		}
		f3b, f3d, err := experiments.Fig3Final(opts)
		if err != nil {
			return nil, err
		}
		out = append(out, f3a, f3b, f3c, f3d)
		for _, fn := range []func(experiments.Options) (*experiments.Table, error){
			experiments.AblLambda, experiments.AblLoad,
			experiments.AblDense, experiments.AblDelBias,
		} {
			t, err := fn(opts)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}

func one(t *experiments.Table, err error) ([]*experiments.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*experiments.Table{t}, nil
}

// parseIntList parses a comma-separated list of positive integers, naming
// the offending flag in errors.
func parseIntList(s, flagName string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		k, err := strconv.Atoi(p)
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("bad value %q in %s", p, flagName)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s", flagName)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vosbench:", err)
	os.Exit(1)
}
