package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/exact"
	"github.com/vossketch/vos/internal/gen"
)

// Workload names. They are fixed: BENCHMARK.json and later issues cite them.
const (
	wlRWMixed    = "rw-mixed"
	wlReadHot    = "read-hot"
	wlIngestBulk = "ingest-bulk"
	wlClusterRW  = "cluster-rw"
)

var workloads = []string{wlRWMixed, wlReadHot, wlIngestBulk, wlClusterRW}

// opKind is one request class of the load generator.
type opKind uint8

const (
	opWrite opKind = iota // POST /v1/edges with one write batch
	opPair                // GET /v1/similarity
	opTopK                // POST /v1/topk over the fixed candidate list
)

func (k opKind) String() string {
	return [...]string{"write", "similarity", "topk"}[k]
}

// op is one request of a plan. Pair and top-K reads carry their users;
// a write takes the next batch of its write stream, and bulk marks an
// ingest-bulk batch.
type op struct {
	kind opKind
	u, v vos.User
	bulk bool
}

// params sizes a run. fullParams is the benchmark; tinyParams keeps the
// self-test in seconds.
type params struct {
	sketch vos.Config
	// shards is the engine shard count of every node.
	shards int
	// nodes is K, the backend count behind the cluster gateway.
	nodes int
	// preload is the shape of the graph every run starts from.
	preload gen.Profile
	// hot is the size of the Zipf user set reads draw from; it is larger
	// than the engine's 512-entry position cache.
	hot int
	// zipfS is the Zipf exponent of user popularity.
	zipfS float64
	// candidates and topN shape every top-K read.
	candidates, topN int
	// writeBatch is the edge count of a write and writeCycle the batches
	// in each half of the write stream's S, S⁻¹ cycle; bulkBatch and
	// bulkCycle shape the ingest-bulk stream the same way.
	writeBatch, writeCycle, bulkBatch, bulkCycle int
	// plan is the length of every phase's request plan; a phase that
	// outlasts it starts it again.
	plan int
	// warm is the unmeasured lead-in of every run; segment is the length
	// of the alternating traced and untraced slices of a traced run.
	warm, segment time.Duration
	// setups is how many times a run builds the stack; setup_s is the
	// median.
	setups int
	// The end-of-run gates check pairSample pairs of the pairAmong most
	// popular users, cardSample cardinalities and topKSample top-K reads.
	pairAmong, pairSample, cardSample, topKSample int
}

func fullParams() params {
	p := gen.YouTube
	p.Users, p.Items, p.Edges = 40_000, 200_000, 500_000
	return params{
		sketch:  vos.Config{MemoryBits: 1 << 24, SketchBits: 6400, Seed: 1},
		shards:  2,
		nodes:   2,
		preload: p,
		hot:     4096, zipfS: 1.1,
		candidates: 200, topN: 10,
		writeBatch: 64, writeCycle: 256, bulkBatch: 8192, bulkCycle: 8,
		plan: 1 << 14,
		warm: time.Second, segment: 500 * time.Millisecond,
		setups:    7,
		pairAmong: 256, pairSample: 3000, cardSample: 200, topKSample: 8,
	}
}

func tinyParams() params {
	p := gen.YouTube
	p.Users, p.Items, p.Edges = 600, 2_000, 6_000
	return params{
		sketch:  vos.Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 1},
		shards:  2,
		nodes:   2,
		preload: p,
		hot:     200, zipfS: 1.1,
		candidates: 50, topN: 5,
		writeBatch: 16, writeCycle: 8, bulkBatch: 256, bulkCycle: 3,
		plan: 64,
		warm: 100 * time.Millisecond, segment: 100 * time.Millisecond,
		setups:    2,
		pairAmong: 100, pairSample: 40, cardSample: 40, topKSample: 3,
	}
}

// rwCycle is the rw-mixed and cluster-rw traffic shape: three write
// batches, each followed by a read, then one read with no write before
// it. Three of four reads therefore follow an acknowledged write.
var rwCycle = []opKind{opWrite, opPair, opWrite, opPair, opWrite, opTopK, opPair}

// hotCycle is the read-hot traffic shape: pair and top-K reads, no writes.
var hotCycle = []opKind{opPair, opPair, opPair, opTopK}

// tailCycle is the tail phase of read-hot and ingest-bulk: a write, the
// read after it, then a top-K and a pair read with no write before them.
// It measures the request classes the workload's own traffic does not
// send, so every run reports every end-to-end metric.
var tailCycle = []opKind{opWrite, opPair, opTopK, opPair}

// graphSeed seeds the preload graph.
const graphSeed = 1

// tailShare is the part of a read-hot or ingest-bulk run's measured
// seconds given to the tail phase.
const tailShare = 0.4

// phase is one stretch of closed-loop traffic: one client sends the
// plan's requests back to back, each as soon as the previous one is
// answered, for dur.
type phase struct {
	ops []op
	dur time.Duration
}

// inputs is everything a run feeds the system, generated from the seed
// alone: the same seed gives the same inputs.
type inputs struct {
	seed    int64
	preload []vos.Edge
	// ranked lists the preloaded users by degree, most popular first.
	ranked     []vos.User
	candidates []vos.User
	// writes and bulk are the two write streams, each an S, S⁻¹ cycle in
	// batches: writes feeds the writeBatch-edge writes, bulk the
	// ingest-bulk batches (empty on other workloads).
	writes, bulk [][]vos.Edge
	// main is the workload's own traffic, warm-up included; tail, when
	// its duration is not zero, follows it.
	main, tail phase
}

// zipfUsers draws users with Zipf popularity over a ranked user list.
type zipfUsers struct {
	z     *rand.Zipf
	users []vos.User
}

func newZipfUsers(rng *rand.Rand, users []vos.User, s float64) *zipfUsers {
	return &zipfUsers{z: rand.NewZipf(rng, s, 1, uint64(len(users)-1)), users: users}
}

func (p *zipfUsers) pick() vos.User { return p.users[p.z.Uint64()] }

// pair draws two distinct users.
func (p *zipfUsers) pair() (vos.User, vos.User) {
	u := p.pick()
	for {
		if v := p.pick(); v != u {
			return u, v
		}
	}
}

// makeInputs generates the inputs of one workload run for the given
// measured seconds.
func makeInputs(pr params, workload string, seed int64, seconds float64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	// The preload graph is the same for every seed, like a fixed dataset:
	// its size and shape set the cost of every snapshot rebuild, and the
	// generator's heavy tails would otherwise make that cost a property
	// of the seed. The seed drives the traffic over it.
	base := gen.Bipartite(pr.preload, graphSeed)
	preload := gen.Dynamize(base, gen.PaperDynamize(len(base), graphSeed+1))
	ranked := rankUsers(preload)
	if len(ranked) < pr.hot || len(ranked) < pr.candidates {
		return nil, fmt.Errorf("preload has %d users, need %d", len(ranked), pr.hot)
	}
	in := &inputs{
		seed:       seed,
		preload:    preload,
		ranked:     ranked,
		candidates: ranked[:pr.candidates],
	}
	everyone := newZipfUsers(rng, ranked, pr.zipfS)
	hot := newZipfUsers(rng, ranked[:pr.hot], pr.zipfS)
	measured := time.Duration(seconds * float64(time.Second))
	switch workload {
	case wlRWMixed, wlClusterRW:
		in.main = newPhase(rwCycle, pr.plan, pr.warm+measured, hot)
	case wlReadHot:
		tail := time.Duration(tailShare * float64(measured))
		in.main = newPhase(hotCycle, pr.plan, pr.warm+measured-tail, hot)
		in.tail = newPhase(tailCycle, pr.plan, tail, hot)
	case wlIngestBulk:
		tail := time.Duration(tailShare * float64(measured))
		in.main = phase{ops: []op{{kind: opWrite, bulk: true}}, dur: pr.warm + measured - tail}
		in.tail = newPhase(tailCycle, pr.plan, tail, hot)
		s := churn(rng, everyone.pick, pr.bulkCycle*pr.bulkBatch, uint64(pr.preload.Items), seed+2)
		in.bulk = append(chunk(s, pr.bulkBatch), chunk(inverse(s), pr.bulkBatch)...)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	// The small writes use items above every bulk item, so the two
	// streams never touch the same edge.
	s := churn(rng, everyone.pick, pr.writeCycle*pr.writeBatch, uint64(pr.preload.Items)+1<<31, seed+3)
	in.writes = append(chunk(s, pr.writeBatch), chunk(inverse(s), pr.writeBatch)...)
	return in, nil
}

// newPhase lays the cycle over a plan of about n requests, a whole
// number of cycles, drawing read users from hot.
func newPhase(cycle []opKind, n int, dur time.Duration, hot *zipfUsers) phase {
	ops := make([]op, max(1, n/len(cycle))*len(cycle))
	for i := range ops {
		o := op{kind: cycle[i%len(cycle)]}
		switch o.kind {
		case opPair:
			o.u, o.v = hot.pair()
		case opTopK:
			o.u = hot.pick()
		}
		ops[i] = o
	}
	return phase{ops: ops, dur: dur}
}

// churn returns a feasible insert/delete stream of exactly n elements:
// insertions by Zipf-drawn users of items no preload edge uses (IDs from
// itemBase up, so the stream stays feasible on top of any preload state),
// turned fully dynamic by gen.Dynamize's mass-deletion events.
func churn(rng *rand.Rand, pick func() vos.User, n int, itemBase uint64, seed int64) []vos.Edge {
	type key struct {
		u vos.User
		i vos.Item
	}
	seen := make(map[key]struct{}, n)
	base := make([]vos.Edge, 0, n)
	for len(base) < n {
		k := key{pick(), vos.Item(itemBase + uint64(rng.Int63n(1<<30)))}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		base = append(base, vos.Edge{User: k.u, Item: k.i, Op: vos.Insert})
	}
	const events = 8.0
	out := gen.Dynamize(base, gen.DynamizeConfig{EventProb: events / float64(n), DeleteFrac: 0.5, Seed: seed})
	return out[:n]
}

// inverse returns S⁻¹: S reversed with every op flipped. Applying S then
// S⁻¹ returns any state to where it started, so a write stream can cycle
// for as long as a run lasts.
func inverse(s []vos.Edge) []vos.Edge {
	out := make([]vos.Edge, len(s))
	for i, e := range s {
		e.Op = vos.Insert + vos.Delete - e.Op
		out[len(s)-1-i] = e
	}
	return out
}

func chunk(s []vos.Edge, size int) [][]vos.Edge {
	var out [][]vos.Edge
	for len(s) > 0 {
		n := min(size, len(s))
		out = append(out, s[:n:n])
		s = s[n:]
	}
	return out
}

// rankUsers orders the users of a stream by their final degree, highest
// first, ties by ID.
func rankUsers(edges []vos.Edge) []vos.User {
	deg := make(map[vos.User]int)
	for _, e := range edges {
		if e.Op == vos.Insert {
			deg[e.User]++
		} else {
			deg[e.User]--
		}
	}
	users := make([]vos.User, 0, len(deg))
	for u, d := range deg {
		if d > 0 {
			users = append(users, u)
		}
	}
	sort.Slice(users, func(i, j int) bool {
		if deg[users[i]] != deg[users[j]] {
			return deg[users[i]] > deg[users[j]]
		}
		return users[i] < users[j]
	})
	return users
}

// samplePairs draws n distinct pairs of users from the first `among`
// ranked users that share at least one item in store, with a generator
// seeded by the workload seed: the gate sample is fixed for a seed.
func samplePairs(store *exact.Store, ranked []vos.User, among, n int, seed int64) []exact.Pair {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	among = min(among, len(ranked))
	seen := make(map[exact.Pair]bool, n)
	var out []exact.Pair
	for tries := 0; len(out) < n && tries < 50*n; tries++ {
		u, v := ranked[rng.Intn(among)], ranked[rng.Intn(among)]
		if u == v {
			continue
		}
		p := exact.MakePair(u, v)
		if seen[p] || store.CommonItems(u, v) == 0 {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}
