// Command perfbench is the repository benchmark. It starts the real
// serving stack in this process — a durable vosd node (an engine behind
// server.New), or a vosgw gateway over K such nodes — drives it over
// loopback HTTP with client.Client in a closed loop (one request in
// flight), checks every end-of-run answer against an in-process oracle,
// and prints each metric by name with its unit. Request costs and set-up
// are timed in process CPU time (see endToEnd). The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// run also wraps every layer's public surface and prints the per-layer
// metrics; the spans are written to a JSON-lines file.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload rw-mixed --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are a run's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work holds the run's WAL directories and trace files.
	work string
	pr   params
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{work: filepath.Join(".bench_build", "perfbench"), pr: fullParams()}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	res, err := runBench(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	info, _ := json.Marshal(res.info)
	fmt.Fprintf(stdout, "# %s\n", info)
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "# %-36s %14.4f %s\n", name, res.metrics[name].Value, res.metrics[name].Unit)
	}
	out, _ := json.Marshal(res.summary())
	fmt.Fprintln(stdout, string(out))
	if !res.correct {
		fmt.Fprintln(stderr, "perfbench: correctness gate failed:", res.gateErr)
		return 1
	}
	return 0
}

// runResult is everything a run measured.
type runResult struct {
	info    map[string]any
	correct bool
	gateErr error

	setups   []float64 // CPU seconds per stack set-up
	measured []sample
	heapMiB  float64
	mae      float64

	// Traced runs only.
	spans            []span
	rebuilds         int
	tracedReads      int
	backlogMax       uint64
	poscacheHitRatio float64
	walBytesPerEdge  float64

	metrics map[string]metric
}

func (r *runResult) failed() int {
	n := 0
	for _, s := range r.measured {
		if !s.ok {
			n++
		}
	}
	return n
}

func (r *runResult) okRatio() float64 {
	return 1 - float64(r.failed())/float64(len(r.measured))
}

func (r *runResult) summary() map[string]any {
	m := r.metrics
	if !r.correct {
		m = map[string]metric{} // a failed gate reports no numbers
	}
	return map[string]any{"correct": r.correct, "attempted": len(r.measured), "failed": r.failed(), "metrics": m}
}

// machineInfo records the machine and settings a run used.
func machineInfo(o options, work string) map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"cpu":         cpuModel(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"wal_sync":    "every-batch",
		"wal_dir":     work,
		"shards":      o.pr.shards,
		"memory_bits": o.pr.sketch.MemoryBits,
		"sketch_bits": o.pr.sketch.SketchBits,
		"load":        "closed loop, one client",
		"timing":      "process CPU time per request and per set-up",
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func runBench(o options) (*runResult, error) {
	pr := o.pr
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	t0 := time.Now()
	in, err := makeInputs(pr, o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &runResult{info: machineInfo(o, work)}
	r.info["inputs_s"] = time.Since(t0).Seconds()
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	clustered := o.workload == wlClusterRW

	// Set up several times; setup_s is the median CPU time. Only the
	// last stack is driven.
	var st *stack
	var dir string
	for i := 0; i < pr.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(work, fmt.Sprintf("setup%d", i))
		c0 := processCPU()
		st, err = buildStack(pr, clustered, dir, t, in.preload)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, (processCPU() - c0).Seconds())
	}
	defer st.close()

	d := newDriver(pr, in, t, st.url)
	defer d.close()
	hits0, misses0 := st.poscache()
	wal0, err := st.walBytes()
	if err != nil {
		return nil, err
	}
	// The main phase: the workload's own traffic, after a warm-up.
	main := d.loop(in.main, time.Now(), false)
	hits1, misses1 := st.poscache()
	if hits1+misses1 > hits0+misses0 {
		r.poscacheHitRatio = float64(hits1-hits0) / float64(hits1+misses1-hits0-misses0)
	}
	for _, s := range main {
		if s.start >= pr.warm {
			r.measured = append(r.measured, s)
		}
	}
	// The tail phase measures what the main phase does not send. It
	// starts once every write of the main phase is applied.
	if in.tail.dur > 0 {
		if err := d.flushingRead(); err != nil {
			return nil, fmt.Errorf("flushing read: %w", err)
		}
		r.measured = append(r.measured, d.loop(in.tail, time.Now(), true)...)
	}
	if len(r.measured) == 0 {
		return nil, errors.New("no request was measured")
	}
	if err := d.finishCycles(); err != nil {
		return nil, fmt.Errorf("finishing the write cycles: %w", err)
	}
	if err := d.flushingRead(); err != nil {
		return nil, fmt.Errorf("flushing read: %w", err)
	}
	wal1, err := st.walBytes()
	if err != nil {
		return nil, err
	}
	if d.sentEdges > 0 {
		r.walBytesPerEdge = float64(wal1-wal0) / float64(d.sentEdges)
	}

	t1 := time.Now()
	r.mae, r.gateErr = checkGates(context.Background(), pr, in, d.cli, d.acked())
	r.correct = r.gateErr == nil

	r.info["gates_s"] = time.Since(t1).Seconds()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heapMiB = float64(mem.HeapAlloc) / (1 << 20)

	if t == nil {
		r.metrics = endToEnd(r)
		return r, nil
	}
	t.mu.Lock()
	r.spans = t.spans
	t.mu.Unlock()
	for _, n := range st.nodes {
		n.svc.mu.Lock()
		r.rebuilds += n.svc.rebuilds
		r.tracedReads += n.svc.reads
		r.backlogMax = max(r.backlogMax, n.svc.backlogMax)
		n.svc.mu.Unlock()
	}
	if r.metrics, err = perLayer(r); err != nil {
		return nil, err
	}
	path := filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	if err := t.write(path, r.info); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return r, nil
}
