package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/vossketch/vos"
)

// declared returns the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func tinyRun(t *testing.T, workload string, trace bool) *runResult {
	t.Helper()
	r, err := runBench(options{workload: workload, seed: 3, seconds: 1, trace: trace, work: t.TempDir(), pr: tinyParams()})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if !r.correct {
		t.Fatalf("%s (trace %v): gate failed: %v", workload, trace, r.gateErr)
	}
	return r
}

// TestEveryWorkloadReportsEveryMetric runs each workload at tiny scale,
// untraced and traced, and checks each run reports exactly the metrics
// BENCHMARK.json declares — every end-to-end one non-zero.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	e2e, layer := declared(t)
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, w := range workloads {
		r := tinyRun(t, w, false)
		if got := keys(r.metrics); strings.Join(got, ",") != strings.Join(e2e, ",") {
			t.Errorf("%s: end-to-end metrics %v, want %v", w, got, e2e)
		}
		for name, m := range r.metrics {
			if m.Value == 0 {
				t.Errorf("%s: %s is 0", w, name)
			}
		}
		r = tinyRun(t, w, true)
		if got := keys(r.metrics); strings.Join(got, ",") != strings.Join(layer, ",") {
			t.Errorf("%s: per-layer metrics %v, want %v", w, got, layer)
		}
		switch w {
		case wlReadHot:
			if n := r.metrics["engine.snapshot_rebuilds"].Value; n != 0 {
				t.Errorf("read-hot rebuilt the snapshot %v times during measurement", n)
			}
		case wlRWMixed:
			if n := r.metrics["engine.snapshot_rebuilds"].Value; n == 0 {
				t.Error("rw-mixed never rebuilt the snapshot")
			}
		case wlClusterRW:
			if g := r.metrics["gateway.gathers_per_read"].Value; g < 1 {
				t.Errorf("cluster-rw gathered %v backends per read after a write", g)
			}
		}
	}
}

// TestParityGateFiresOnMismatchedOracle feeds the gate an oracle that
// missed one acknowledged write batch: the gate must fail, and pass once
// the oracle has every batch.
func TestParityGateFiresOnMismatchedOracle(t *testing.T) {
	pr := tinyParams()
	in, err := makeInputs(pr, wlRWMixed, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildStack(pr, false, t.TempDir(), nil, in.preload)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	d := newDriver(pr, in, nil, st.url)
	defer d.close()
	ctx := context.Background()
	for _, b := range in.writes[:2] {
		if err := d.wcli.Ingest(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	_, err = checkGates(ctx, pr, in, d.cli, in.writes[0])
	if err == nil || !strings.Contains(err.Error(), "parity") {
		t.Fatalf("gate against a mismatched oracle: %v, want a parity error", err)
	}
	acked := append(append([]vos.Edge(nil), in.writes[0]...), in.writes[1]...)
	if _, err := checkGates(ctx, pr, in, d.cli, acked); err != nil {
		t.Fatalf("gate against the matching oracle: %v", err)
	}
}

// TestFailedGateReportsNoNumbers checks a run whose gate failed prints
// an empty metrics object.
func TestFailedGateReportsNoNumbers(t *testing.T) {
	r := &runResult{
		measured: []sample{{ok: true}},
		metrics:  map[string]metric{"read_p50_ms": {1, "ms"}},
	}
	if m := r.summary()["metrics"].(map[string]metric); len(m) != 0 {
		t.Fatalf("failed run reported %v", m)
	}
}

func TestInverseCancels(t *testing.T) {
	in, err := makeInputs(tinyParams(), wlIngestBulk, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sk := vos.MustNew(tinyParams().sketch)
	sk.ProcessBatch(in.preload)
	want, _ := sk.MarshalBinary()
	for _, cycle := range [][][]vos.Edge{in.bulk, in.writes} {
		for _, b := range cycle {
			sk.ProcessBatch(b)
		}
		got, _ := sk.MarshalBinary()
		if string(got) != string(want) {
			t.Fatal("a whole S, S⁻¹ cycle did not return the sketch to the preload state")
		}
	}
}
