package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/vossketch/vos/internal/experiments"
)

func TestParseKs(t *testing.T) {
	got, err := parseIntList("1, 10,100", "-runtime-ks")
	if err != nil || len(got) != 3 || got[2] != 100 {
		t.Errorf("parseIntList = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "-5", "1,,x"} {
		_, err := parseIntList(bad, "-runtime-ks")
		if err == nil {
			t.Errorf("parseIntList(%q) accepted", bad)
		} else if strings.HasPrefix(err.Error(), "vosbench:") {
			t.Errorf("parseIntList(%q) error %q carries the prefix fatal adds", bad, err)
		}
	}
	// Trailing comma tolerated.
	if got, err := parseIntList("5,", "-shards"); err != nil || len(got) != 1 {
		t.Errorf("trailing comma: %v, %v", got, err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	_, err := run("nope", experiments.Options{})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// fatal prefixes the program name; the error must not carry it too.
	if strings.HasPrefix(err.Error(), "vosbench:") {
		t.Errorf("error %q carries the prefix fatal adds", err)
	}
}

func TestRunThroughput(t *testing.T) {
	opts := experiments.Options{
		Seed: 3, K32: 8, Lambda: 2,
		RuntimeUsers: 50, RuntimeEdges: 2_000,
	}
	tables, err := runWithShards("throughput", opts, []int{1, 2}, 8, experiments.TopKANNOptions{}, experiments.UDPSoakOptions{}, experiments.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "throughput" {
		t.Fatalf("tables = %v", tables)
	}
	if len(tables[0].Rows) != 2 {
		t.Fatalf("want one row per shard count, got %d", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("engine estimates diverged from sequential sketch: %v", row)
		}
	}
	// Ids without topology knobs must still dispatch through run.
	if _, err := runWithShards("nope", opts, []int{1}, 8, experiments.TopKANNOptions{}, experiments.UDPSoakOptions{}, experiments.ClusterOptions{}); err == nil {
		t.Error("unknown experiment accepted via runWithShards")
	}
}

func TestRunWindow(t *testing.T) {
	opts := experiments.Options{
		Seed: 3, K32: 8, Lambda: 2,
		RuntimeUsers: 50, RuntimeEdges: 2_000, MaxPairs: 40,
	}
	tables, err := runWithShards("window", opts, []int{1}, 2, experiments.TopKANNOptions{}, experiments.UDPSoakOptions{}, experiments.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "window" {
		t.Fatalf("tables = %v", tables)
	}
	// 3 rotation rows + parity row + 2 accuracy rows, window-parity-gated
	// inside the runner.
	if len(tables[0].Rows) != 6 {
		t.Fatalf("want 6 rows, got %d: %v", len(tables[0].Rows), tables[0].Rows)
	}
	if tables[0].Rows[3][2] != "bit-identical" {
		t.Fatalf("parity row = %v", tables[0].Rows[3])
	}
	if _, err := runWithShards("window", opts, []int{1}, 0, experiments.TopKANNOptions{}, experiments.UDPSoakOptions{}, experiments.ClusterOptions{}); err == nil {
		t.Error("window experiment accepted 0 buckets")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	opts := experiments.Options{
		Scale: 0.002, Seed: 3, K32: 20, Lambda: 2,
		TopUsers: 20, MaxPairs: 30, Checkpoints: 3,
		RuntimeUsers: 40, RuntimeEdges: 500, RuntimeKs: []int{1, 8},
	}
	tables, err := run("abl-dense", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "abl-dense" {
		t.Errorf("tables = %v", tables)
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tbl := &experiments.Table{ID: "x", Title: "t", Header: []string{"a"}}
	tbl.AddRow("1")
	if err := writeCSV(dir, tbl); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a\n1\n" {
		t.Errorf("csv content %q", data)
	}
}

func TestRunQuery(t *testing.T) {
	opts := experiments.Options{
		Seed: 3, K32: 8, Lambda: 2,
		RuntimeUsers: 50, RuntimeEdges: 2_000,
	}
	tables, err := run("query", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "query" {
		t.Fatalf("tables = %v", tables)
	}
	// 3 pair rows + 4 top-K rows, each parity-gated inside the runner.
	if len(tables[0].Rows) != 7 {
		t.Fatalf("want 7 rows, got %d: %v", len(tables[0].Rows), tables[0].Rows)
	}
}
