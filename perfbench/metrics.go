package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// classes are the end-to-end request classes: a write; a pair read with
// no write since the previous read; a pair read after a write; a top-K
// read.
var classes = []string{"write", "read", "read_after_write", "topk"}

// class names a sample's latency class.
func class(s sample) string {
	switch {
	case s.kind == opWrite:
		return "write"
	case s.kind == opTopK:
		return "topk"
	case s.dirty:
		return "read_after_write"
	default:
		return "read"
	}
}

// byClass groups the successful samples that keep selects by class. A
// class the main phase sent is taken from the main phase alone; the
// others come from the tail.
func byClass(samples []sample, keep func(sample) bool) map[string][]sample {
	main, tail := map[string][]sample{}, map[string][]sample{}
	for _, s := range samples {
		if !s.ok || !keep(s) {
			continue
		}
		m := main
		if s.tail {
			m = tail
		}
		m[class(s)] = append(m[class(s)], s)
	}
	for c, ss := range tail {
		if len(main[c]) == 0 {
			main[c] = ss
		}
	}
	return main
}

func all(sample) bool { return true }

// wallMs returns the samples' latencies in milliseconds.
func wallMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency())
	}
	return out
}

// cpuMs returns the samples' CPU times in milliseconds.
func cpuMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.cpu)
	}
	return out
}

// endToEnd assembles the untraced run's metrics. Each request class
// reports the median process CPU time of its requests, and setup_s the
// median CPU time of a set-up, not wall time: on a small virtual machine
// that shares its host, the hypervisor takes the CPUs away in bursts
// (from under 1% to over 25% of CPU time from one run to the next), and
// wall-clock latencies and the WAL's fsyncs move with it by more than a
// regression bound could allow. The traced run reports the wall-clock
// latencies, ungated.
func endToEnd(r *runResult) map[string]metric {
	cls := byClass(r.measured, all)
	m := map[string]metric{
		"setup_s":      {quantile(r.setups, 0.5), "s"},
		"ops_ok_ratio": {r.okRatio(), "ratio"},
		"heap_mib":     {r.heapMiB, "MiB"},
		"jaccard_mae":  {r.mae, "jaccard"},
	}
	for _, c := range classes {
		m[c+"_cpu_ms"] = metric{quantile(cpuMs(cls[c]), 0.5), "ms"}
	}
	return m
}

// perLayer assembles the traced run's metrics from its spans and the
// counters sampled around the load.
func perLayer(r *runResult) (map[string]metric, error) {
	ix := indexSpans(r.spans)
	durs := map[string][]float64{}
	self := map[string][]float64{}
	var (
		exportBytes, exports, dirtyExports, rejected float64
		dirtyReads                                   float64
	)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, s := range r.spans {
		d := us(s.End - s.Start)
		root, err := ix.root(s)
		if err != nil {
			return nil, err
		}
		parent := ix.byID[s.Parent]
		if s.Status == 429 || s.Status == 413 {
			rejected++
		}
		switch {
		case s.ID == s.Op:
			if s.Dirty && s.Name != "client.write" {
				dirtyReads++
			}
		case strings.HasPrefix(s.Name, "service."):
			durs[s.Name] = append(durs[s.Name], d)
		case strings.HasPrefix(s.Name, "gateway."):
			if root.Dirty {
				durs[s.Name] = append(durs[s.Name], d)
				self[s.Name] = append(self[s.Name], us(selfTime(s, ix.children[s.ID])))
			}
		case strings.HasPrefix(s.Name, "server/"):
			route := strings.TrimPrefix(s.Name, "server/v1/")
			if strings.HasPrefix(parent.Name, "gateway.") {
				durs["backend."+route] = append(durs["backend."+route], d)
				if route == "cluster/sketch" {
					exports++
					exportBytes += float64(s.Bytes)
					if root.Dirty {
						dirtyExports++
					}
				}
			} else {
				self[route] = append(self[route], us(selfTime(s, ix.children[s.ID])))
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50 := func(xs []float64) float64 { return quantile(xs, 0.5) }
	m := map[string]metric{
		"engine.flush_us_p50":             {p50(durs["service.flush"]), "us"},
		"service.similarity_dirty_us_p50": {p50(durs["service.similarity_dirty"]), "us"},
		"engine.snapshot_rebuilds":        {float64(r.rebuilds), "count"},
		"engine.dirty_read_ratio":         {ratio(float64(r.rebuilds), float64(r.tracedReads)), "ratio"},
		"service.similarity_clean_us_p50": {p50(durs["service.similarity"]), "us"},
		"service.topk_us_p50":             {p50(append(durs["service.topk"], durs["service.topk_dirty"]...)), "us"},
		"server.self_us_p50.similarity":   {p50(self["similarity"]), "us"},
		"server.self_us_p50.topk":         {p50(self["topk"]), "us"},
		"poscache.hit_ratio":              {r.poscacheHitRatio, "ratio"},
		"service.ingest_us_p50":           {p50(durs["service.ingest"]), "us"},
		"server.self_us_p50.edges":        {p50(self["edges"]), "us"},
		"engine.shard_backlog_max":        {float64(r.backlogMax), "edges"},
		"wal.bytes_per_edge":              {r.walBytesPerEdge, "B/edge"},
		"server.rejected":                 {rejected, "count"},
		"gateway.similarity_us_p50":       {p50(durs["gateway.similarity"]), "us"},
		"gateway.self_us_p50":             {p50(self["gateway.similarity"]), "us"},
		"gateway.backend_export_us_p50":   {p50(durs["backend.cluster/sketch"]), "us"},
		"gateway.backend_export_bytes":    {ratio(exportBytes, exports), "B"},
		"gateway.gathers_per_read":        {ratio(dirtyExports, dirtyReads), "count"},
		"gateway.backend_ingest_us_p50":   {p50(durs["backend.edges"]), "us"},
	}
	// The untraced half of the run gives each class's wall-clock
	// latencies, and the tracing overhead: traced minus untraced CPU
	// medians.
	traced := byClass(r.measured, func(s sample) bool { return s.traced })
	plain := byClass(r.measured, func(s sample) bool { return !s.traced })
	for _, c := range classes {
		for _, q := range []float64{50, 90, 99} {
			m[fmt.Sprintf("loadgen.%s_p%g_ms", c, q)] = metric{quantile(wallMs(plain[c]), q/100), "ms"}
		}
		var v float64
		if len(traced[c]) > 0 && len(plain[c]) > 0 {
			v = p50(cpuMs(traced[c])) - p50(cpuMs(plain[c]))
		}
		m["trace.overhead_"+c+"_cpu_ms"] = metric{v, "ms"}
	}
	return m, nil
}
