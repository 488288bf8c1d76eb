package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/server"
)

// fakeClock pins the windowed engine's wall clock so only event time (ts
// fields, the batch header) drives rotation in these tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time { return c.t }

// newWindowedWired builds a windowed engine behind a server, plus a
// client, with 3 one-second buckets and a pinned clock.
func newWindowedWired(t *testing.T) (*vos.Engine, *client.Client, string, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0).Add(time.Millisecond)}
	cfg := testEngineConfig()
	cfg.Window = &vos.WindowConfig{Buckets: 3, BucketDuration: time.Second, Now: clk.Now}
	eng, err := vos.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	cl := client.New(ts.URL, client.Options{Linger: -1})
	t.Cleanup(func() {
		cl.Close()
		ts.Close()
		eng.Close()
	})
	return eng, cl, ts.URL, clk
}

// TestWindowStats: /v1/stats reports window_seconds and window_buckets on
// a windowed service and omits them otherwise — through the Go client in
// both directions.
func TestWindowStats(t *testing.T) {
	_, cl, url, _ := newWindowedWired(t)
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.WindowSeconds != 3 || st.WindowBuckets != 3 {
		t.Fatalf("window stats = (%v s, %d buckets), want (3 s, 3)", st.WindowSeconds, st.WindowBuckets)
	}
	resp, err := http.Get(url + server.RouteStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if raw["window_seconds"] != 3.0 {
		t.Fatalf("window_seconds on the wire = %v, want 3", raw["window_seconds"])
	}

	// Unwindowed service: fields absent from the JSON entirely.
	_, _, plainURL := newWired(t, server.Options{}, client.Options{Linger: -1})
	resp2, err := http.Get(plainURL + server.RouteStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw2 map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&raw2); err != nil {
		t.Fatal(err)
	}
	if _, present := raw2["window_seconds"]; present {
		t.Fatal("window_seconds present on an unwindowed service")
	}
}

// TestTimestampedIngestAdvancesWindow: per-edge ts fields on the JSON
// ingest path drive event time — a batch stamped two buckets ahead
// retires the oldest bucket before the new edges land.
func TestTimestampedIngestAdvancesWindow(t *testing.T) {
	eng, _, url, _ := newWindowedWired(t)

	post := func(body string) *http.Response {
		resp, err := http.Post(url+server.RouteEdges, server.ContentTypeJSON, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Land an edge at stream time ~1000.5s (inside the first bucket).
	resp := post(`[{"user":1,"item":10,"ts":1000.5}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timestamped ingest: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	eng.Flush()
	if got := eng.Cardinality(1); got != 1 {
		t.Fatalf("cardinality after first ingest = %d, want 1", got)
	}

	// Jump event time past the whole window: user 1's edge must retire.
	resp = post(`[{"user":2,"item":20,"ts":1010.0}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advancing ingest: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	eng.Flush()
	if got := eng.Cardinality(1); got != 0 {
		t.Fatalf("user 1 still has cardinality %d after the window moved past it", got)
	}
	if got := eng.Cardinality(2); got != 1 {
		t.Fatalf("user 2 cardinality = %d, want 1", got)
	}
	info, ok := eng.WindowInfo()
	if !ok || info.Rotations == 0 {
		t.Fatalf("timestamped ingest did not rotate: %+v", info)
	}

	// Clock-skewed (late) timestamp: accepted, lands in the current
	// bucket, never unwinds the window.
	end := info.End
	resp = post(`[{"user":3,"item":30,"ts":1000.1}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late ingest: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	eng.Flush()
	if got := eng.Cardinality(3); got != 1 {
		t.Fatalf("late edge lost: cardinality = %d", got)
	}
	if info2, _ := eng.WindowInfo(); !info2.End.Equal(end) {
		t.Fatalf("late timestamp moved the window: %v -> %v", end, info2.End)
	}

	// Malformed timestamps are rejected — including values past the
	// int64-nanosecond range, which would otherwise overflow into the far
	// past and silently misbehave.
	for _, bad := range []string{
		`[{"user":4,"item":40,"ts":-5}]`,
		`[{"user":4,"item":40,"ts":1e10}]`,
		`[{"user":4,"item":40,"ts":1e300}]`,
	} {
		resp = post(bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("ts %s: HTTP %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestBatchTsHeaderAndClientAdvance: the X-Vos-Batch-Ts header timestamps
// binary batches, and client.AdvanceWindow drives it.
func TestBatchTsHeaderAndClientAdvance(t *testing.T) {
	eng, cl, url, _ := newWindowedWired(t)
	ctx := context.Background()

	// No explicit Flush: AdvanceWindow must ship the pending buffer
	// itself, so edges from earlier Ingest calls reach the server on the
	// pre-advance side of the rotation instead of being overtaken by it.
	// First a non-rotating advance (inside the current bucket): the only
	// observable effect is the flush, proving the buffer shipped.
	if err := cl.Ingest(ctx, []vos.Edge{{User: 7, Item: 70, Op: vos.Insert}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AdvanceWindow(ctx, time.Unix(1000, 500)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if got := eng.Cardinality(7); got != 1 {
		t.Fatalf("AdvanceWindow did not flush the pending buffer (cardinality %d, want 1)", got)
	}

	// Event time far ahead: retires everything, including that edge.
	if err := cl.AdvanceWindow(ctx, time.Unix(1020, 0)); err != nil {
		t.Fatal(err)
	}
	if got := eng.Cardinality(7); got != 0 {
		t.Fatalf("AdvanceWindow did not retire user 7 (cardinality %d)", got)
	}

	// A malformed header is a 400.
	req, _ := http.NewRequest(http.MethodPost, url+server.RouteEdges, strings.NewReader(`[{"user":1,"item":1}]`))
	req.Header.Set("Content-Type", server.ContentTypeJSON)
	req.Header.Set(server.HeaderBatchTs, "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad header: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestQueryPredatesWindow: an "at" instant older than the live window
// answers the typed outside_window envelope (422), mapped by the client
// onto vos.ErrOutsideWindow; instants inside the window are served; an
// unwindowed service rejects at entirely.
func TestQueryPredatesWindow(t *testing.T) {
	_, cl, url, _ := newWindowedWired(t)
	ctx := context.Background()

	if err := cl.Ingest(ctx, []vos.Edge{{User: 1, Item: 10, Op: vos.Insert}, {User: 2, Item: 10, Op: vos.Insert}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Inside the window (window is [998, 1001) at a pinned clock of
	// ~1000): served.
	if _, err := cl.SimilarityAt(ctx, 1, 2, time.Unix(1000, 0)); err != nil {
		t.Fatalf("in-window at failed: %v", err)
	}

	// An at value past the int64-nanosecond range is a 400, not a bogus
	// outside_window from the overflowed (far-past) conversion.
	resp0, err := http.Get(url + server.RouteSimilarity + "?u=1&v=2&at=1e10")
	if err != nil {
		t.Fatal(err)
	}
	if resp0.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing at: HTTP %d, want 400", resp0.StatusCode)
	}
	resp0.Body.Close()

	// Predating the window: typed 422 + sentinel mapping.
	_, err = cl.SimilarityAt(ctx, 1, 2, time.Unix(100, 0))
	if !errors.Is(err, vos.ErrOutsideWindow) {
		t.Fatalf("errors.Is(err, ErrOutsideWindow) = false, err = %v", err)
	}
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != server.CodeOutsideWindow {
		t.Fatalf("want 422/outside_window, got %v", err)
	}
	if errors.Is(err, vos.ErrClosed) || errors.Is(err, vos.ErrQueryUnavailable) {
		t.Fatal("outside_window must not map onto closed/unavailable")
	}

	// The topk body's at field takes the same path.
	body := fmt.Sprintf(`{"user":1,"candidates":[2],"n":1,"at":%d}`, 100)
	resp, err := http.Post(url+server.RouteTopK, server.ContentTypeJSON, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env server.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != server.CodeOutsideWindow {
		t.Fatalf("topk at: HTTP %d code %q, want 422 outside_window", resp.StatusCode, env.Error.Code)
	}

	// And through the client's TopKAt: served in-window, typed sentinel
	// when the instant predates the window.
	if _, err := cl.TopKAt(ctx, 1, []vos.User{2}, 1, time.Unix(1000, 0)); err != nil {
		t.Fatalf("in-window TopKAt failed: %v", err)
	}
	if _, err := cl.TopKAt(ctx, 1, []vos.User{2}, 1, time.Unix(100, 0)); !errors.Is(err, vos.ErrOutsideWindow) {
		t.Fatalf("TopKAt outside the window: %v, want ErrOutsideWindow", err)
	}

	// Unwindowed service: at is a bad_request, not outside_window.
	_, plainCl, _ := newWired(t, server.Options{}, client.Options{Linger: -1})
	_, err = plainCl.SimilarityAt(ctx, 1, 2, time.Unix(1000, 0))
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeBadRequest {
		t.Fatalf("unwindowed at: want bad_request, got %v", err)
	}
}

// TestWindowedServiceCapability pins the Windowed capability surface on
// the engine service.
func TestWindowedServiceCapability(t *testing.T) {
	ctx := context.Background()
	clk := &fakeClock{t: time.Unix(2000, 0)}
	cfg := testEngineConfig()
	cfg.Window = &vos.WindowConfig{Buckets: 2, BucketDuration: time.Second, Now: clk.Now}
	eng, err := vos.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	svc := vos.NewEngineService(eng)
	wsvc, ok := svc.(vos.Windowed)
	if !ok {
		t.Fatal("engine service does not implement vos.Windowed")
	}
	info, err := wsvc.WindowInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Buckets != 2 || info.BucketDuration != time.Second || info.Span() != 2*time.Second {
		t.Fatalf("window info %+v", info)
	}
	if !info.Contains(info.Start) || info.Contains(info.End) {
		t.Fatal("Contains must be [Start, End)")
	}
	if err := wsvc.AdvanceWindow(ctx, info.End); err != nil {
		t.Fatal(err)
	}
	info2, _ := wsvc.WindowInfo(ctx)
	if !info2.End.After(info.End) {
		t.Fatal("AdvanceWindow did not move the window")
	}

	// Unwindowed engine: the capability answers ErrNoWindow.
	plain, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	psvc := vos.NewEngineService(plain).(vos.Windowed)
	if _, err := psvc.WindowInfo(ctx); !errors.Is(err, vos.ErrNoWindow) {
		t.Fatalf("WindowInfo on unwindowed engine: %v, want ErrNoWindow", err)
	}
	if err := psvc.AdvanceWindow(ctx, time.Now()); !errors.Is(err, vos.ErrNoWindow) {
		t.Fatalf("AdvanceWindow on unwindowed engine: %v, want ErrNoWindow", err)
	}
}
