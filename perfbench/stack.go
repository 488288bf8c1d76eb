package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/cluster"
	"github.com/vossketch/vos/server"
)

// A stack is the serving system under test, in this process: one vosd
// node (an engine behind server.New) or a vosgw gateway (cluster.Gateway
// behind gw.Handler(server.New(gw))) over K such nodes. Every node is
// durable: a 2-shard engine whose WAL fsyncs every batch.

// listener is one HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close() // closes the listener and every connection
	<-l.done
}

// node is one engine-backed server.
type node struct {
	eng *vos.Engine
	svc *tracedService // nil when untraced
	dir string
	lis *listener
}

func startNode(pr params, dir string, t *tracer) (*node, error) {
	eng, err := vos.OpenEngine(dir, vos.EngineConfig{
		Sketch:     pr.sketch,
		Shards:     pr.shards,
		Durability: &vos.DurabilityConfig{Sync: vos.SyncEveryBatch},
	})
	if err != nil {
		return nil, err
	}
	n := &node{eng: eng, dir: dir}
	svc := vos.NewEngineService(eng)
	var h http.Handler
	if t != nil {
		n.svc = &tracedService{inner: svc.(exporter), t: t, name: "service", eng: eng}
		h = t.handler("server", server.New(n.svc, server.Options{}))
	} else {
		h = server.New(svc, server.Options{})
	}
	if n.lis, err = serve(h); err != nil {
		eng.Close()
		return nil, err
	}
	return n, nil
}

func (n *node) close() error {
	n.lis.close()
	return n.eng.Close()
}

// stack is what a workload drives: the URL the load generator talks to,
// plus handles for the gates and the per-layer counters.
type stack struct {
	url   string
	nodes []*node
	gw    *cluster.Gateway
	gwLis *listener
}

// httpClient is the transport of every client in the run: keep-alive
// loopback connections, and trace propagation when traced.
func httpClient(t *tracer) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	if t != nil {
		rt = transport{base: rt}
	}
	return &http.Client{Transport: rt, Timeout: 60 * time.Second}
}

// buildStack starts the stack under dir and preloads it, ending with a
// flush so every preloaded edge is applied.
func buildStack(pr params, clustered bool, dir string, t *tracer, preload []vos.Edge) (*stack, error) {
	st := &stack{}
	k := 1
	if clustered {
		k = pr.nodes
	}
	for i := 0; i < k; i++ {
		n, err := startNode(pr, filepath.Join(dir, fmt.Sprintf("node%d", i)), t)
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	// The preload goes straight into the engines, routed the way the
	// gateway routes: the state is the one ingesting through the serving
	// path would build, without a set-up dominated by HTTP round trips.
	ring := &cluster.Ring{Version: 1, RouteSeed: 7}
	for _, n := range st.nodes {
		ring.Shards = append(ring.Shards, n.lis.url)
	}
	parts := make([][]vos.Edge, k)
	for _, e := range preload {
		i := ring.ShardOf(e.User)
		parts[i] = append(parts[i], e)
	}
	for i, n := range st.nodes {
		if err := n.eng.ProcessBatch(parts[i]); err != nil {
			st.close()
			return nil, err
		}
	}
	for _, n := range st.nodes {
		n.eng.Flush()
		if n.svc != nil {
			n.svc.settle()
		}
	}
	if !clustered {
		st.url = st.nodes[0].lis.url
		return st, nil
	}
	// The gateway's backend clients keep vosgw's defaults; only the
	// transport is the run's.
	gw, err := cluster.New(ring, cluster.Options{Client: client.Options{HTTPClient: httpClient(t)}})
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw
	var svc vos.SimilarityService = gw
	if t != nil {
		svc = &tracedService{inner: gw, t: t, name: "gateway"}
	}
	var h http.Handler = gw.Handler(server.New(svc, server.Options{}))
	if t != nil {
		h = t.handler("gwserver", h)
	}
	if st.gwLis, err = serve(h); err != nil {
		st.close()
		return nil, err
	}
	st.url = st.gwLis.url
	return st, nil
}

func (st *stack) close() error {
	var errs []error
	if st.gwLis != nil {
		st.gwLis.close()
	}
	if st.gw != nil {
		errs = append(errs, st.gw.Close())
	}
	for _, n := range st.nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(errs...)
}

// walBytes is the size of every WAL segment of the stack's nodes.
func (st *stack) walBytes() (int64, error) {
	var total int64
	for _, n := range st.nodes {
		err := filepath.WalkDir(n.dir, func(_ string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// poscache sums the nodes' position-cache counters.
func (st *stack) poscache() (hits, misses uint64) {
	for _, n := range st.nodes {
		if s, ok := n.eng.PositionCacheStats(); ok {
			hits += s.Hits
			misses += s.Misses
		}
	}
	return hits, misses
}
