// Command vosd is the VOS similarity daemon: a durable sharded engine
// (vos.OpenEngine) behind the versioned /v1/ HTTP API (package server).
// It is the deployment shape the module builds toward — ingest a fully
// dynamic subscription stream over the network, answer similarity and
// top-K queries during ingestion, survive restarts via WAL + checkpoints.
//
// Typical invocations:
//
//	vosd -listen :8080 -dir /var/lib/vosd                 # durable
//	vosd -listen :8080                                    # memory-only
//	vosd -dir /var/lib/vosd -sync off -checkpoint-interval 30s
//	vosd -listen :8080 -window 1h -buckets 60             # sliding window
//	vosd -listen :8080 -ann                               # approximate top-K
//	vosd -listen :8080 -udp-listen :9090                  # + datagram ingest
//
// With -window the daemon serves sliding-window similarity: queries cover
// only the last -window of stream time, advanced by the wall clock and by
// timestamped ingest (the ts fields / X-Vos-Batch-Ts header of POST
// /v1/edges), with older edges retired in O(sketch) per bucket rotation.
// Checkpoints then persist per-bucket state, so -window and -buckets must
// match the directory's previous life.
//
// With -ann the engine maintains a banded-LSH index over recovered
// sketches and POST /v1/topk accepts mode "ann" — candidates-free top-K
// probing only colliding index buckets instead of scanning a supplied
// candidate list. -ann-bands/-ann-rows shape the S-curve (see the README's
// "Approximate top-K" section); without -ann, mode "ann" answers 501.
//
// With -udp-listen the daemon additionally accepts VOSSTRM1 datagram
// ingest (package client's UDPClient, internal/netproto): a fire-and-forget
// UDP plane sharing the HTTP handlers' admission budget, with per-session
// sequence tracking so lost, reordered, or replayed batches are detected
// and counted — surfaced on /v1/stats and in protocol acks — instead of
// silently corrupting the XOR sketch. Its address is printed on stdout
// once bound ("vosd udp ingest on ...").
//
// On SIGINT/SIGTERM the daemon drains gracefully: readiness flips to 503,
// in-flight requests finish (bounded by -drain-timeout), the listener
// closes, and the engine shuts down — writing a final checkpoint when
// durable, so the next start replays no WAL. The listen address is printed
// on stdout once serving ("vosd listening on http://..."), which scripts
// and the smoke test use with -listen 127.0.0.1:0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/admit"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the exit code, so tests can drive the daemon.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vosd", flag.ExitOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:8080", "TCP listen address (use port 0 for an ephemeral port)")
		udpListen = fs.String("udp-listen", "", "UDP listen address for VOSSTRM1 datagram ingest (empty disables; use port 0 for an ephemeral port)")
		dir       = fs.String("dir", "", "durability directory (WAL + checkpoints); empty runs memory-only")

		memoryBits = fs.Uint64("memory-bits", 1<<22, "m, shared array size in bits")
		sketchBits = fs.Int("sketch-bits", 4096, "k, virtual sketch size in bits")
		seed       = fs.Uint64("seed", 1, "sketch seed (identical config required to merge or recover)")
		hashFamily = fs.String("hash-family", "classic", `position hash family: "classic" or "fast" (part of the sketch identity; must match any existing checkpoint)`)

		shards     = fs.Int("shards", 0, "ingest shards (0 = GOMAXPROCS)")
		batchSize  = fs.Int("batch-size", 0, "edges per shard batch (0 = default 256)")
		queueSize  = fs.Int("queue-size", 0, "per-shard queue capacity in edges (0 = default 8192)")
		linger     = fs.Duration("flush-interval", 0, "partial-batch linger interval (0 = default 50ms)")
		cacheUsers = fs.Int("position-cache-users", 0, "position-table cache entries (0 = default 512, negative disables)")

		window  = fs.Duration("window", 0, "sliding-window span: queries cover only the last this-much stream time (0 = retain everything)")
		buckets = fs.Int("buckets", 60, "sliding-window bucket count; rotation granularity is window/buckets (requires -window)")

		ann             = fs.Bool("ann", false, `maintain the approximate top-K index (enables POST /v1/topk mode "ann")`)
		annBands        = fs.Int("ann-bands", 0, "LSH bands b of the approximate top-K index (0 = default 64; requires -ann)")
		annRows         = fs.Int("ann-rows", 0, "LSH rows r per band (0 = default 16; requires -ann)")
		annRebandBudget = fs.Int("ann-reband-budget", 0, "stale users re-banded per ANN probe (0 = default 16384, negative unbounded; requires -ann)")

		syncMode   = fs.String("sync", "batch", `WAL fsync policy: "batch", "interval", or "off"`)
		syncEveryN = fs.Int("sync-every-n", 0, `edges between fsyncs under -sync interval (0 = default 4096)`)
		segBytes   = fs.Int64("segment-bytes", 0, "WAL segment rotation threshold (0 = default 64 MiB)")
		ckptEvery  = fs.Duration("checkpoint-interval", 0, "automatic checkpoint period (0 disables; durable only)")

		maxBatchBytes    = fs.Int64("max-batch-bytes", 0, "per-request ingest body cap (0 = default 8 MiB)")
		maxInFlightBytes = fs.Int64("max-inflight-bytes", 0, "summed worst-case in-flight ingest memory (wire + decoded) before backpressure (0 = default 128 MiB)")
		readTimeout      = fs.Duration("read-timeout", 30*time.Second, "max time to read a full request, headers and body (0 disables)")
		drainTimeout     = fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
		verbose          = fs.Bool("verbose", false, "log one line per request")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	family, err := vos.ParseHashFamily(*hashFamily)
	if err != nil {
		return fmt.Errorf("vosd: -hash-family: %w", err)
	}
	cfg := vos.EngineConfig{
		Sketch:             vos.Config{MemoryBits: *memoryBits, SketchBits: *sketchBits, Seed: *seed, Family: family},
		Shards:             *shards,
		BatchSize:          *batchSize,
		QueueSize:          *queueSize,
		FlushInterval:      *linger,
		PositionCacheUsers: *cacheUsers,
	}
	if *window > 0 {
		if *buckets < 1 {
			return fmt.Errorf("vosd: -buckets must be at least 1 (got %d)", *buckets)
		}
		if *window%time.Duration(*buckets) != 0 {
			return fmt.Errorf("vosd: -window (%v) must be a multiple of -buckets (%d)", *window, *buckets)
		}
		cfg.Window = &vos.WindowConfig{
			Buckets:        *buckets,
			BucketDuration: *window / time.Duration(*buckets),
		}
	} else if *window < 0 {
		return fmt.Errorf("vosd: -window must not be negative (got %v)", *window)
	}
	if *ann {
		cfg.ANN = &vos.ANNConfig{Bands: *annBands, Rows: *annRows, RebandBudget: *annRebandBudget}
	} else if *annBands != 0 || *annRows != 0 || *annRebandBudget != 0 {
		return fmt.Errorf("vosd: -ann-bands/-ann-rows/-ann-reband-budget require -ann")
	}
	var eng *vos.Engine
	if *dir != "" {
		d := vos.DurabilityConfig{SyncEveryN: *syncEveryN, SegmentBytes: *segBytes}
		switch *syncMode {
		case "batch":
			d.Sync = vos.SyncEveryBatch
		case "interval":
			d.Sync = vos.SyncEveryN
		case "off":
			d.Sync = vos.SyncOff
		default:
			return fmt.Errorf("vosd: -sync must be batch, interval, or off (got %q)", *syncMode)
		}
		cfg.Durability = &d
		eng, err = vos.OpenEngine(*dir, cfg)
	} else {
		eng, err = vos.NewEngine(cfg)
	}
	if err != nil {
		return err
	}

	// One admission controller for every ingest transport: the HTTP
	// handlers and the UDP receiver draw on the same in-flight byte
	// budget, so -max-inflight-bytes bounds the process, not a plane.
	adm := admit.NewController(*maxBatchBytes, *maxInFlightBytes)
	svc := vos.NewEngineService(eng)
	opts := server.Options{Admission: adm}
	if *verbose {
		opts.Logger = log.New(os.Stderr, "vosd: ", log.LstdFlags)
	}

	var udpRecv *netproto.Receiver
	udpRunErr := make(chan error, 1)
	if *udpListen != "" {
		pc, err := net.ListenPacket("udp", *udpListen)
		if err != nil {
			eng.Close()
			return fmt.Errorf("vosd: -udp-listen: %w", err)
		}
		udpRecv = netproto.NewReceiver(pc, netproto.Config{
			Sink:  func(edges []vos.Edge) error { return svc.Ingest(context.Background(), edges) },
			Admit: adm,
		})
		go func() { udpRunErr <- udpRecv.Run() }()
		opts.UDPStats = udpRecv.Stats
	}
	srv := server.New(svc, opts)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		if udpRecv != nil {
			udpRecv.Close()
		}
		eng.Close()
		return err
	}
	// ReadTimeout matters for more than hygiene: handleEdges charges the
	// in-flight ingest byte budget up front, so without a body deadline a
	// handful of clients trickling bytes could hold the whole budget and
	// starve ingest behind 429s. The timeout bounds how long any one
	// request can sit on its slice of the budget.
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	windowDesc := "off"
	if *window > 0 {
		windowDesc = fmt.Sprintf("%v/%d buckets", *window, *buckets)
	}
	fmt.Fprintf(stdout, "vosd listening on http://%s (shards=%d, durable=%v, window=%s, ann=%v)\n",
		ln.Addr(), eng.Shards(), *dir != "", windowDesc, *ann)
	if udpRecv != nil {
		fmt.Fprintf(stdout, "vosd udp ingest on %s (VOSSTRM1 datagrams)\n", udpRecv.Addr())
	}

	// Periodic checkpoints bound restart replay time; each one truncates
	// the covered WAL prefix.
	stopCkpt := make(chan struct{})
	if *ckptEvery > 0 && *dir != "" {
		go func() {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-t.C:
					if pos, err := eng.Checkpoint(); err != nil {
						log.Printf("vosd: periodic checkpoint: %v", err)
					} else if *verbose {
						log.Printf("vosd: checkpoint at position %d", pos)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		close(stopCkpt)
		if udpRecv != nil {
			udpRecv.Close()
		}
		eng.Close()
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "vosd: %v — draining\n", s)
	}

	// Graceful shutdown: out of rotation, finish in-flight work, close the
	// listener, then close the engine (final checkpoint when durable). The
	// UDP plane closes first — Close waits for the frame being applied, so
	// no datagram batch races the engine teardown.
	close(stopCkpt)
	if udpRecv != nil {
		if err := udpRecv.Close(); err != nil {
			log.Printf("vosd: udp close: %v", err)
		}
		if err := <-udpRunErr; err != nil {
			log.Printf("vosd: udp receiver: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("vosd: drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("vosd: http shutdown: %v", err)
	}
	if err := eng.Close(); err != nil {
		return fmt.Errorf("vosd: engine close: %w", err)
	}
	fmt.Fprintln(stdout, "vosd: stopped")
	return nil
}
