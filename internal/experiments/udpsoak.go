package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/server"
)

// UDPSoakOptions tunes the udpsoak experiment.
type UDPSoakOptions struct {
	// Edges is the total workload size per transport run (default 200000).
	Edges int
	// BatchSize is the edges-per-batch used by BOTH transports — one HTTP
	// POST per batch, one VOSSTRM1 frame per batch — so the per-edge cost
	// comparison is at equal batching (default 256).
	BatchSize int
}

func (o UDPSoakOptions) withDefaults() UDPSoakOptions {
	if o.Edges <= 0 {
		o.Edges = 200_000
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	return o
}

// UDPSoak measures the two ingest planes over real loopback sockets at the
// same batch size: the HTTP binary path (one POST round-trip per batch)
// and the VOSSTRM1 datagram path (fire-and-forget frames with windowed
// acks). A third row replays the datagram run under an injected fault plan
// — deterministic drops, duplicates, and reorders — to demonstrate the
// protocol's accounting: every injected fault must surface in the
// receiver's counters, exactly.
//
// Every row is parity-gated before it is reported: the sketch behind each
// transport must be bit-identical to an oracle sketch fed the same applied
// batches in-process. A clean run with nonzero gap/replay counters, a
// fault run whose counters differ from the injected plan, or any sketch
// divergence is an error, not a row — undetected loss is the one thing
// this plane must never exhibit.
func UDPSoak(opts Options, soak UDPSoakOptions) (*Table, error) {
	opts = opts.normalized()
	soak = soak.withDefaults()

	p, err := gen.ProfileByName(opts.Dataset)
	if err != nil {
		return nil, err
	}
	p.Users = opts.RuntimeUsers
	p.Items = opts.RuntimeUsers * 4
	p.Edges = uint64(soak.Edges)
	base := gen.Bipartite(p, opts.Seed)
	edges := gen.Dynamize(base, gen.PaperDynamize(len(base), opts.Seed+1))

	cfg := core.PaperConfig(int(opts.RuntimeUsers), opts.K32, opts.Lambda, uint64(opts.Seed))

	// Oracle: the same edges applied in-process, batch by batch — what
	// every clean transport run must reproduce bit for bit.
	oracle := core.MustNew(cfg)
	oracle.ProcessBatch(edges)
	want, err := oracle.MarshalBinary()
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:    "udpsoak",
		Title: fmt.Sprintf("ingest-plane soak: HTTP vs VOSSTRM1 datagrams at batch=%d over loopback", soak.BatchSize),
		Header: []string{"transport", "edges", "frames", "wall", "edges/s", "ns/edge",
			"rtt-p50", "rtt-p99", "gaps", "replays", "late", "parity"},
	}
	tbl.AddNote("dataset=%s users=%d edges=%d (after dynamize) batch=%d",
		p.Name, p.Users, soak.Edges, soak.BatchSize)
	tbl.AddNote("sketch: m=%d bits, k=%d, seed=%d", cfg.MemoryBits, cfg.SketchBits, cfg.Seed)

	httpNs, err := soakHTTP(tbl, cfg, edges, soak.BatchSize, want)
	if err != nil {
		return nil, err
	}
	udpNs, err := soakUDPClean(tbl, cfg, edges, soak.BatchSize, want)
	if err != nil {
		return nil, err
	}
	if err := soakUDPFaults(tbl, cfg, edges, soak.BatchSize); err != nil {
		return nil, err
	}

	tbl.AddNote("udp vs http per-edge cost: %.2fx (%.0f vs %.0f ns/edge)",
		httpNs/udpNs, udpNs, httpNs)
	return tbl, nil
}

// soakHTTP times the HTTP binary ingest path end to end: a real server on
// loopback, the real client, one POST round-trip per batch.
func soakHTTP(tbl *Table, cfg core.Config, edges []stream.Edge, batch int, want []byte) (nsPerEdge float64, err error) {
	eng, svc := newSoakService(cfg)
	defer eng.Close()
	srv := server.New(svc, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	cl := client.New("http://"+ln.Addr().String(), client.Options{
		BatchSize:  batch,
		Linger:     -1, // only full batches and Flush ship: deterministic framing
		MaxRetries: -1, // a failed soak is an error, not a retry
	})
	ctx := context.Background()

	t0 := time.Now()
	if err := cl.Ingest(ctx, edges); err != nil {
		return 0, fmt.Errorf("udpsoak: http ingest: %w", err)
	}
	if err := cl.Flush(ctx); err != nil {
		return 0, fmt.Errorf("udpsoak: http flush: %w", err)
	}
	elapsed := time.Since(t0)
	if err := cl.Close(); err != nil {
		return 0, err
	}

	got, err := eng.MarshalBinary()
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("udpsoak: http-ingested sketch diverged from the in-process oracle")
	}

	frames := (len(edges) + batch - 1) / batch
	nsPerEdge = float64(elapsed.Nanoseconds()) / float64(len(edges))
	tbl.AddRow("http", fmt.Sprintf("%d", len(edges)), fmt.Sprintf("%d", frames),
		elapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f", float64(len(edges))/elapsed.Seconds()),
		fmt.Sprintf("%.0f", nsPerEdge),
		"-", "-", "-", "-", "-", "yes")
	return nsPerEdge, nil
}

// soakUDPClean times the datagram path under clean delivery through the
// real UDPClient (windowed acks on), gating on a spotless ledger.
func soakUDPClean(tbl *Table, cfg core.Config, edges []stream.Edge, batch int, want []byte) (nsPerEdge float64, err error) {
	eng, svc := newSoakService(cfg)
	defer eng.Close()
	recv, runErr, err := startSoakReceiver(svc)
	if err != nil {
		return 0, err
	}
	defer func() { recv.Close(); <-runErr }()

	uc, err := client.NewUDP(recv.Addr().String(), client.UDPOptions{BatchSize: batch})
	if err != nil {
		return 0, err
	}
	ctx := context.Background()

	t0 := time.Now()
	if err := uc.Ingest(ctx, edges); err != nil {
		return 0, fmt.Errorf("udpsoak: udp ingest: %w", err)
	}
	if err := uc.Flush(ctx); err != nil {
		return 0, fmt.Errorf("udpsoak: udp flush: %w", err)
	}
	elapsed := time.Since(t0)

	cst := uc.Stats()
	rtts := uc.TakeRTTs()
	if err := uc.Close(); err != nil {
		return 0, err
	}
	if !cst.Acked {
		return 0, fmt.Errorf("udpsoak: clean run finished unacknowledged")
	}
	if cst.LastAck.Gaps != 0 || cst.LastAck.Replays != 0 {
		return 0, fmt.Errorf("udpsoak: clean loopback delivery reported gaps=%d replays=%d",
			cst.LastAck.Gaps, cst.LastAck.Replays)
	}
	rst := recv.Stats()
	if rst.GapsDetected != 0 || rst.ReplaysDropped != 0 || rst.Malformed != 0 || rst.AdmitRejected != 0 {
		return 0, fmt.Errorf("udpsoak: clean-run receiver counters not clean: %+v", rst)
	}

	got, err := eng.MarshalBinary()
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("udpsoak: udp-ingested sketch diverged from the in-process oracle")
	}

	p50, p99 := rttQuantiles(rtts)
	nsPerEdge = float64(elapsed.Nanoseconds()) / float64(len(edges))
	tbl.AddRow("udp", fmt.Sprintf("%d", len(edges)), fmt.Sprintf("%d", cst.FramesSent),
		elapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f", float64(len(edges))/elapsed.Seconds()),
		fmt.Sprintf("%.0f", nsPerEdge),
		p50.String(), p99.String(),
		"0", "0", "0", "yes")
	return nsPerEdge, nil
}

// soakUDPFaults replays the datagram run under a deterministic fault plan
// injected at the socket (frames hand-built below the client): every 10th
// frame dropped, another 10th duplicated, another 10th swapped with its
// successor. The gate is exactness: each counter must equal its injected
// count, and the sketch must equal an oracle fed exactly the batches that
// were applied.
func soakUDPFaults(tbl *Table, cfg core.Config, edges []stream.Edge, batch int) error {
	eng, svc := newSoakService(cfg)
	defer eng.Close()
	recv, runErr, err := startSoakReceiver(svc)
	if err != nil {
		return err
	}
	defer func() { recv.Close(); <-runErr }()

	conn, err := net.Dial("udp", recv.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()

	// Frame the workload: seq i carries batch i.
	var batches [][]stream.Edge
	for off := 0; off < len(edges); off += batch {
		end := off + batch
		if end > len(edges) {
			end = len(edges)
		}
		batches = append(batches, edges[off:end])
	}

	// The deterministic fault plan, as a send order over sequence numbers:
	//   seq%10 == 7  dropped (never sent)      → must confirm as a gap
	//   seq%10 == 3  sent twice, back to back  → second copy is a replay
	//   seq%10 == 5  swapped with its successor → predecessor applies late
	// Everything else is sent once, in order. The plan composes cleanly
	// because the three residues never collide and a swap's successor
	// (seq%10 == 6) is itself never dropped or duplicated.
	frames := uint64(len(batches))
	var order []uint64
	var drops, dups, swaps uint64
	for seq := uint64(0); seq < frames; seq++ {
		switch seq % 10 {
		case 7:
			drops++
		case 3:
			order = append(order, seq, seq)
			dups++
		case 5:
			if seq+1 < frames {
				order = append(order, seq+1, seq)
				swaps++
			} else {
				order = append(order, seq)
			}
		case 6:
			// Already emitted ahead of seq-1 by the swap above.
		default:
			order = append(order, seq)
		}
	}

	// Oracle and expected ledger: every non-dropped batch applies exactly
	// once. Ascending order is fine — XOR toggles and cardinality bumps
	// commute, which is why late application is sound at all.
	applied := core.MustNew(cfg)
	var appliedFrames, appliedEdges uint64
	for seq := uint64(0); seq < frames; seq++ {
		if seq%10 == 7 {
			continue
		}
		applied.ProcessBatch(batches[seq])
		appliedFrames++
		appliedEdges += uint64(len(batches[seq]))
	}

	const session = 0x1CDE2019
	var buf []byte
	send := func(seq uint64, edges []stream.Edge) error {
		frame, err := netproto.AppendDataFrame(buf[:0], session, seq, 0, edges)
		if err != nil {
			return err
		}
		buf = frame
		_, err = conn.Write(frame)
		return err
	}

	t0 := time.Now()
	for i, seq := range order {
		if err := send(seq, batches[seq]); err != nil {
			return err
		}
		if i%16 == 15 {
			time.Sleep(500 * time.Microsecond) // pace below socket-buffer depth
		}
	}
	// Trailing empty frames push every dropped sequence out of the reorder
	// window so its loss is *confirmed*, not still pending.
	trailer := uint64(netproto.WindowSize + 2)
	for i := uint64(0); i < trailer; i++ {
		if err := send(frames+i, nil); err != nil {
			return err
		}
		if i%16 == 15 {
			time.Sleep(500 * time.Microsecond)
		}
	}
	appliedFrames += trailer
	elapsed := time.Since(t0)

	// Drain: FramesApplied is the last counter a frame touches.
	deadline := time.Now().Add(10 * time.Second)
	var rst = recv.Stats()
	for rst.FramesApplied < appliedFrames {
		if time.Now().After(deadline) {
			return fmt.Errorf("udpsoak: fault run stalled at %d of %d applied frames (loopback dropped frames beyond the plan?)",
				rst.FramesApplied, appliedFrames)
		}
		time.Sleep(2 * time.Millisecond)
		rst = recv.Stats()
	}

	// Exactness gates: the plan, the whole plan, and nothing but the plan.
	if rst.GapsDetected != drops {
		return fmt.Errorf("udpsoak: injected %d drops, receiver confirmed %d gaps", drops, rst.GapsDetected)
	}
	if rst.ReplaysDropped != dups {
		return fmt.Errorf("udpsoak: injected %d duplicates, receiver dropped %d replays", dups, rst.ReplaysDropped)
	}
	if rst.LateApplied != swaps {
		return fmt.Errorf("udpsoak: injected %d reorders, receiver applied %d frames late", swaps, rst.LateApplied)
	}
	if rst.EdgesApplied != appliedEdges || rst.FramesApplied != appliedFrames {
		return fmt.Errorf("udpsoak: applied %d edges in %d frames, want %d in %d",
			rst.EdgesApplied, rst.FramesApplied, appliedEdges, appliedFrames)
	}
	got, err := eng.MarshalBinary()
	if err != nil {
		return err
	}
	wantApplied, err := applied.MarshalBinary()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, wantApplied) {
		return fmt.Errorf("udpsoak: fault-run sketch diverged from the applied-batches oracle")
	}

	tbl.AddRow("udp-faults", fmt.Sprintf("%d", appliedEdges), fmt.Sprintf("%d", appliedFrames),
		elapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f", float64(appliedEdges)/elapsed.Seconds()),
		fmt.Sprintf("%.0f", float64(elapsed.Nanoseconds())/float64(appliedEdges)),
		"-", "-",
		fmt.Sprintf("%d", rst.GapsDetected),
		fmt.Sprintf("%d", rst.ReplaysDropped),
		fmt.Sprintf("%d", rst.LateApplied),
		"yes")
	tbl.AddNote("fault plan: %d drops, %d duplicates, %d reorders over %d frames — every one surfaced, none double-applied",
		drops, dups, swaps, len(batches))
	return nil
}

// newSoakService is the state every transport run ingests into: a
// memory-only single-shard engine behind the service adapter vosd serves,
// so the HTTP and datagram rows share one apply path.
func newSoakService(cfg core.Config) (*vos.Engine, vos.SimilarityService) {
	eng := vos.MustNewEngine(vos.EngineConfig{Sketch: cfg, Shards: 1})
	return eng, vos.NewEngineService(eng)
}

// startSoakReceiver runs a Receiver on loopback sinking into svc, as vosd
// wires its datagram plane.
func startSoakReceiver(svc vos.SimilarityService) (*netproto.Receiver, chan error, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	recv := netproto.NewReceiver(pc, netproto.Config{
		Sink: func(batch []stream.Edge) error { return svc.Ingest(context.Background(), batch) },
	})
	runErr := make(chan error, 1)
	go func() { runErr <- recv.Run() }()
	return recv, runErr, nil
}

// rttQuantiles returns the p50 and p99 of the ack round-trip samples.
func rttQuantiles(rtts []time.Duration) (p50, p99 time.Duration) {
	if len(rtts) == 0 {
		return 0, 0
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	q := func(f float64) time.Duration {
		i := int(f * float64(len(rtts)-1))
		return rtts[i]
	}
	return q(0.50), q(0.99)
}
