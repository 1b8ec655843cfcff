package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"edgekg/internal/experiments"
	"edgekg/internal/netserve"
	"edgekg/internal/serve"
	"edgekg/internal/shard"
)

// fleetWorkers is the fleet-http worker count; snapshotEvery the
// failover snapshot cadence the repository's failover drills use.
const (
	fleetWorkers  = 2
	snapshotEvery = 8
)

// fleet is the fleet-http deployment: in-process workers, each a
// serve.Server behind a netserve.Handler on a loopback listener, and the
// router over their clients.
type fleet struct {
	router  *shard.Router
	clients []*netserve.Client
	closers []func()
}

func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// deployFleet starts the workers, waits until each answers its health
// probe, and builds the router with failover armed. In a traced run the
// worker handlers and the router's backends are wrapped in timers.
func (b *bench) deployFleet(bb *backbone) (*fleet, error) {
	f := &fleet{}
	// Two servers in one process would share the process-wide FLOPs
	// counter; like separate worker processes, they run unmetered.
	cfg := streamConfig(bb.scale, false)
	cfg.Unmetered = true
	t0 := time.Now()
	backends := make([]shard.Backend, fleetWorkers)
	for w := range backends {
		srv, err := serve.NewServer(bb.det, b.cfg.cameras, cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.closers = append(f.closers, srv.Shutdown)
		h, err := netserve.NewHandler(srv, netserve.Options{FrameSize: bb.env.Space.PixDim()})
		if err != nil {
			f.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		hs := &http.Server{Handler: b.timedHandler(h)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			hs.Serve(ln)
		}()
		f.closers = append(f.closers, func() {
			hs.Close()
			<-done
		})
		c := netserve.NewClient("http://" + ln.Addr().String())
		f.clients = append(f.clients, c)
		backends[w] = b.timedBackend(shard.NetBackend(c, b.cfg.cameras))
	}
	b.deploy = append(b.deploy, time.Since(t0))
	t1 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range f.clients {
		if _, err := c.WaitReady(ctx); err != nil {
			f.close()
			return nil, err
		}
	}
	b.ready = append(b.ready, time.Since(t1))
	router, err := shard.New(backends, shard.Config{SnapshotEvery: snapshotEvery})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = router
	return f, nil
}

// runFleet is fleet-http: the shipped quick model, static KG, eight
// cameras routed over loopback HTTP to two workers.
func runFleet(b *bench) error {
	scale := experiments.QuickScale()
	var in *inputs
	var f *fleet
	bb, err := b.setUp(scale, func(bb *backbone) (err error) {
		in, err = makeInputs(bb, b.cfg.cameras, b.cfg.pool, b.cfg.seed, nil)
		return err
	}, func(bb *backbone) (func(), error) {
		var err error
		f, err = b.deployFleet(bb)
		if err != nil {
			return nil, err
		}
		return f.close, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	keys := make([]string, b.cfg.cameras)
	for c := range keys {
		keys[c] = fmt.Sprintf("cam-%d", c)
	}
	ctx := context.Background()
	err = b.pooled(in, func(cam, i int) (int, float64, error) {
		rep, err := f.router.Submit(ctx, keys[cam], in.frames[cam][i].Data())
		return rep.Seq, rep.Score, err
	})
	if err != nil {
		return err
	}
	if n := f.router.Shed(); n > 0 {
		b.fail("router shed %d submits", n)
	}
	// The per-stream rows, not the report's total: an unbudgeted worker
	// refreshes that total only when a stream settles an adaptation
	// round, so on a static KG it stays at zero.
	var resident int64
	for _, c := range f.clients {
		m, err := c.Mem(ctx)
		if err != nil {
			return err
		}
		for _, row := range m.Streams {
			resident += row.Resident
		}
	}
	b.layer["flops.ledger_bytes_per_stream"] = float64(resident) / float64(b.cfg.cameras)
	b.measureHeap(func() {
		f.close()
		f = nil
	})
	if b.cfg.trace {
		frames := float64(b.attempted.Load())
		submit, client, handler := b.meanLatencyUs(), b.span("client").meanUs(), b.span("handler").meanUs()
		export := b.span("export")
		b.layer["shard.submit_us"] = submit
		b.layer["netserve.client_us"] = client
		b.layer["netserve.handler_us"] = handler
		b.layer["netserve.transport_us"] = client - handler
		b.layer["netserve.request_bytes"] = b.span("handler").meanBytes()
		b.layer["netserve.reply_bytes"] = b.span("reply").meanBytes()
		b.layer["shard.snapshot_ms"] = export.meanUs() / 1e3
		b.layer["shard.snapshot_bytes"] = export.meanBytes()
		b.layer["shard.snapshots_per_kframe"] = float64(export.n) * 1000 / frames
		snapshotUs := float64(export.total.Nanoseconds()) / 1e3 / frames
		b.note("fleet breakdown per frame: handler %.1f µs + transport %.1f µs + snapshot %.1f µs = %.1f%% of shard.submit_us %.1f µs; transport is %.1f%% of it",
			handler, client-handler, snapshotUs, 100*(client+snapshotUs)/submit, submit, 100*(client-handler)/submit)
		b.replayStages(bb.det, in.frames[0])
	}
	return nil
}

// timedBackend times the router's calls into one worker client: frame
// submits, and snapshot exports with their size.
type timedBackend struct {
	shard.Backend
	submit, export *span
}

func (b *bench) timedBackend(be shard.Backend) shard.Backend {
	if !b.cfg.trace {
		return be
	}
	return timedBackend{Backend: be, submit: b.span("client"), export: b.span("export")}
}

func (t timedBackend) SubmitFrame(ctx context.Context, slot int, frame []float64) (netserve.FrameReply, error) {
	t0 := time.Now()
	rep, err := t.Backend.SubmitFrame(ctx, slot, frame)
	t.submit.add(time.Since(t0), 0)
	return rep, err
}

func (t timedBackend) ExportRaw(ctx context.Context, slot int) ([]byte, error) {
	t0 := time.Now()
	state, err := t.Backend.ExportRaw(ctx, slot)
	t.export.add(time.Since(t0), len(state))
	return state, err
}

// timedHandler times a worker's frame requests inside its HTTP handler
// and counts their body bytes each way.
func (b *bench) timedHandler(h http.Handler) http.Handler {
	if !b.cfg.trace {
		return h
	}
	handler, reply := b.span("handler"), b.span("reply")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/frames") {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		handler.add(time.Since(t0), int(r.ContentLength))
		reply.add(0, cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}
