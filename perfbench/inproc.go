package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"edgekg/internal/dataset"
	"edgekg/internal/experiments"
	"edgekg/internal/serve"
	"edgekg/internal/tensor"
)

// inputs are one run's camera frames, a pure function of --seed.
type inputs struct {
	frames [][]*tensor.Tensor // [camera][frame]
	labels [][]bool
	// shift[c] is camera c's first post-shift frame (len(frames[c]) when
	// its trend never shifts).
	shift []int
	// ref[c][i] is the frozen backbone's own ScoreVideo of frame i,
	// computed apart from the serving path.
	ref [][]float64
	// served[c][i] holds the served score of frame i from one pass.
	served [][]float64
}

// makeInputs synthesises n frames per camera: the trained class until
// shift(c), then the shifted class, each frame anomalous with
// probability anomalyRate. shift nil means no shift.
func makeInputs(bb *backbone, cams, n int, seed int64, shift func(cam int) int) (*inputs, error) {
	in := &inputs{
		frames: make([][]*tensor.Tensor, cams),
		labels: make([][]bool, cams),
		shift:  make([]int, cams),
		ref:    make([][]float64, cams),
		served: make([][]float64, cams),
	}
	for c := 0; c < cams; c++ {
		s := n
		if shift != nil && shift(c) < n {
			s = shift(c)
		}
		phases := []dataset.Phase{{Class: trainedClass, Steps: s}}
		if s < n {
			phases = append(phases, dataset.Phase{Class: shiftedClass, Steps: n - s})
		}
		st, err := dataset.NewStream(bb.env.Gen, dataset.Schedule{Phases: phases}, anomalyRate, rand.New(rand.NewSource(seed*1000+int64(c))))
		if err != nil {
			return nil, fmt.Errorf("camera %d schedule: %w", c, err)
		}
		in.shift[c] = s
		in.frames[c] = make([]*tensor.Tensor, n)
		in.labels[c] = make([]bool, n)
		in.ref[c] = make([]float64, n)
		in.served[c] = make([]float64, n)
		for i := 0; i < n; i++ {
			pix, anomalous, _ := st.Next()
			in.frames[c][i] = pix
			in.labels[c][i] = anomalous
			in.ref[c][i] = bb.det.ScoreVideo(pix.Reshape(1, pix.Size()))[0]
		}
	}
	return in, nil
}

// streamConfig is the per-stream deployment cmd/serve uses at a scale:
// the preset's monitor and adapter, a 64-score history, and when adaptive
// a round every 32 frames swapped in 8 frames later.
func streamConfig(scale experiments.Scale, adaptive bool) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Stream.MonitorN = scale.MonitorN
	cfg.Stream.MonitorLag = scale.MonitorLag
	cfg.Stream.Adapt = scale.Adapt
	cfg.Stream.ScoreHistory = 64
	cfg.Stream.AdaptEveryFrames = 0
	if adaptive {
		cfg.Stream.AdaptEveryFrames = 32
		cfg.Stream.AdaptLagFrames = 8
	}
	cfg.BaseSeed = scale.Seed + 100
	return cfg
}

// inProcess deploys one serve.Server over the backbone and returns a
// submit-and-wait call per camera.
type inProcess struct {
	srv     *serve.Server
	results []<-chan serve.Result
}

func (b *bench) deployInProcess(bb *backbone, cfg serve.Config) (*inProcess, error) {
	srv, err := serve.NewServer(bb.det, b.cfg.cameras, cfg)
	if err != nil {
		return nil, err
	}
	p := &inProcess{srv: srv, results: make([]<-chan serve.Result, b.cfg.cameras)}
	for c := range p.results {
		if p.results[c], err = srv.Results(c); err != nil {
			srv.Shutdown()
			return nil, err
		}
	}
	return p, nil
}

// score submits one frame to a camera's stream and waits for its result.
func (p *inProcess) score(cam int, frame *tensor.Tensor) (serve.Result, error) {
	if err := p.srv.Submit(cam, frame); err != nil {
		return serve.Result{}, err
	}
	r, ok := <-p.results[cam]
	if !ok {
		return r, fmt.Errorf("stream %d closed", cam)
	}
	return r, r.Err
}

// totals sums the streams' statistics; the barrier joins any in-flight
// adaptation round first.
func (p *inProcess) totals() (serve.Stats, error) {
	var t serve.Stats
	for c := 0; c < p.srv.NumStreams(); c++ {
		st, err := p.srv.StreamStats(c)
		if err != nil {
			return t, err
		}
		t.AdaptRounds += st.AdaptRounds
		t.TriggeredRounds += st.TriggeredRounds
		t.PrunedNodes += st.PrunedNodes
		t.CreatedNodes += st.CreatedNodes
		t.ResidentBytes += st.ResidentBytes
	}
	return t, nil
}

// runSteady is cams-steady: the paper-shaped model with its KG fixed,
// eight cameras in one process.
func runSteady(b *bench) error {
	scale := experiments.FullScale()
	scale.TrainSteps = b.cfg.trainSteps
	var in *inputs
	var p *inProcess
	bb, err := b.setUp(scale, func(bb *backbone) (err error) {
		in, err = makeInputs(bb, b.cfg.cameras, b.cfg.pool, b.cfg.seed, nil)
		return err
	}, func(bb *backbone) (func(), error) {
		t0 := time.Now()
		var err error
		p, err = b.deployInProcess(bb, streamConfig(bb.scale, false))
		b.deploy = append(b.deploy, time.Since(t0))
		if err != nil {
			return nil, err
		}
		return p.srv.Shutdown, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if p != nil {
			p.srv.Shutdown()
		}
	}()
	err = b.pooled(in, func(cam, i int) (int, float64, error) {
		r, err := p.score(cam, in.frames[cam][i])
		return r.Seq, r.Score, err
	})
	if err != nil {
		return err
	}
	tot, err := p.totals()
	if err != nil {
		return err
	}
	b.layer["flops.ledger_bytes_per_stream"] = float64(tot.ResidentBytes) / float64(b.cfg.cameras)
	b.measureHeap(func() {
		p.srv.Shutdown()
		p = nil
	})
	if b.cfg.trace {
		b.replayStages(bb.det, in.frames[0])
		b.layer["serve.overhead_us"] = b.meanLatencyUs() - b.layer["core.score_us"]
	}
	return nil
}

// warmupPasses is how many untimed passes over the frame pools precede
// the timed window: two fill every monitor window and score history.
const warmupPasses = 2

// pooled drives a static-KG workload: untimed passes over every camera's
// frame pool, then timed rounds that each replay it. Every reply
// must carry the camera's next sequence number and exactly the frozen
// backbone's own score of the frame.
func (b *bench) pooled(in *inputs, submit func(cam, i int) (seq int, score float64, err error)) error {
	next := make([]int, b.cfg.cameras)
	round := -1
	do := func(cam, i int) error {
		seq, score, err := submit(cam, i)
		if err != nil {
			return err
		}
		if seq != next[cam] {
			b.fail("camera %d: reply sequence %d, want %d", cam, seq, next[cam])
		}
		next[cam] = seq + 1
		if math.Float64bits(score) != math.Float64bits(in.ref[cam][i]) {
			b.fail("camera %d frame %d: served score %v, frozen backbone scores %v", cam, seq, score, in.ref[cam][i])
		}
		if round == 0 {
			in.served[cam][i] = score
		}
		return nil
	}
	for pass := 0; pass < warmupPasses; pass++ {
		if err := b.drive(b.cfg.pool, do); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	b.markHeap()
	err := b.timed(func(r int) error {
		round = r
		return b.drive(b.cfg.pool, do)
	})
	if err != nil {
		return err
	}
	if b.failed.Load() == 0 {
		want := b.cfg.pool * (warmupPasses + len(b.rounds))
		for c, n := range next {
			if n != want {
				b.fail("camera %d: trace holds %d frames, want %d", c, n, want)
			}
		}
	}
	var scores []float64
	var labels []bool
	for c := range in.served {
		scores = append(scores, in.served[c]...)
		labels = append(labels, in.labels[c]...)
	}
	b.auc = rocAUC(scores, labels)
	return nil
}

// runDrift is cams-drift: the shipped quick model adapting its KG per
// camera. Each timed round is one episode: a fresh deployment over the
// backbone whose cameras each play the same drift schedule, so
// adaptation stays busy through the whole run and every episode must
// reproduce the warm-up episode's score traces exactly.
func runDrift(b *bench) error {
	scale := experiments.QuickScale()
	cfg := streamConfig(scale, true)
	n := b.cfg.pool
	var in *inputs
	var p *inProcess
	bb, err := b.setUp(scale, func(bb *backbone) (err error) {
		in, err = makeInputs(bb, b.cfg.cameras, n, b.cfg.seed, func(c int) int { return driftAt + c%driftGroup*driftStagger })
		return err
	}, func(bb *backbone) (func(), error) {
		t0 := time.Now()
		var err error
		p, err = b.deployInProcess(bb, cfg)
		b.deploy = append(b.deploy, time.Since(t0))
		if err != nil {
			return nil, err
		}
		return p.srv.Shutdown, nil
	})
	if err != nil {
		return err
	}
	// Each timed round redeploys; the deferred call shuts the newest down.
	defer func() {
		if p != nil {
			p.srv.Shutdown()
		}
	}()

	trace := in.served
	adaptedAfter := make([]int, b.cfg.cameras)
	episode := func() (uint64, error) {
		for c := range adaptedAfter {
			adaptedAfter[c] = 0
		}
		err := b.drive(n, func(cam, i int) error {
			r, err := p.score(cam, in.frames[cam][i])
			if err != nil {
				return err
			}
			if r.Seq != i {
				b.fail("camera %d: reply sequence %d, want %d", cam, r.Seq, i)
			}
			if !(r.Score >= 0 && r.Score <= 1) {
				b.fail("camera %d frame %d: score %v is not a probability", cam, i, r.Score)
			}
			trace[cam][i] = r.Score
			if r.AdaptApplied && r.Adapt.Triggered && i > in.shift[cam] {
				adaptedAfter[cam]++
			}
			return nil
		})
		return digest(trace), err
	}

	want, err := episode()
	if err != nil {
		return fmt.Errorf("warm-up episode: %w", err)
	}
	b.note("score-trace digest %016x", want)
	var served, frozen float64
	post := 0
	for c := range trace {
		s := in.shift[c]
		if s >= n {
			continue
		}
		if adaptedAfter[c] == 0 {
			b.fail("camera %d: no adaptation round triggered after its shift at frame %d", c, s)
		}
		served += rocAUC(trace[c][s:], in.labels[c][s:])
		frozen += rocAUC(in.ref[c][s:], in.labels[c][s:])
		post++
	}
	if post == 0 {
		return fmt.Errorf("episode of %d frames ends before the first shift at frame %d", n, driftAt)
	}
	b.auc, frozen = served/float64(post), frozen/float64(post)
	if !(b.auc > frozen) {
		b.fail("post-shift AUC %.4f served does not exceed the frozen backbone's %.4f", b.auc, frozen)
	}
	b.note("post-shift AUC: served %.4f, frozen backbone %.4f", b.auc, frozen)

	err = b.timed(func(r int) error {
		p.srv.Shutdown()
		var err error
		if p, err = b.deployInProcess(bb, cfg); err != nil {
			return err
		}
		d, err := episode()
		if err != nil {
			return err
		}
		if d != want {
			b.fail("episode %d: score-trace digest %016x, warm-up episode %016x", r, d, want)
		}
		return nil
	})
	if err != nil {
		return err
	}
	tot, err := p.totals()
	if err != nil {
		return err
	}
	b.layer["serve.rounds"] = float64(tot.AdaptRounds)
	b.layer["serve.rounds_triggered"] = float64(tot.TriggeredRounds)
	b.layer["kg.nodes_pruned"] = float64(tot.PrunedNodes)
	b.layer["kg.nodes_created"] = float64(tot.CreatedNodes)
	b.layer["flops.ledger_bytes_per_stream"] = float64(tot.ResidentBytes) / float64(b.cfg.cameras)
	b.note("episode: %d rounds, %d triggered, %d nodes pruned, %d created", tot.AdaptRounds, tot.TriggeredRounds, tot.PrunedNodes, tot.CreatedNodes)
	b.markHeap()
	b.measureHeap(func() {
		p.srv.Shutdown()
		p = nil
	})
	if b.cfg.trace {
		b.replayStages(bb.det, in.frames[0])
		b.layer["serve.overhead_us"] = b.meanLatencyUs() - b.layer["core.score_us"]
		replayed, err := b.replayAdaptive(bb, cfg, in.frames[0])
		if err != nil {
			return err
		}
		for i := range replayed {
			if math.Float64bits(replayed[i]) != math.Float64bits(trace[0][i]) {
				b.fail("camera 0 frame %d: replayed adaptive score %v, served %v", i, replayed[i], trace[0][i])
				break
			}
		}
	}
	return nil
}

// digest hashes every camera's score trace, bit for bit.
func digest(traces [][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, tr := range traces {
		for _, v := range tr {
			bits := math.Float64bits(v)
			for k := range buf {
				buf[k] = byte(bits >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
