package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/experiments"
)

// config sizes one run. The workload table in configFor holds the sizes
// the benchmark is defined with; the self-test shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// cameras is the stream count. pool is, on cams-steady and
	// fleet-http, the frames each camera sends per round (rounds replay
	// the pool); on cams-drift, the length of one episode's schedule.
	cameras, pool int
	// setups is how many times a run builds the system; setup_s is the
	// median of the builds' CPU times.
	setups int
	// trainSteps is cams-steady's training length, cut from the paper
	// preset's so that its set-up stays short.
	trainSteps int
	// replay is the minimum wall time of the traced run's stage replay.
	replay time.Duration
}

// Drift schedule of cams-drift: camera c's trend shifts from the trained
// class to the shifted one at frame driftAt + (c mod driftGroup)·
// driftStagger of each episode (the paper's Fig. 5(B) strong shift).
const (
	driftAt      = 64
	driftStagger = 16
	driftGroup   = 8
	// anomalyRate is every camera's share of anomalous frames.
	anomalyRate = 0.5
)

var (
	trainedClass = concept.Stealing
	shiftedClass = concept.Explosion
)

func configFor(name string) (config, error) {
	switch name {
	case "cams-steady":
		// Paper shapes (experiments.FullScale) with training cut from 800
		// to 80 steps, so that set-up stays near 2 s; AUC stays ≈0.9.
		return config{workload: name, cameras: 8, pool: 128, setups: 5, trainSteps: 80, replay: time.Second}, nil
	case "cams-drift":
		// 32 cameras per episode: how often adaptation triggers depends on
		// each camera's frames, and the sum over 32 varies little by seed.
		return config{workload: name, cameras: 32, pool: 320, setups: 9, replay: time.Second}, nil
	case "fleet-http":
		return config{workload: name, cameras: 8, pool: 128, setups: 9, replay: time.Second}, nil
	}
	return config{}, fmt.Errorf("unknown workload %q (want cams-steady, cams-drift or fleet-http)", name)
}

func run(cfg config) (*result, error) {
	b := newBench(cfg)
	var err error
	switch cfg.workload {
	case "cams-steady":
		err = runSteady(b)
	case "cams-drift":
		err = runDrift(b)
	case "fleet-http":
		err = runFleet(b)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	return b.finish(), nil
}

// roundStat is one timed round: frames sent, wall time, this process's
// CPU time, and the median and 99th percentile of its frame latencies.
type roundStat struct {
	frames    int
	wall, cpu time.Duration
	p50, p99  float64
}

// bench carries one run's measurements. Workloads fill it; finish turns
// it into the result line.
type bench struct {
	cfg     config
	drivers int

	// recording is set for the timed window only: latency samples,
	// attempted/failed counts and spans are taken while it is set.
	recording atomic.Bool
	// lat[d] holds driver d's per-frame latencies in ms for the current
	// round, sized for a whole round so that recording allocates nothing;
	// latSum and latN accumulate them over the timed window.
	lat       [][]float64
	latSum    float64
	latN      int
	rounds    []roundStat
	attempted atomic.Int64
	failed    atomic.Int64
	ms0, ms1  runtime.MemStats

	setupWall, setupCPU, train, deploy, ready []time.Duration

	heapLive      uint64
	heapPerStream float64
	auc           float64

	// layer holds the per-layer figures the workload measured; spans
	// the traced run's timers around calls into a layer.
	layer map[string]float64
	spans map[string]*span

	mu    sync.Mutex
	errs  []string
	notes []string
}

func newBench(cfg config) *bench {
	drivers := runtime.GOMAXPROCS(0)
	if drivers > cfg.cameras {
		drivers = cfg.cameras
	}
	b := &bench{cfg: cfg, drivers: drivers, layer: map[string]float64{}, rounds: make([]roundStat, 0, 1<<12)}
	b.lat = make([][]float64, drivers)
	for d := range b.lat {
		b.lat[d] = make([]float64, 0, cfg.cameras*cfg.pool)
	}
	if cfg.trace {
		b.spans = map[string]*span{}
	}
	return b
}

// fail records a failed output check.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.errs) < 20 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// span returns the named timer of the traced run, or nil (a no-op timer)
// in an untraced run.
func (b *bench) span(name string) *span {
	if b.spans == nil {
		return nil
	}
	s := b.spans[name]
	if s == nil {
		s = &span{on: &b.recording}
		b.spans[name] = s
	}
	return s
}

// span accumulates the calls timed at one layer boundary during the
// timed window.
type span struct {
	on    *atomic.Bool
	mu    sync.Mutex
	n     int64
	total time.Duration
	bytes int64
}

func (s *span) add(d time.Duration, bytes int) {
	if s == nil || !s.on.Load() {
		return
	}
	s.mu.Lock()
	s.n++
	s.total += d
	s.bytes += int64(bytes)
	s.mu.Unlock()
}

func (s *span) meanUs() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.total.Nanoseconds()) / float64(s.n) / 1e3
}

func (s *span) meanBytes() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.bytes) / float64(s.n)
}

// backbone is one trained detector, deployed (frozen), with the
// substrate it was built on.
type backbone struct {
	scale experiments.Scale
	env   *experiments.Env
	det   *core.Detector
}

func buildBackbone(scale experiments.Scale) (*backbone, error) {
	env, err := experiments.NewEnv(scale)
	if err != nil {
		return nil, err
	}
	det, _, err := env.BuildTrainedDetector(trainedClass, scale.Seed+1)
	if err != nil {
		return nil, err
	}
	det.Deploy()
	return &backbone{scale: scale, env: env, det: det}, nil
}

// setUp builds the system cfg.setups times — environment, backbone
// training, deployment — and keeps the last build. deploy brings up the
// serving tier over a backbone, keeps it where the workload finds it, and
// returns its teardown; earlier builds are torn down at once. Between
// training and deploying the kept build, prepare makes the inputs and
// reference scores, which do not count as set-up.
//
// Each build records its wall time and the CPU time (user+sys) this
// process spent on it. setup_s reports the CPU time: on a shared host the
// wall time also counts the time the host gave the process no CPU, and
// moved by a third between sets of runs of the same code (README.md).
func (b *bench) setUp(scale experiments.Scale, prepare func(*backbone) error, deploy func(*backbone) (func(), error)) (*backbone, error) {
	for i := 0; i < b.cfg.setups; i++ {
		// Each build starts from a settled heap, so that none pays for
		// collecting the garbage of the one before.
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		bb, err := buildBackbone(scale)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		train, trainCPU := time.Since(t0), cpuTime()-c0
		last := i == b.cfg.setups-1
		if last {
			if err := prepare(bb); err != nil {
				return nil, err
			}
		}
		t1, c1 := time.Now(), cpuTime()
		teardown, err := deploy(bb)
		if err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		b.train = append(b.train, train)
		b.setupWall = append(b.setupWall, train+time.Since(t1))
		b.setupCPU = append(b.setupCPU, trainCPU+cpuTime()-c1)
		if last {
			return bb, nil
		}
		teardown()
	}
	return nil, fmt.Errorf("set-up count %d must be ≥1", b.cfg.setups)
}

// settledHeap returns the live heap after garbage collection has run to
// completion twice (the second cycle also empties sync.Pool victims).
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// markHeap takes the settled heap while the deployment is live, at a
// point every run reaches after the same frames, so the figure does not
// depend on how many frames the timed window managed.
func (b *bench) markHeap() { b.heapLive = settledHeap() }

// measureHeap records the heap the deployment held per camera at
// markHeap: that reading less the settled heap once drop has shut the
// deployment down and released every reference to it.
func (b *bench) measureHeap(drop func()) {
	drop()
	b.heapPerStream = (float64(b.heapLive) - float64(settledHeap())) / float64(b.cfg.cameras)
	if b.heapPerStream <= 0 {
		b.fail("heap per stream %.0f B: the deployment holds no heap", b.heapPerStream)
	}
}

// drive runs one closed-loop pass: driver d owns cameras d, d+D, d+2D, …
// and for seq = 0 … frames-1 sends frame seq of each of its cameras,
// waiting for the reply before sending the next. In the timed window each
// call is timed and counted; a failed call counts as failed. Outside it
// the first error aborts the run.
func (b *bench) drive(frames int, do func(cam, seq int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, b.drivers)
	for d := 0; d < b.drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rec := b.recording.Load()
			lat := b.lat[d]
			for seq := 0; seq < frames; seq++ {
				for cam := d; cam < b.cfg.cameras; cam += b.drivers {
					t0 := time.Now()
					err := do(cam, seq)
					ms := float64(time.Since(t0).Nanoseconds()) / 1e6
					if !rec {
						if err != nil {
							errs[d] = fmt.Errorf("camera %d frame %d: %w", cam, seq, err)
							return
						}
						continue
					}
					b.attempted.Add(1)
					if err != nil {
						if b.failed.Add(1) == 1 {
							b.note("first failed frame: camera %d frame %d: %v", cam, seq, err)
						}
						continue
					}
					if len(lat) < cap(lat) {
						lat = append(lat, ms)
					}
				}
			}
			b.lat[d] = lat
		}(d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timed runs whole rounds until the run's wall time is spent, recording
// each round's frames, wall and CPU time, and the allocator counters over
// the window.
func (b *bench) timed(round func(r int) error) error {
	lat := make([]float64, 0, b.cfg.cameras*b.cfg.pool)
	runtime.GC()
	runtime.ReadMemStats(&b.ms0)
	b.recording.Store(true)
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < b.cfg.seconds; r++ {
		n0 := b.attempted.Load()
		w0, c0 := time.Now(), cpuTime()
		if err := round(r); err != nil {
			b.recording.Store(false)
			return err
		}
		rs := roundStat{frames: int(b.attempted.Load() - n0), wall: time.Since(w0), cpu: cpuTime() - c0}
		lat = lat[:0]
		for d, l := range b.lat {
			lat = append(lat, l...)
			b.lat[d] = l[:0]
		}
		for _, v := range lat {
			b.latSum += v
		}
		b.latN += len(lat)
		sort.Float64s(lat)
		rs.p50, rs.p99 = percentile(lat, 0.50), percentile(lat, 0.99)
		if len(lat) < 1000 {
			b.fail("round %d: %d latency samples; its p99 needs at least 1000 (10 beyond it)", r, len(lat))
		}
		b.rounds = append(b.rounds, rs)
	}
	b.recording.Store(false)
	runtime.ReadMemStats(&b.ms1)
	return nil
}

// cpuTime returns this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meanLatencyUs is the mean per-frame latency of the timed window in µs.
func (b *bench) meanLatencyUs() float64 {
	if b.latN == 0 {
		return 0
	}
	return b.latSum / float64(b.latN) * 1e3
}

// finish assembles the result line: end-to-end metrics for an untraced
// run, per-layer metrics for a traced one.
func (b *bench) finish() *result {
	frames := b.attempted.Load()
	res := &result{Attempted: int(frames), Failed: int(b.failed.Load()), Metrics: map[string]metric{}}
	if res.Failed > 0 {
		b.fail("%d of %d frames failed", res.Failed, res.Attempted)
	}
	var fps, cpu, p50, p99 []float64
	for _, r := range b.rounds {
		if r.frames > 0 {
			fps = append(fps, float64(r.frames)/r.wall.Seconds())
			cpu = append(cpu, float64(r.cpu.Microseconds())/float64(r.frames))
			p50 = append(p50, r.p50)
			p99 = append(p99, r.p99)
		}
	}
	if !(b.auc > 0.5) {
		b.fail("auc %.4f must exceed 0.5", b.auc)
	}
	// The p99 is printed, not reported: on a shared host it moves by more
	// than any bound the result line may carry (see README.md).
	b.note("%s seed %d: %d rounds, %d frames; medians over rounds: %.0f fps, p50 %.3f ms, p99 %.3f ms",
		b.cfg.workload, b.cfg.seed, len(b.rounds), frames, median(fps), median(p50), median(p99))
	b.note("set-up, median of %d builds: %.3f s CPU, %.3f s wall", len(b.setupCPU),
		medianDur(b.setupCPU).Seconds(), medianDur(b.setupWall).Seconds())
	if !b.cfg.trace {
		res.Metrics["fps"] = metric{median(fps), "1/s"}
		res.Metrics["frame_p50_ms"] = metric{median(p50), "ms"}
		res.Metrics["cpu_us_per_frame"] = metric{median(cpu), "us"}
		res.Metrics["heap_bytes_per_stream"] = metric{b.heapPerStream, "bytes"}
		res.Metrics["auc"] = metric{b.auc, "ratio"}
		res.Metrics["setup_s"] = metric{medianDur(b.setupCPU).Seconds(), "s"}
	} else {
		if frames > 0 {
			b.layer["runtime.allocs_per_frame"] = float64(b.ms1.Mallocs-b.ms0.Mallocs) / float64(frames)
			b.layer["runtime.alloc_bytes_per_frame"] = float64(b.ms1.TotalAlloc-b.ms0.TotalAlloc) / float64(frames)
			b.layer["runtime.gc_per_kframe"] = float64(b.ms1.NumGC-b.ms0.NumGC) * 1000 / float64(frames)
		}
		b.layer["core.train_s"] = medianDur(b.train).Seconds()
		b.layer["serve.deploy_ms"] = float64(medianDur(b.deploy).Microseconds()) / 1e3
		b.layer["netserve.ready_ms"] = float64(medianDur(b.ready).Microseconds()) / 1e3
		b.note("traced fps %.0f (compare with the untraced run's fps for the tracing overhead)", median(fps))
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{b.layer[l.name], l.unit}
		}
	}
	for _, k := range sortedKeys(res.Metrics) {
		b.note("  %-32s %14.4f %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	res.Correct, res.notes, res.errs = len(b.errs) == 0, b.notes, b.errs
	return res
}

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. A metric a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"embed.encode_us", "us"},
	{"gnn.forward_us", "us"},
	{"temporal.forward_us", "us"},
	{"decision.head_us", "us"},
	{"core.score_us", "us"},
	{"runtime.allocs_per_frame", "count"},
	{"runtime.alloc_bytes_per_frame", "bytes"},
	{"runtime.gc_per_kframe", "count"},
	{"flops.ops_per_frame", "count"},
	{"core.monitor_push_us", "us"},
	{"core.clone_cow_us", "us"},
	{"core.adapt_round_ms", "ms"},
	{"core.adapt_skip_us", "us"},
	{"serve.rounds", "count"},
	{"serve.rounds_triggered", "count"},
	{"kg.nodes_pruned", "count"},
	{"kg.nodes_created", "count"},
	{"serve.overhead_us", "us"},
	{"flops.ledger_bytes_per_stream", "bytes"},
	{"shard.submit_us", "us"},
	{"netserve.client_us", "us"},
	{"netserve.handler_us", "us"},
	{"netserve.transport_us", "us"},
	{"netserve.request_bytes", "bytes"},
	{"netserve.reply_bytes", "bytes"},
	{"shard.snapshot_ms", "ms"},
	{"shard.snapshot_bytes", "bytes"},
	{"shard.snapshots_per_kframe", "count"},
	{"core.train_s", "s"},
	{"serve.deploy_ms", "ms"},
	{"netserve.ready_ms", "ms"},
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// rocAUC is the frame-level ROC-AUC of scores against labels: the
// Mann-Whitney rank statistic, ties sharing their mean rank. It is the
// benchmark's own, independent of the program's metrics package.
func rocAUC(scores []float64, labels []bool) float64 {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	var rankSum float64
	pos, neg := 0, 0
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		rank := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if labels[idx[k]] {
				rankSum += rank
				pos++
			} else {
				neg++
			}
		}
		i = j
	}
	if pos == 0 || neg == 0 {
		return math.NaN()
	}
	return (rankSum - float64(pos)*float64(pos+1)/2) / (float64(pos) * float64(neg))
}
