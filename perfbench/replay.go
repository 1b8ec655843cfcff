package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"edgekg/internal/autograd"
	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/rng"
	"edgekg/internal/serve"
	"edgekg/internal/tensor"
)

// replayStages feeds frames one at a time through the detector's stages,
// as a serving stream scores them (a one-frame video: the window is the
// frame repeated): EncodeImageBatch → each GNN's Forward → window
// assembly → Temporal.ForwardBatch → Head.Logits → temperature softmax.
// It times each stage and ScoreVideo itself, frame by frame, for at least
// cfg.replay, and checks every replayed score against ScoreVideo bit for
// bit. Window assembly is charged to the temporal stage.
func (b *bench) replayStages(det *core.Detector, frames []*tensor.Tensor) {
	window := det.Window()
	invT := 1 / det.ScoreTemperature()
	var enc, gnn, temporal, head, score time.Duration
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < b.cfg.replay {
		for _, f := range frames {
			x := f.Reshape(1, f.Size())
			t0 := time.Now()
			sem := autograd.Constant(det.Space().EncodeImageBatch(x))
			t1 := time.Now()
			outs := make([]*autograd.Value, det.NumGNNs())
			for i := range outs {
				outs[i] = det.GNN(i).Forward(sem)
			}
			emb := outs[0]
			if len(outs) > 1 {
				emb = autograd.ConcatCols(outs...)
			}
			t2 := time.Now()
			wins := tensor.New(window, emb.Data.Cols())
			for k := 0; k < window; k++ {
				copy(wins.Row(k), emb.Data.Row(0))
			}
			out := det.Temporal().ForwardBatch(autograd.Constant(wins), 1)
			t3 := time.Now()
			probs := autograd.SoftmaxRows(autograd.Scale(det.Head().Logits(out), invT))
			got := 1 - probs.Data.At2(0, 0)
			t4 := time.Now()
			want := det.ScoreVideo(x)[0]
			t5 := time.Now()
			if math.Float64bits(got) != math.Float64bits(want) {
				b.fail("stage replay frame %d: %v, ScoreVideo %v", n, got, want)
			}
			enc += t1.Sub(t0)
			gnn += t2.Sub(t1)
			temporal += t3.Sub(t2)
			head += t4.Sub(t3)
			score += t5.Sub(t4)
			n++
		}
	}
	perUs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) / 1e3 }
	b.layer["embed.encode_us"] = perUs(enc)
	b.layer["gnn.forward_us"] = perUs(gnn)
	b.layer["temporal.forward_us"] = perUs(temporal)
	b.layer["decision.head_us"] = perUs(head)
	b.layer["core.score_us"] = perUs(score)
	x := frames[0].Reshape(1, frames[0].Size())
	ops, _ := flops.Count(func() { det.ScoreVideo(x) })
	b.layer["flops.ops_per_frame"] = float64(ops)
	b.note("stage replay: %d frames; stages sum to %.1f%% of core.score_us", n, 100*float64(enc+gnn+temporal+head)/float64(score))
}

// replayAdaptive replays one camera's schedule the way a serving stream
// with cadence and lag processes it — a fresh copy-on-write clone of the
// backbone, its own anchored monitor and adapter seeded as the server
// seeds stream 0 — except that each round runs synchronously at its
// trigger frame. That leaves the trajectory unchanged (the swap frame is
// fixed in frames), so the replayed scores must equal the served ones.
// It times Monitor.Push, the round snapshot (Detector.CloneCOW plus
// Monitor.Clone) and Adapter.Step, triggered and gated rounds apart.
func (b *bench) replayAdaptive(bb *backbone, cfg serve.Config, frames []*tensor.Tensor) ([]float64, error) {
	sc := cfg.Stream
	var push, snap, round, skip time.Duration
	var pushes, rounds, skips int
	pass := func() ([]float64, error) {
		det, err := bb.det.CloneCOW()
		if err != nil {
			return nil, err
		}
		mon, err := core.NewAnchoredMonitor(sc.MonitorN)
		if !sc.AnchoredReference {
			mon, err = core.NewMonitor(sc.MonitorN, sc.MonitorLag)
		}
		if err != nil {
			return nil, err
		}
		adapter, err := core.NewAdapter(det, sc.Adapt, rand.New(rng.NewSource(cfg.BaseSeed)))
		if err != nil {
			return nil, err
		}
		scoreDet, swapAt := det, -1
		trace := make([]float64, len(frames))
		for i, f := range frames {
			if swapAt >= 0 && i >= swapAt {
				scoreDet, swapAt = det, -1
			}
			x := f.Reshape(1, f.Size())
			trace[i] = scoreDet.ScoreVideo(x)[0]
			t0 := time.Now()
			mon.Push(x, trace[i])
			push += time.Since(t0)
			pushes++
			if (i+1)%sc.AdaptEveryFrames != 0 {
				continue
			}
			t1 := time.Now()
			frozen, err := det.CloneCOW()
			if err != nil {
				return nil, fmt.Errorf("round snapshot: %w", err)
			}
			window := mon.Clone()
			t2 := time.Now()
			rep, err := adapter.Step(window)
			t3 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("round at frame %d: %w", i, err)
			}
			scoreDet, swapAt = frozen, i+1+sc.AdaptLagFrames
			snap += t2.Sub(t1)
			if rep.Triggered {
				round += t3.Sub(t2)
				rounds++
			} else {
				skip += t3.Sub(t2)
				skips++
			}
		}
		return trace, nil
	}
	var first []float64
	start := time.Now()
	for first == nil || time.Since(start) < b.cfg.replay {
		trace, err := pass()
		if err != nil {
			return nil, fmt.Errorf("adaptive replay: %w", err)
		}
		if first == nil {
			first = trace
		}
	}
	b.layer["core.monitor_push_us"] = float64(push.Nanoseconds()) / float64(pushes) / 1e3
	if n := rounds + skips; n > 0 {
		b.layer["core.clone_cow_us"] = float64(snap.Nanoseconds()) / float64(n) / 1e3
	}
	if rounds > 0 {
		b.layer["core.adapt_round_ms"] = float64(round.Nanoseconds()) / float64(rounds) / 1e6
	}
	if skips > 0 {
		b.layer["core.adapt_skip_us"] = float64(skip.Nanoseconds()) / float64(skips) / 1e3
	}
	return first, nil
}
