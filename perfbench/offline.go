package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	unfold "repro"
	"repro/internal/decoder"
)

// flatLoads is how many times a run times LoadRecognizerFast.
const flatLoads = 5

// uttSet is a list of utterances with their references.
type uttSet struct {
	frames [][][]float32
	refs   [][]int32
	audio  float64 // seconds, 10 ms per frame
	nframe int
}

func newUttSet(utts []unfold.Utterance) *uttSet {
	u := &uttSet{}
	for _, t := range utts {
		u.frames = append(u.frames, t.Frames)
		u.refs = append(u.refs, t.Words)
		u.nframe += len(t.Frames)
	}
	u.audio = float64(u.nframe) * 0.010
	return u
}

// draw synthesizes n utterances of lo..hi frames from the task's training
// sentences, choosing the sentences and the acoustic noise with rng. A
// small corpus is walked more than once; each pass synthesizes new audio.
func draw(sys *unfold.System, rng *rand.Rand, n, lo, hi int) (*uttSet, error) {
	train := sys.Task.Train
	var utts []unfold.Utterance
	for pass := 0; pass < 8; pass++ {
		for _, i := range rng.Perm(len(train)) {
			f := sys.Task.SynthesizeFrames(rng, train[i])
			if len(f) < lo || len(f) > hi {
				continue
			}
			utts = append(utts, unfold.Utterance{Words: train[i], Frames: f})
			if len(utts) == n {
				return newUttSet(utts), nil
			}
		}
	}
	return nil, fmt.Errorf("only %d of %d utterances of %d..%d frames in 8 passes over the training sentences", len(utts), n, lo, hi)
}

// soloOracle decodes every utterance with a fresh solo decoder: the
// transcripts every other path must reproduce word for word.
func soloOracle(sys *unfold.System, u *uttSet, cfg unfold.DecoderConfig) ([][]int32, error) {
	dec, err := sys.NewDecoder(cfg)
	if err != nil {
		return nil, fmt.Errorf("oracle decoder: %w", err)
	}
	want := make([][]int32, len(u.frames))
	for i, f := range u.frames {
		want[i] = dec.Decode(sys.Task.Scorer.ScoreUtterance(f)).Words
	}
	return want, nil
}

// runOffline measures a closed loop of RecognizeBatch calls over the
// drawn utterances and a closed loop of solo decodes of the same
// utterances. wer_pct is read from one RecognizeBatch call over the task's
// own test set, which is the same for every seed.
func (b *bench) runOffline() error {
	host, err := newHostRef()
	if err != nil {
		return err
	}
	b.host = host
	sys, err := timeSetup(b, func() (*unfold.System, error) { return unfold.NewSystem(b.w.spec) }, func(*unfold.System) {})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	bundle := filepath.Join(b.work, b.w.name+".ufb3")
	if err := sys.SaveFlat(bundle); err != nil {
		return fmt.Errorf("save bundle: %w", err)
	}
	if err := b.flatLoad(bundle); err != nil {
		return err
	}
	test := newUttSet(sys.TestSet())
	wantTest, err := soloOracle(sys, test, unfold.DecoderConfig{})
	if err != nil {
		return err
	}
	u, err := draw(sys, rand.New(rand.NewSource(b.seed)), b.w.utts, b.w.lo, b.w.hi)
	if err != nil {
		return err
	}
	want, err := soloOracle(sys, u, unfold.DecoderConfig{})
	if err != nil {
		return err
	}
	// The untimed test-set call also pays first-touch page faults and lazy
	// runtime set-up before anything is timed.
	var tr batchRun
	b.batchCall(sys, test, wantTest, nil, &tr)
	b.set(b.e2e, "wer_pct", tr.wer.pct(), "%")

	if !b.traced {
		bu, su := b.loops(sys, u, want, b.measure, nil)
		b.batchMetrics(u, bu, su)
	} else {
		// The traced run also pays for the served probe and its ladder
		// (~12 s), so its untraced and traced loops get a quarter of the
		// run each.
		part := b.measure / 8
		bu, su := b.loops(sys, u, want, 2*part, nil)
		bt, st := b.loops(sys, u, want, 2*part, b.tr)
		b.overhead("throughput_xrt", bu.xrt(), bt.xrt())
		b.overhead("batch_p50_ms", quantile(bu.lat, 0.5), quantile(bt.lat, 0.5))
		b.overhead("batch_p99_ms", quantile(bu.lat, 0.99), quantile(bt.lat, 0.99))
		b.overhead("stream_p50_ms", quantile(su.lat, 0.5), quantile(st.lat, 0.5))
		b.overhead("stream_p99_ms", quantile(su.lat, 0.99), quantile(st.lat, 0.99))
		b.layerMetrics(sys, bt, st)
		b.host.note(b)
		probe := &uttSet{frames: u.frames[:probeCommands], refs: u.refs[:probeCommands]}
		if err := b.servedProbe(sys, bundle, probe, part); err != nil {
			return err
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	// The host reference's buffers are resident for the whole run.
	b.set(b.e2e, "peak_rss_mb", rss-float64(refBytes)/(1<<20), "MB")
	return nil
}

// flatLoad maps a v3 bundle with LoadRecognizerFast: model_bytes is the
// resident size the mapping pins, flatstore.load_ms the median load time.
func (b *bench) flatLoad(path string) error {
	var times []float64
	var resident int64
	for i := 0; i < flatLoads; i++ {
		sp := b.tr.begin("flatstore.load", -1, int64(i))
		start := time.Now()
		rec, err := unfold.LoadRecognizerFast(path)
		times = append(times, ms(time.Since(start)))
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("load bundle: %w", err)
		}
		resident = rec.ResidentBytes()
		if err := rec.Close(); err != nil {
			return fmt.Errorf("close bundle: %w", err)
		}
	}
	b.set(b.e2e, "model_bytes", float64(resident), "B")
	b.set(b.layer, "flatstore.load_ms", median(times), "ms")
	return nil
}

// batchRun is what one RecognizeBatch loop measured.
type batchRun struct {
	lat          []float64 // ms per call, less the CPU time the host took
	audio        float64   // seconds
	hits, lookup int64
	wer          werCounter
	steal        []float64 // CPU steal share of each call
}

// xrt is the audio seconds of one call per second of the median call
// time. Every call decodes the same utterances, so it is the reciprocal of
// the median call time in audio units. The median, not the summed time,
// because a burst of slow calls moves the sum more: over 30 s windows of
// one process, the two read spreads of 0.046 and 0.057 (EESEN at scale
// 16, nproc workers).
func (r batchRun) xrt() float64 {
	return ratio(r.audio/float64(max(len(r.lat), 1)), median(r.lat)/1000)
}

// loops alternates one RecognizeBatch call over u, one sample of the host
// reference and one solo pass over u, back to back, until d has passed
// (at least once each). A shared host's speed changes within seconds and
// stays changed for tens of seconds; alternating makes every figure
// sample the whole of d, not one part each.
func (b *bench) loops(sys *unfold.System, u *uttSet, want [][]int32, d time.Duration, tr *tracer) (batchRun, soloRun) {
	var br batchRun
	var sr soloRun
	end := time.Now().Add(d)
	for len(br.lat) == 0 || time.Now().Before(end) {
		b.batchCall(sys, u, want, tr, &br)
		b.host.sample()
		b.soloPass(sys, u, want, tr, &sr)
	}
	return br, sr
}

// batchCall calls RecognizeBatch once on all of u, checks every
// transcript and adds the call to r.
//
// A call's time is its wall time less the share of the machine's CPU time
// that the hypervisor gave to other guests meanwhile (CPU steal). While
// the call keeps every CPU busy, that is the time it would have taken on
// a host of its own; an idle CPU accrues no steal, so otherwise the
// correction falls short rather than overshoots. Steal comes in bursts of
// minutes on a shared host and cut uncorrected throughput by a third in a
// whole run.
func (b *bench) batchCall(sys *unfold.System, u *uttSet, want [][]int32, tr *tracer, r *batchRun) {
	call := len(r.lat)
	sp := tr.begin("pool.recognize_batch", -1, int64(call))
	ticks, start := readCPUTicks(), time.Now()
	words, tp, err := sys.RecognizeBatch(u.frames, b.nproc)
	wall := time.Since(start)
	steal := stealShare(ticks, readCPUTicks())
	tr.end(sp)
	for i := range u.frames {
		var got []int32
		if i < len(words) {
			got = words[i]
		}
		if b.check(fmt.Sprintf("batch call %d utt %d", call, i), want[i], got, err) {
			r.wer.add(u.refs[i], got)
		}
	}
	r.lat = append(r.lat, ms(wall)*(1-steal))
	r.steal = append(r.steal, steal)
	r.audio += u.audio
	r.hits += tp.CacheHits
	r.lookup += tp.CacheLookups
}

// soloRun is what one solo-decoder loop measured.
type soloRun struct {
	lat      []float64 // CPU ms per utterance
	passes   int
	frames   int
	stats    decoder.Stats
	passSolo []float64 // CPU seconds of score+search per test-set pass
}

// soloPass decodes u one utterance at a time — ScoreUtterance, then
// Decode on a solo decoder — checks every transcript and adds the pass to
// r. Each pass starts a fresh decoder, as each RecognizeBatch call starts
// a fresh pool.
//
// An utterance's time is the CPU time of the thread that decodes it. The
// decode neither blocks nor waits, so on a host of its own that is its
// wall time; unlike wall time, it excludes CPU steal, which the kernel
// does not charge to a thread.
func (b *bench) soloPass(sys *unfold.System, u *uttSet, want [][]int32, tr *tracer, r *soloRun) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	dec, err := sys.NewDecoder(unfold.DecoderConfig{})
	var pass time.Duration
	for i, f := range u.frames {
		req := int64(r.passes*len(u.frames) + i)
		if err != nil {
			b.check(fmt.Sprintf("solo pass %d utt %d", r.passes, i), want[i], nil, err)
			continue
		}
		root := tr.begin("solo.utterance", -1, req)
		sp := tr.begin("acoustic.score", root, req)
		t0 := threadCPU()
		scores := sys.Task.Scorer.ScoreUtterance(f)
		tr.end(sp)
		sp = tr.begin("decoder.search", root, req)
		res := dec.Decode(scores)
		t1 := threadCPU()
		tr.end(sp)
		tr.end(root)
		b.check(fmt.Sprintf("solo pass %d utt %d", r.passes, i), want[i], res.Words, nil)
		r.lat = append(r.lat, ms(t1-t0))
		pass += t1 - t0
		r.frames += len(f)
		r.stats.Add(res.Stats)
	}
	r.passSolo = append(r.passSolo, pass.Seconds())
	r.passes++
}

// batchMetrics sets the end-to-end metrics of an offline run, at the
// reference host speed (hostspeed.go).
func (b *bench) batchMetrics(u *uttSet, bu batchRun, su soloRun) {
	f := b.host.factor()
	b.set(b.e2e, "throughput_xrt", bu.xrt()*f, "x")
	b.set(b.e2e, "batch_p50_ms", median(bu.lat)/f, "ms")
	b.set(b.e2e, "stream_p50_ms", median(su.lat)/f, "ms")
	b.set(b.e2e, "success_pct", b.successPct(), "%")
	b.host.note(b)
	b.note("as timed on this host: throughput %.4f x, batch p50 %.3f ms, stream p50 %.4f ms",
		bu.xrt(), median(bu.lat), median(su.lat))
	b.note("batch: %d RecognizeBatch calls of %d utterances (%d frames), CPU steal median %.1f%%, max %.1f%%; solo: %d utterances in %d passes",
		len(bu.lat), len(u.frames), u.nframe, 100*median(bu.steal), 100*quantile(bu.steal, 1), len(su.lat), su.passes)
}

func (b *bench) successPct() float64 {
	return 100 * ratio(float64(b.attempted-b.failed), float64(b.attempted))
}

// overhead records the traced-vs-untraced difference of one end-to-end
// metric as a percentage of the untraced value.
func (b *bench) overhead(name string, untraced, traced float64) {
	b.set(b.layer, "tracing."+name+"_delta_pct", 100*ratio(traced-untraced, untraced), "%")
}

// layerMetrics derives the acoustic, decoder, lm and pool metrics from the
// traced loops.
func (b *bench) layerMetrics(sys *unfold.System, bt batchRun, st soloRun) {
	self := b.tr.selfTimes()
	score, search := self["acoustic.score"].self, self["decoder.search"].self
	f := float64(st.frames)
	s := st.stats
	b.set(b.layer, "acoustic.score_ns_per_frame", ratio(float64(score), f), "ns")
	b.set(b.layer, "acoustic.gflops", ratio(sys.Task.Scorer.FLOPsPerFrame()*f, score.Seconds())/1e9, "GFLOP/s")
	b.set(b.layer, "decoder.search_ns_per_frame", ratio(float64(search), f), "ns")
	b.set(b.layer, "decoder.tokens_per_frame", ratio(float64(s.TokensExpanded), f), "count")
	b.set(b.layer, "decoder.arcs_per_frame", ratio(float64(s.ArcsTraversed), f), "count")
	b.set(b.layer, "decoder.eps_arcs_per_frame", ratio(float64(s.EpsTraversed), f), "count")
	b.set(b.layer, "decoder.beam_cut_ratio", ratio(float64(s.TokensBeamCut), float64(s.TokensCreated)), "ratio")
	b.set(b.layer, "decoder.allocs_per_frame", ratio(float64(s.AllocObjects), f), "count")
	fetches := float64(s.LMFetches)
	b.set(b.layer, "lm.fetches_per_frame", ratio(fetches, f), "count")
	b.set(b.layer, "lm.probes_per_fetch", ratio(float64(s.LMProbes), fetches), "count")
	b.set(b.layer, "lm.backoff_hops_per_fetch", ratio(float64(s.BackoffHops), fetches), "count")
	b.set(b.layer, "lm.memo_hit_rate", ratio(float64(s.MemoHits), float64(s.MemoHits+s.MemoMisses)), "ratio")
	b.set(b.layer, "pool.speedup", ratio(median(st.passSolo), median(bt.lat)/1000), "x")
	b.set(b.layer, "pool.cache_hit_rate", ratio(float64(bt.hits), float64(bt.lookup)), "ratio")
	b.note("layer split (solo): score %.1f%%, search %.1f%% of %d frames",
		100*ratio(float64(score), float64(score+search)), 100*ratio(float64(search), float64(score+search)), st.frames)
}
