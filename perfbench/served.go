package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	unfold "repro"
	"repro/internal/bias"
)

// Served traffic. The rates, the ladder and the latency limit are fixed
// here and never calibrated against the program under test: calibration
// would hide a gain.
const (
	commandSeed    = 1    // draws the served commands, the same in every run
	probeCommands  = 8    // commands of the short served probe in offline runs
	chunkFrames    = 20   // frames per /v1/stream NDJSON line of served-vox
	tenants        = 1024 // Zipf population of served-vox
	probeTenants   = 16   // of the offline probes, whose oracles decode slowly
	biasBonus      = 4.0  // the server's default bonus, sent explicitly
	nominalRPS     = 50.0
	probeRPS       = 25.0
	p99LimitMs     = 50.0
	backlogSlackMs = 10.0 // lateness growth that counts as a growing backlog
	rungDuration   = 2 * time.Second
	p99Windows     = 5
)

// The tenant mix. zipfS and tenantPhrases are unfold-loadgen's defaults
// (-zipf, -bias-phrases). biasShare is an assumption: unfold-loadgen
// biases every request once -tenants is set, but half here keeps the
// nil-bias path, which every unbiased caller takes, as heavily loaded as
// the biased one, as the batch/stream split does for the two routes.
const (
	zipfS         = 1.2
	biasShare     = 0.5
	tenantPhrases = 3
)

// The fixed rate ladder loadgen.max_rate_rps is read from: rungs from ladderLow
// to ladderHigh rps in ladderStep steps.
const (
	ladderLow  = 50.0
	ladderHigh = 1000.0
	ladderStep = 25.0
)

// serverDecoder is the decoder configuration unfold-serve runs with its
// default flags; the served oracle decodes with it.
var serverDecoder = unfold.DecoderConfig{PreemptivePruning: true, RescueWidenings: 2}

// server is a running unfold-serve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	err    error // valid after exited is closed
}

// freeAddr returns a loopback address no one is listening on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer runs unfold-serve with its default flags on the bundle and
// waits until /healthz reports ready.
func startServer(bin, bundle, logPath string, conns int) (*server, error) {
	if bin == "" {
		return nil, errors.New("no -serve-bin given")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-task", "none", "-bundle", "default="+bundle, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start unfold-serve: %w", err)
	}
	s := &server{
		cmd: cmd, base: "http://" + addr, exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
	}
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("unfold-serve exited during start-up (%v); see %s", s.err, logPath)
		default:
		}
		if resp, err := s.client.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("unfold-serve not ready after 30s; see %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, kills it after 10 s, and waits
// for it to exit.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// scrape reads /metrics as series → value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return out, nil
}

// series sums every series of metric name whose labels contain all of
// the given label fragments.
func series(m map[string]float64, name string, labels ...string) float64 {
	var sum float64
	for k, v := range m {
		n, l, _ := strings.Cut(k, "{")
		if n != name {
			continue
		}
		ok := true
		for _, frag := range labels {
			ok = ok && strings.Contains(l, frag)
		}
		if ok {
			sum += v
		}
	}
	return sum
}

// residentBytes reads the default model's resident bytes from /v1/models.
func (s *server) residentBytes() (float64, error) {
	resp, err := s.client.Get(s.base + "/v1/models")
	if err != nil {
		return 0, fmt.Errorf("models: %w", err)
	}
	defer resp.Body.Close()
	var body struct {
		Models []struct {
			Name          string `json:"name"`
			ResidentBytes int64  `json:"resident_bytes"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("models: %w", err)
	}
	for _, m := range body.Models {
		if m.Name == "default" {
			return float64(m.ResidentBytes), nil
		}
	}
	return 0, errors.New("models: no default model listed")
}

// --- traffic ---------------------------------------------------------------

// request is one scheduled operation.
type request struct {
	at     time.Duration // due, after the phase start
	stream bool
	utt    int
	tenant int // -1: no bias block
}

// traffic holds the commands, the tenants and the oracle of served load.
type traffic struct {
	sys      *unfold.System
	cmds     *uttSet
	bodies   [][]byte   // /v1/recognize body per command, without bias
	lines    [][][]byte // /v1/stream NDJSON lines per command, without bias
	phrases  [][]string // per tenant
	blocks   [][]byte   // per tenant, marshaled bias block
	lookup   bias.Lookup
	machines map[int]*bias.Machine
	scores   map[int][][]float32
	want     map[[2]int][]int32 // (command, tenant) → transcript
	compile  []float64          // µs per bias.Compile
	rng      *rand.Rand
	zipf     *rand.Zipf
}

// newTraffic prepares the request bodies and n tenants for the commands;
// seed draws the schedules. Streams send chunk frames per NDJSON line, or
// the whole command in one line when chunk is 0.
func newTraffic(sys *unfold.System, cmds *uttSet, chunk, n int, seed int64) (*traffic, error) {
	t := &traffic{
		sys: sys, cmds: cmds,
		machines: map[int]*bias.Machine{}, scores: map[int][][]float32{}, want: map[[2]int][]int32{},
		rng: rand.New(rand.NewSource(seed)),
	}
	t.zipf = rand.NewZipf(t.rng, zipfS, 1, uint64(n-1))
	words := sys.Task.Lex.Words
	idx := make(map[string]int32, len(words))
	for i, w := range words {
		if _, ok := idx[w]; !ok {
			idx[w] = int32(i)
		}
	}
	t.lookup = func(w string) (int32, bool) { id, ok := idx[w]; return id, ok }
	for _, f := range t.cmds.frames {
		body, err := json.Marshal(map[string]any{"utterances": []map[string]any{{"frames": f}}})
		if err != nil {
			return nil, err
		}
		t.bodies = append(t.bodies, body)
		var lines [][]byte
		step := chunk
		if step == 0 {
			step = len(f)
		}
		for lo := 0; lo < len(f); lo += step {
			line, err := json.Marshal(map[string]any{"frames": f[lo:min(lo+step, len(f))]})
			if err != nil {
				return nil, err
			}
			lines = append(lines, append(line, '\n'))
		}
		t.lines = append(t.lines, lines)
	}
	// Tenant i biases single words taken from the command references, so
	// neighbouring tenants bias different vocabulary.
	refs := t.cmds.refs
	for i := 0; i < n; i++ {
		var ph []string
		for j := 0; len(ph) < tenantPhrases && j < 4*tenantPhrases; j++ {
			ref := refs[(i+j)%len(refs)]
			if len(ref) == 0 {
				continue
			}
			w := words[ref[(i/len(refs)+j)%len(ref)]]
			if !contains(ph, w) {
				ph = append(ph, w)
			}
		}
		block, err := json.Marshal(map[string]any{"tenant": fmt.Sprintf("tenant-%04d", i), "phrases": ph, "bonus": biasBonus})
		if err != nil {
			return nil, err
		}
		t.phrases = append(t.phrases, ph)
		t.blocks = append(t.blocks, block)
	}
	return t, nil
}

func contains(s []string, w string) bool {
	for _, x := range s {
		if x == w {
			return true
		}
	}
	return false
}

// schedule is an open-loop arrival schedule: one request every 1/rate
// seconds for d, half batch and half stream, a biasShare of them with a
// Zipf-drawn tenant. Arrivals are evenly spaced so that the seed changes
// what is sent, not how bursty the arrivals are.
func (t *traffic) schedule(rate float64, d time.Duration) []request {
	n := int(rate * d.Seconds())
	out := make([]request, n)
	for i := range out {
		out[i] = request{
			at:     time.Duration(float64(i) / rate * float64(time.Second)),
			stream: t.rng.Intn(2) == 1, utt: t.rng.Intn(len(t.bodies)), tenant: -1,
		}
		if t.rng.Float64() < biasShare {
			out[i].tenant = int(t.zipf.Uint64())
		}
	}
	return out
}

// expect computes, untimed, the oracle transcript of every (command,
// tenant) pair the requests use: a solo decode with the server's decoder
// configuration and, for a biased request, the tenant's compiled machine.
func (b *bench) expect(t *traffic, reqs []request) error {
	dec, err := t.sys.NewDecoder(serverDecoder)
	if err != nil {
		return fmt.Errorf("oracle decoder: %w", err)
	}
	for _, r := range reqs {
		key := [2]int{r.utt, r.tenant}
		if _, ok := t.want[key]; ok {
			continue
		}
		scores, ok := t.scores[r.utt]
		if !ok {
			scores = t.sys.Task.Scorer.ScoreUtterance(t.cmds.frames[r.utt])
			t.scores[r.utt] = scores
		}
		dec.ClearBias()
		if r.tenant >= 0 {
			m, ok := t.machines[r.tenant]
			if !ok {
				sp := b.tr.begin("bias.compile", -1, int64(r.tenant))
				start := time.Now()
				m, err = bias.Compile(t.phrases[r.tenant], biasBonus, t.lookup)
				t.compile = append(t.compile, float64(time.Since(start))/float64(time.Microsecond))
				b.tr.end(sp)
				if err != nil {
					return fmt.Errorf("compile tenant %d: %w", r.tenant, err)
				}
				t.machines[r.tenant] = m
			}
			if err := dec.SetBias(m); err != nil {
				return fmt.Errorf("bias tenant %d: %w", r.tenant, err)
			}
		}
		t.want[key] = dec.Decode(scores).Words
	}
	return nil
}

// loadResult is what one open-loop phase measured.
type loadResult struct {
	rate             float64
	batch, stream    []float64 // ms from due to the full result
	service          []float64 // ms from send to the full result
	late             []float64 // ms from due to send
	audio            float64   // seconds, of the requests answered correctly
	cpu              float64   // seconds unfold-serve spent on the CPU
	sent, ok, unsent int
	backlogGrew      bool
	// window[k] holds the batch (0) and stream (1) latencies of requests
	// due in the k-th of p99Windows equal slices of the phase.
	window [p99Windows][2][]float64
	// heard maps a command to the transcript of an unbiased request for it.
	heard map[int][]int32
}

// xrt is audio seconds answered per second of server CPU time. The open
// loop fixes how much audio a phase sends, so this is the work the server
// spends on it: unlike a latency, it falls when a change adds CPU work
// that runs in parallel with the request path.
func (r loadResult) xrt() float64 { return ratio(r.audio, r.cpu) }

func (r loadResult) p99ok() bool {
	return quantile(r.batch, 0.99) <= p99LimitMs && quantile(r.stream, 0.99) <= p99LimitMs
}

// windowP99 is the median over the windows of each window's p99, so one
// slice of the phase disturbed by a noisy neighbour does not decide it.
func (r loadResult) windowP99(kind int) float64 {
	var p []float64
	for _, w := range r.window {
		p = append(p, quantile(w[kind], 0.99))
	}
	return median(p)
}

// sample is one completed request.
type sample struct {
	due, sent, done time.Time
	words           []int32
	err             error
}

// load sends reqs open-loop from at most b.nproc connections: a request
// waits for a free connection, and its latency counts from when it was
// due. Requests still unsent one second after the schedule ends are
// dropped and counted as backlog.
func (b *bench) load(s *server, t *traffic, reqs []request, d time.Duration, tr *tracer) (loadResult, error) {
	res := make([]sample, len(reqs))
	var next atomic.Int64
	cpu0, err := cpuSeconds(s.cmd.Process.Pid)
	if err != nil {
		return loadResult{}, err
	}
	start := time.Now()
	cutoff := start.Add(d + time.Second)
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].at)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.After(cutoff) {
					return
				}
				span := "http.batch"
				if reqs[i].stream {
					span = "http.stream"
				}
				root := tr.add("loadgen.request", -1, int64(i), due, time.Time{})
				sp := tr.begin(span, root, int64(i))
				words, err := s.send(t, reqs[i])
				tr.end(sp)
				tr.end(root)
				res[i] = sample{due: due, sent: sent, done: time.Now(), words: words, err: err}
			}
		}()
	}
	wg.Wait()
	cpu1, err := cpuSeconds(s.cmd.Process.Pid)
	if err != nil {
		return loadResult{}, err
	}

	r := loadResult{rate: float64(len(reqs)) / d.Seconds(), cpu: cpu1 - cpu0, heard: map[int][]int32{}}
	var lateFirst, lateLast []float64
	for i, q := range reqs {
		sm := res[i]
		if sm.sent.IsZero() {
			r.unsent++
			continue
		}
		r.sent++
		kind := "batch"
		if q.stream {
			kind = "stream"
		}
		what := fmt.Sprintf("%s rate %.0f req %d (command %d, tenant %d)", kind, r.rate, i, q.utt, q.tenant)
		if !b.check(what, t.want[[2]int{q.utt, q.tenant}], sm.words, sm.err) {
			continue
		}
		r.ok++
		lat := ms(sm.done.Sub(sm.due))
		win := min(int(int64(q.at)*p99Windows/int64(d)), p99Windows-1)
		if q.stream {
			r.stream = append(r.stream, lat)
			r.window[win][1] = append(r.window[win][1], lat)
		} else {
			r.batch = append(r.batch, lat)
			r.window[win][0] = append(r.window[win][0], lat)
		}
		if q.tenant < 0 {
			r.heard[q.utt] = sm.words
		}
		late := ms(sm.sent.Sub(sm.due))
		r.late = append(r.late, late)
		r.service = append(r.service, ms(sm.done.Sub(sm.sent)))
		r.audio += float64(len(t.cmds.frames[q.utt])) * 0.010
		switch {
		case i < len(reqs)/4:
			lateFirst = append(lateFirst, late)
		case i >= len(reqs)-len(reqs)/4:
			lateLast = append(lateLast, late)
		}
	}
	r.backlogGrew = r.unsent > 0 || mean(lateLast)-mean(lateFirst) > backlogSlackMs
	return r, nil
}

// send performs one request and returns its transcript.
func (s *server) send(t *traffic, r request) ([]int32, error) {
	if !r.stream {
		body := t.bodies[r.utt]
		if r.tenant >= 0 {
			body = withBias(body, t.blocks[r.tenant])
		}
		resp, err := s.client.Post(s.base+"/v1/recognize", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		var out struct {
			Results []struct {
				Words []int32 `json:"words"`
				Error string  `json:"error"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, fmt.Errorf("response: %w", err)
		}
		if len(out.Results) != 1 {
			return nil, fmt.Errorf("response: %d results for one utterance", len(out.Results))
		}
		if e := out.Results[0].Error; e != "" {
			return nil, fmt.Errorf("response: %s", e)
		}
		return out.Results[0].Words, nil
	}

	lines := t.lines[r.utt]
	pr, pw := io.Pipe()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		for i, line := range lines {
			if i == 0 && r.tenant >= 0 {
				line = withBias(line[:len(line)-1], t.blocks[r.tenant])
				line = append(line, '\n')
			}
			if _, err := pw.Write(line); err != nil {
				return
			}
		}
		pw.Close()
	}()
	defer func() {
		pr.Close() // unblocks the writer if the server answered early
		<-wrote
	}()
	resp, err := s.client.Post(s.base+"/v1/stream", "application/x-ndjson", pr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var u struct {
			Words []int32 `json:"words"`
			Final bool    `json:"final"`
			Error string  `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			return nil, fmt.Errorf("stream line: %w", err)
		}
		if u.Final {
			if u.Error != "" {
				return nil, fmt.Errorf("stream final: %s", u.Error)
			}
			return u.Words, nil
		}
	}
	return nil, fmt.Errorf("stream truncated before its final line (%v)", sc.Err())
}

// withBias splices a marshaled bias block into a marshaled JSON object.
func withBias(obj, block []byte) []byte {
	out := make([]byte, 0, len(obj)+len(block)+9)
	out = append(out, obj[:len(obj)-1]...)
	out = append(out, `,"bias":`...)
	out = append(out, block...)
	return append(out, '}')
}

// --- the served-vox workload -------------------------------------------------

// runServed measures open-loop traffic against unfold-serve: the nominal
// rate, then the rate ladder.
func (b *bench) runServed() error {
	bundle := filepath.Join(b.work, b.w.name+".ufb3")
	logPath := filepath.Join(b.work, b.w.name+".log")
	type up struct {
		sys *unfold.System
		srv *server
	}
	var srv *server
	defer func() { srv.stop() }()
	st, err := timeSetup(b, func() (up, error) {
		sys, err := unfold.NewSystem(b.w.spec)
		if err != nil {
			return up{}, err
		}
		if err := sys.SaveFlat(bundle); err != nil {
			return up{}, fmt.Errorf("save bundle: %w", err)
		}
		s, err := startServer(b.serveBin, bundle, logPath, b.nproc)
		srv = s
		return up{sys, s}, err
	}, func(u up) { u.srv.stop() })
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	sys := st.sys
	cmds, err := draw(sys, rand.New(rand.NewSource(commandSeed)), b.w.utts, b.w.lo, b.w.hi)
	if err != nil {
		return err
	}
	t, err := newTraffic(sys, cmds, chunkFrames, tenants, b.seed)
	if err != nil {
		return err
	}
	if err := b.flatLoad(bundle); err != nil {
		return err
	}
	resident, err := srv.residentBytes()
	if err != nil {
		return err
	}
	b.set(b.e2e, "model_bytes", resident, "B")

	if !b.traced {
		nominal := t.schedule(nominalRPS, b.measure)
		// The first requests send every command once without bias, so
		// wer_pct covers the same commands in every run.
		for i, c := range t.rng.Perm(len(t.bodies))[:min(len(t.bodies), len(nominal))] {
			nominal[i].utt, nominal[i].tenant = c, -1
		}
		if err := b.expect(t, nominal); err != nil {
			return err
		}
		n, err := b.load(srv, t, nominal, b.measure, nil)
		if err != nil {
			return err
		}
		b.servedMetrics(t, n)
	} else {
		part := b.measure / 6
		nu := t.schedule(nominalRPS, part)
		nt := t.schedule(nominalRPS, part)
		if err := b.expect(t, append(append([]request(nil), nu...), nt...)); err != nil {
			return err
		}
		before, err := srv.scrape()
		if err != nil {
			return err
		}
		u, err := b.load(srv, t, nu, part, nil)
		if err != nil {
			return err
		}
		tr, err := b.load(srv, t, nt, part, b.tr)
		if err != nil {
			return err
		}
		after, err := srv.scrape()
		if err != nil {
			return err
		}
		b.overhead("throughput_xrt", u.xrt(), tr.xrt())
		b.overhead("batch_p50_ms", quantile(u.batch, 0.5), quantile(tr.batch, 0.5))
		b.overhead("batch_p99_ms", quantile(u.batch, 0.99), quantile(tr.batch, 0.99))
		b.overhead("stream_p50_ms", quantile(u.stream, 0.5), quantile(tr.stream, 0.5))
		b.overhead("stream_p99_ms", quantile(u.stream, 0.99), quantile(tr.stream, 0.99))
		b.serverMetrics(t, []loadResult{u, tr}, before, after)
		if err := b.maxRate(srv, t); err != nil {
			return err
		}
		// The pool and solo layers of the served model, over the commands.
		want, err := soloOracle(sys, t.cmds, unfold.DecoderConfig{})
		if err != nil {
			return err
		}
		bt, sl := b.loops(sys, t.cmds, want, part, b.tr)
		b.layerMetrics(sys, bt, sl)
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	b.set(b.e2e, "peak_rss_mb", rss, "MB")
	return nil
}

// maxRate sets loadgen.max_rate_rps, the highest ladder rung that passes:
// both p99s within p99LimitMs, every request correct, and no growing
// backlog. It bisects the rungs, so a run visits log2(rungs) of them for
// rungDuration each; a run where even the lowest rung fails reads
// ladderLow/2.
func (b *bench) maxRate(srv *server, t *traffic) error {
	rate := func(i int) float64 { return ladderLow + ladderStep*float64(i) }
	lo, hi := -1, int((ladderHigh-ladderLow)/ladderStep)+1 // lo passes, hi fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		reqs := t.schedule(rate(mid), rungDuration)
		if err := b.expect(t, reqs); err != nil {
			return err
		}
		lr, err := b.load(srv, t, reqs, rungDuration, nil)
		if err != nil {
			return err
		}
		pass := lr.p99ok() && lr.ok == lr.sent && !lr.backlogGrew
		b.note("ladder %4.0f rps: %d sent, batch p99 %.1f ms, stream p99 %.1f ms, late p99 %.1f ms, backlog grew %v: pass %v",
			rate(mid), lr.sent, quantile(lr.batch, 0.99), quantile(lr.stream, 0.99), quantile(lr.late, 0.99), lr.backlogGrew, pass)
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	best := ladderLow / 2
	if lo >= 0 {
		best = rate(lo)
	}
	b.set(b.layer, "loadgen.max_rate_rps", best, "1/s")
	return nil
}

// servedMetrics sets the end-to-end metrics of the nominal-rate phase.
// wer_pct counts each command once, from an unbiased request for it, so it
// does not depend on the seed's traffic mix.
func (b *bench) servedMetrics(t *traffic, n loadResult) {
	b.set(b.e2e, "batch_p50_ms", quantile(n.batch, 0.5), "ms")
	b.set(b.e2e, "stream_p50_ms", quantile(n.stream, 0.5), "ms")
	b.set(b.e2e, "throughput_xrt", n.xrt(), "x")
	var wer werCounter
	for c, words := range n.heard {
		wer.add(t.cmds.refs[c], words)
	}
	b.set(b.e2e, "wer_pct", wer.pct(), "%")
	b.set(b.e2e, "success_pct", b.successPct(), "%")
	for k, w := range n.window {
		b.note("window %d: batch p99 %.2f ms of %d, stream p99 %.2f ms of %d", k, quantile(w[0], 0.99), len(w[0]), quantile(w[1], 0.99), len(w[1]))
	}
	b.note("nominal %.0f rps: %d batch and %d stream samples, p99 (median of %d windows) batch %.2f ms, stream %.2f ms, late p99 %.2f ms, backlog grew %v; %d of %d commands heard unbiased",
		nominalRPS, len(n.batch), len(n.stream), p99Windows, n.windowP99(0), n.windowP99(1), quantile(n.late, 0.99), n.backlogGrew, len(n.heard), len(t.cmds.frames))
}

// serverMetrics derives the server, bias, lm-pruning and loadgen metrics
// from the /metrics deltas over the phases and the client samples; the
// p99s are those of the first phase, which is untraced on served-vox.
func (b *bench) serverMetrics(t *traffic, phases []loadResult, before, after map[string]float64) {
	delta := func(name string, labels ...string) float64 {
		return series(after, name, labels...) - series(before, name, labels...)
	}
	meanMs := func(name string, labels ...string) float64 {
		return 1000 * ratio(delta(name+"_sum", labels...), delta(name+"_count", labels...))
	}
	var service, late []float64
	var sent, batchN, streamN int
	for _, p := range phases {
		service = append(service, p.service...)
		late = append(late, p.late...)
		sent += p.sent
		batchN += len(p.batch)
		streamN += len(p.stream)
	}
	b.set(b.layer, "server.request_ms.recognize", meanMs("unfold_server_request_seconds", `route="/v1/recognize"`), "ms")
	b.set(b.layer, "server.request_ms.stream", meanMs("unfold_server_request_seconds", `route="/v1/stream"`), "ms")
	b.set(b.layer, "server.decode_ms", meanMs("unfold_decoder_decode_seconds"), "ms")
	serverMean := meanMs("unfold_server_request_seconds", `route="/v1/`, `outcome="ok"`)
	b.set(b.layer, "server.client_overhead_ms", mean(service)-serverMean, "ms")
	b.set(b.layer, "server.shed_share", ratio(delta("unfold_server_shed_total"), float64(sent)), "ratio")
	b.set(b.layer, "server.degraded_share", ratio(delta("unfold_server_degraded_total"), float64(sent)), "ratio")
	hits, misses := delta("unfold_bias_compile_cache_hits_total"), delta("unfold_bias_compile_cache_misses_total")
	b.set(b.layer, "bias.compile_hit_rate", ratio(hits, hits+misses), "ratio")
	b.set(b.layer, "bias.compile_us", median(t.compile), "us")
	b.set(b.layer, "lm.preemptive_pruned_per_fetch",
		ratio(delta("unfold_decoder_preemptive_pruned_total"), delta("unfold_decoder_lm_fetches_total")), "count")
	b.set(b.layer, "flatstore.server_load_ms", 1000*series(after, "unfold_model_load_seconds", `model="default"`), "ms")
	b.set(b.layer, "loadgen.batch_p99_ms", phases[0].windowP99(0), "ms")
	b.set(b.layer, "loadgen.stream_p99_ms", phases[0].windowP99(1), "ms")
	b.set(b.layer, "loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	b.set(b.layer, "loadgen.batch_samples", float64(batchN), "count")
	b.set(b.layer, "loadgen.stream_samples", float64(streamN), "count")
}

// servedProbe exercises the served layers of an offline workload's model:
// unfold-serve on its bundle, a short open-loop phase at probeRPS over
// cmds. Streams send each command in one line: a recurrent scorer's state
// across chunk boundaries is engine-specific, and one line keeps every
// engine's transcript equal to the whole-utterance oracle.
func (b *bench) servedProbe(sys *unfold.System, bundle string, cmds *uttSet, d time.Duration) error {
	logPath := filepath.Join(b.work, b.w.name+"-probe.log")
	srv, err := startServer(b.serveBin, bundle, logPath, b.nproc)
	if err != nil {
		return err
	}
	defer srv.stop()
	t, err := newTraffic(sys, cmds, 0, probeTenants, b.seed)
	if err != nil {
		return err
	}
	reqs := t.schedule(probeRPS, d)
	if err := b.expect(t, reqs); err != nil {
		return err
	}
	before, err := srv.scrape()
	if err != nil {
		return err
	}
	p, err := b.load(srv, t, reqs, d, b.tr)
	if err != nil {
		return err
	}
	after, err := srv.scrape()
	if err != nil {
		return err
	}
	b.serverMetrics(t, []loadResult{p}, before, after)
	return b.maxRate(srv, t)
}
