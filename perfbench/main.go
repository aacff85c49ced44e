// Command perfbench is the recognizer's end-to-end benchmark. It builds a
// task from the seed, decodes it through the public surfaces the repo
// keeps (the root unfold API, the acoustic scorer, the bias compiler and
// the unfold-serve binary), checks every transcript against the solo
// decoder, and prints the metrics named in BENCHMARK.json as one JSON
// object on the last line of standard output.
//
//	perfbench -workload offline-dnn -seed 1 -seconds 20 -trace 0 -serve-bin bin/unfold-serve
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it records
// spans around every call into a layer, writes them to the work directory
// and prints the per-layer metrics derived from them. See README.md for
// the workloads and what each metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	unfold "repro"
)

// A run builds its set-up at least setupMin times, and more until
// setupBudget of build time has passed (at most setupMax); setup_s is the
// median. A set-up of 10 ms is built ~100 times: seven builds read a
// median that moved by half between runs.
const (
	setupMin    = 7
	setupMax    = 101
	setupBudget = 1500 * time.Millisecond
)

// workload is one benchmark input set. The task model is always built
// from its spec's own seed; the run's seed draws the inputs (utterances,
// tenants, arrivals), so runs with different seeds measure one system on
// different inputs.
type workload struct {
	name string
	spec unfold.Spec
	// utts utterances of lo..hi frames: drawn from the run's seed offline,
	// and from commandSeed as the served commands.
	utts, lo, hi int
	// served selects the open-loop unfold-serve traffic instead of the
	// closed RecognizeBatch loop.
	served bool
}

var workloads = []workload{
	{name: "offline-dnn", spec: unfold.KaldiLibrispeech(1), utts: 20, lo: 250, hi: 350},
	{name: "offline-eesen16", spec: unfold.EesenTedlium(16), utts: 60, lo: 60, hi: 90},
	{name: "served-vox", spec: unfold.KaldiVoxforge(1), utts: 64, lo: 50, hi: 80, served: true},
}

// bench is the state of one run.
type bench struct {
	w        workload
	seed     int64
	measure  time.Duration
	traced   bool
	work     string // scratch directory for bundles, logs and traces
	serveBin string
	nproc    int

	tr   *tracer  // nil when untraced
	host *hostRef // the offline workloads' host-speed reference; nil when served

	attempted, failed int64
	mismatches        []string // wrong transcripts
	errs              []string // operations that returned no transcript

	e2e   map[string]metric
	layer map[string]metric
	notes []string // human-readable report lines
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) set(m map[string]metric, name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// check records one operation's outcome: got must equal want word for
// word. A mismatch is named in the output so a wrong transcript is never
// silently averaged away.
func (b *bench) check(what string, want, got []int32, err error) bool {
	b.attempted++
	switch {
	case err != nil:
		b.failed++
		b.errs = append(b.errs, fmt.Sprintf("%s: %v", what, err))
		return false
	case !sameWords(want, got):
		b.failed++
		b.mismatches = append(b.mismatches, fmt.Sprintf("%s: want %v, got %v", what, want, got))
		return false
	}
	return true
}

func main() {
	name := flag.String("workload", "", "workload name (offline-dnn, offline-eesen16, served-vox)")
	seed := flag.Int64("seed", 1, "input seed: task spec, tenant draw and arrival schedule")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	serveBin := flag.String("serve-bin", "", "unfold-serve binary built from the tree under test")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{
		w: *w, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, work: *work, serveBin: *serveBin,
		nproc: runtime.NumCPU(),
		e2e:   map[string]metric{}, layer: map[string]metric{},
	}
	if b.traced {
		b.tr = newTracer()
	}
	before := readCPUTicks()
	var err error
	if w.served {
		err = b.runServed()
	} else {
		err = b.runOffline()
	}
	if err != nil {
		fatal(err)
	}
	// Time the hypervisor gave to other guests: the likeliest cause of a
	// run that reads slower than its neighbours.
	b.note("cpu steal during the run: %.1f%%", 100*stealShare(before, readCPUTicks()))
	if b.traced {
		path := filepath.Join(b.work, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, b.seed))
		if err := b.tr.write(path); err != nil {
			fatal(err)
		}
		b.note("spans: %d written to %s", b.tr.len(), path)
	}
	b.print()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// print writes the report lines, every mismatch, and the result object as
// the last line.
func (b *bench) print() {
	for _, n := range b.notes {
		fmt.Println(n)
	}
	listed := func(tag string, lines []string) {
		for i, l := range lines {
			if i == 50 {
				fmt.Printf("%s ... %d more\n", tag, len(lines)-i)
				return
			}
			fmt.Println(tag, l)
		}
	}
	listed("MISMATCH", b.mismatches)
	listed("FAILED", b.errs)
	metrics := b.e2e
	if b.traced {
		metrics = b.layer
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.attempted > 0 && b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// timeSetup runs build setupMin to setupMax times and records the median
// as setup_s. Every build but the last is discarded through drop.
func timeSetup[T any](b *bench, build func() (T, error), drop func(T)) (T, error) {
	var last T
	var times []float64
	var spent time.Duration
	for i := 0; i < setupMin || (i < setupMax && spent < setupBudget); i++ {
		if i > 0 {
			drop(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		took := time.Since(start)
		spent += took
		times = append(times, took.Seconds())
		last = v
	}
	b.set(b.e2e, "setup_s", median(times), "s")
	return last, nil
}

// --- statistics and helpers ------------------------------------------------

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sameWords(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// werCounter accumulates word errors (Levenshtein distance) and reference
// words.
type werCounter struct{ errs, words int }

func (w *werCounter) add(ref, hyp []int32) {
	prev := make([]int, len(hyp)+1)
	cur := make([]int, len(hyp)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ref); i++ {
		cur[0] = i
		for j := 1; j <= len(hyp); j++ {
			sub := prev[j-1]
			if ref[i-1] != hyp[j-1] {
				sub++
			}
			cur[j] = min(sub, prev[j]+1, cur[j-1]+1)
		}
		prev, cur = cur, prev
	}
	w.errs += prev[len(hyp)]
	w.words += len(ref)
}

func (w *werCounter) pct() float64 { return 100 * ratio(float64(w.errs), float64(w.words)) }

// cpuTicks is the stolen and total CPU time of the machine, in ticks.
type cpuTicks struct{ steal, total float64 }

// readCPUTicks reads the aggregate line of /proc/stat; it returns zeros
// where that file is missing.
func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64) // a malformed field counts as 0
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t
}

func stealShare(a, b cpuTicks) float64 { return ratio(b.steal-a.steal, b.total-a.total) }

// cpuSeconds reads the user and system CPU time of a process, all its
// threads included, from /proc/<pid>/stat (fields 14 and 15, in ticks of
// 1/100 s, Linux's USER_HZ).
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("cpu time: %w", err)
	}
	// The command name, field 2, is parenthesized and may hold spaces.
	_, rest, ok := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("cpu time: short /proc/%d/stat", pid)
	}
	var ticks float64
	for _, field := range f[11:13] { // utime, stime: fields 14 and 15
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, fmt.Errorf("cpu time: %w", err)
		}
		ticks += v
	}
	return ticks / 100, nil
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the CPU time of the calling thread, to the nanosecond;
// the caller locks its goroutine to the thread. getrusage(RUSAGE_THREAD)
// is not used: it counts in scheduler ticks of 4 ms, a third of a short
// decode.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		fatal(fmt.Errorf("thread cpu time: %w", errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB reads a process's high-water resident set size (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/%d/status", pid)
}
