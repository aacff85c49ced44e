package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"unsafe"
)

// The host-speed reference of the offline workloads.
//
// On a shared host a vCPU's speed moves by tens of percent over seconds
// to minutes without any CPU steal, as other guests load the core and the
// shared L3, and a run-to-run spread follows it. So after each
// RecognizeBatch call a run times two fixed kernels of its own, and
// reports the offline timings divided by how much slower than refMatMs
// and refChaseMs the kernels ran: the geometric mean of the two ratios.
//
//   - mat: float32 matrix-vector products over a 1 MiB matrix that stays in
//     a core's L2, like acoustic scoring.
//   - chase: a dependent walk over a 16 MiB random cycle that stays in the
//     shared L3 but not in L2, like the search's hash and arc lookups.
//
// Both are timed by their thread's CPU time, so CPU steal and the
// scheduler do not enter. STEADINESS.md gives the spreads with and
// without the correction.
//
// The kernels call nothing in the repo. A change to the program moves them
// only by work it leaves running after its calls return; each run prints
// the factor.
const (
	refMatRows   = 512
	refMatCols   = 512
	refMatPasses = 200
	refChaseLen  = 4 << 20 // int32 slots: 16 MiB
	refChaseHops = 1 << 20
	// The kernels' medians on the 2-vCPU host the bounds were set on.
	// They only scale the reported figures: a run's factor is its own
	// medians over these.
	refMatMs   = 60.0
	refChaseMs = 170.0
)

// refSink keeps the kernels' results live.
var refSink float32

// hostRef holds the reference kernels' buffers, mapped outside the Go
// heap so that they neither move the collector's pacing nor count as
// program memory (peakRSSMB of an offline run subtracts refBytes).
type hostRef struct {
	mat, vec []float32
	next     []int32
	matMs    []float64
	chaseMs  []float64
}

const refBytes = (refMatRows*refMatCols + refMatCols + refChaseLen) * 4

func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("map host reference: %w", err)
	}
	f := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), refMatRows*refMatCols+refMatCols)
	h := &hostRef{
		mat:  f[:refMatRows*refMatCols],
		vec:  f[refMatRows*refMatCols:],
		next: unsafe.Slice((*int32)(unsafe.Pointer(&mem[len(f)*4])), refChaseLen),
	}
	for i := range h.mat {
		h.mat[i] = float32(i%13) * 0.01
	}
	for i := range h.vec {
		h.vec[i] = 1 / float32(i+1)
	}
	// Sattolo's shuffle: one cycle through every slot, with a fixed seed
	// so that every run walks the same cycle.
	for i := range h.next {
		h.next[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(h.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		h.next[i], h.next[j] = h.next[j], h.next[i]
	}
	return h, nil
}

// sample times each kernel once. A nil hostRef samples nothing.
func (h *hostRef) sample() {
	if h == nil {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	var s float32
	for p := 0; p < refMatPasses; p++ {
		for r := 0; r < refMatRows; r++ {
			row := h.mat[r*refMatCols : (r+1)*refMatCols]
			var a float32
			for i, x := range row {
				a += x * h.vec[i]
			}
			s += a
		}
	}
	t1 := threadCPU()
	j := int32(0)
	for i := 0; i < refChaseHops; i++ {
		j = h.next[j]
	}
	t2 := threadCPU()
	refSink += s + float32(j)
	h.matMs = append(h.matMs, ms(t1-t0))
	h.chaseMs = append(h.chaseMs, ms(t2-t1))
}

// factor is how many times slower than the reference medians the host ran
// over the samples: 1 on a host as fast as the one the constants were
// measured on, 1.2 on one a fifth slower.
func (h *hostRef) factor() float64 {
	return math.Sqrt(median(h.matMs) / refMatMs * median(h.chaseMs) / refChaseMs)
}

// note reports the kernels' medians and the factor.
func (h *hostRef) note(b *bench) {
	b.note("host reference: %d samples, mat median %.2f ms (reference %.0f), chase median %.2f ms (reference %.0f), factor %.4f",
		len(h.matMs), median(h.matMs), refMatMs, median(h.chaseMs), refChaseMs, h.factor())
}
