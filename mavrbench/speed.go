package main

import (
	"crypto/sha256"
	"time"
)

// The benchmark runs on a shared host. Other tenants' load moves the
// speed of the same code by 10 to 25% over tens of seconds to minutes,
// and the process's CPU time moves with it (a one-goroutine replay of
// the goldens took 1.5 s to 3.2 s per pass within four minutes), so
// neither wall nor CPU time repeats from run to run. Each run therefore
// also times a fixed reference computation that does not touch the
// program, between its set-ups and between its ops, and reports its
// time metrics scaled to the speed at which that computation takes
// refNominalMS: when the reference ran a third slower, the run's rates
// are raised and its times lowered by that third. The raw figures and
// the factors are in details.
//
// The reference exercises what a neighbour takes from the emulator:
// memory bandwidth (sequential writes over a buffer eight times a
// core's 2 MiB L2 cache), branch prediction (a byte-code interpreter loop
// over random code) and arithmetic (SHA-256). Timed before each golden
// replay over four minutes, its time moved with the replay's
// (correlation 0.8 per pass), and scaling by it cut the spread of the
// replay rate over 30 s windows from 0.12 to about 0.05 of the median.
// It moves by less than the program (a 1.4 times slowdown where the
// replay's was 1.7), so it removes most of a slowdown, not all.
const (
	refStreamBytes = 16 << 20
	refCodeBytes   = 1 << 16
	refSteps       = 350_000
	refHashes      = 500
	refEvery       = 500 * time.Millisecond // between samples inside a timed loop
	refNominalMS   = 13.5                   // the reference's median time on the 2-vCPU Xeon host the bounds were set on
)

// speedRef samples the reference computation.
type speedRef struct {
	stream  []uint64
	code    []byte
	block   []byte
	samples []float64 // ms per run of the reference
	wall    time.Duration
	cpu     time.Duration
	last    time.Time
	sink    uint64
}

func newSpeedRef() *speedRef {
	r := &speedRef{
		stream: make([]uint64, refStreamBytes/8),
		code:   make([]byte, refCodeBytes),
		block:  make([]byte, 4096),
	}
	x := uint32(12345)
	for i := range r.code {
		x = x*1664525 + 1013904223
		r.code[i] = byte(x >> 24)
	}
	return r
}

func (r *speedRef) compute() {
	for i := range r.stream {
		r.stream[i] = uint64(i) ^ r.sink
	}
	var regs [8]uint32
	pc := 0
	mask := len(r.code) - 1
	for i := 0; i < refSteps; i++ {
		op := r.code[pc]
		d := op & 7
		switch op >> 5 {
		case 0:
			regs[d] += uint32(op)
		case 1:
			regs[d] ^= regs[(d+1)&7]
		case 2:
			regs[d] = regs[d]<<1 | regs[d]>>31
		case 3:
			regs[d] -= regs[(d+3)&7]
		case 4:
			if regs[d]&1 == 0 {
				pc += int(op & 15)
			}
		case 5:
			regs[d] = uint32(r.code[(int(regs[d])+pc)&mask])
		case 6:
			regs[d] *= 3
		default:
			regs[d] |= uint32(pc)
		}
		pc = (pc + 1) & mask
	}
	r.sink += uint64(regs[0] + regs[5])
	for i := 0; i < refHashes; i++ {
		r.block[0] = byte(i)
		sum := sha256.Sum256(r.block)
		r.sink += uint64(sum[0])
	}
}

// sample times the reference n times. The time it takes is counted in
// r.wall and r.cpu, so that a timed window it ran in can leave it out.
func (r *speedRef) sample(n int) {
	t0, c0 := time.Now(), cpuTime()
	for i := 0; i < n; i++ {
		s := time.Now()
		r.compute()
		r.samples = append(r.samples, ms(time.Since(s)))
	}
	r.wall += time.Since(t0)
	r.cpu += cpuTime() - c0
	r.last = time.Now()
}

// every samples once if refEvery has passed since the last sample. A
// nil *speedRef samples nothing.
func (r *speedRef) every() {
	if r != nil && time.Since(r.last) >= refEvery {
		r.sample(1)
	}
}

// factor is the speed of this run's machine relative to the nominal
// one: above 1 when the reference ran faster than refNominalMS.
func (r *speedRef) factor() float64 {
	return refNominalMS / median(r.samples)
}

// restart returns the factor of the samples so far and starts a new
// series; a nil *speedRef returns 1.
func (r *speedRef) restart() float64 {
	if r == nil {
		return 1
	}
	f := r.factor()
	r.samples, r.wall, r.cpu = nil, 0, 0
	return f
}

// exclude takes the reference's own time out of a window it ran in.
func (s *span) exclude(r *speedRef) {
	s.wall -= r.wall
	s.cpu -= r.cpu
}
