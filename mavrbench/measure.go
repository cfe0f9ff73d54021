package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupTimes is the duration of each set-up and the reference speed
// measured between them.
type setupTimes struct {
	d      []time.Duration
	factor float64
}

// repeatSetup performs a workload's set-up several times, at least
// three and until a second has been spent (at most fifteen), releasing
// every result but the last, which it returns with each duration;
// setup_s is their median. Before each set-up it samples ref (if not
// nil) twice, so that setup_s is scaled by the speed of its own moment.
func repeatSetup[T any](setup func() (T, error), release func(T), ref *speedRef) (T, setupTimes, error) {
	const minReps, maxReps, minTotal = 3, 15, time.Second
	var ds []time.Duration
	var total time.Duration
	var cur T
	for i := 0; i < maxReps; i++ {
		if i > 0 {
			release(cur)
		}
		if ref != nil {
			ref.sample(2)
		}
		t0 := time.Now()
		var err error
		if cur, err = setup(); err != nil {
			return cur, setupTimes{}, err
		}
		d := time.Since(t0)
		ds = append(ds, d)
		total += d
		if i+1 >= minReps && total >= minTotal {
			break
		}
	}
	return cur, setupTimes{d: ds, factor: ref.restart()}, nil
}

// environment records what a result was measured on.
func environment(root string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commitID(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the measured source: the git revision when the tree
// is a repository, otherwise a digest of the Go sources and goldens
// (a benchmark checkout carries no .git).
func commitID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return "git:" + strings.TrimSpace(string(b))
			}
		} else {
			return "git:" + ref
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || strings.HasSuffix(name, ".jsonl") {
			b, err := os.ReadFile(path)
			if err == nil {
				rel, _ := filepath.Rel(root, path)
				h.Write([]byte(rel))
				h.Write(b)
			}
		}
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	u, s, _ := usage()
	return u + s
}

// usage is the process's user and system CPU time and minor page
// faults so far.
func usage() (user, sys time.Duration, minflt int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano()), ru.Minflt
}

// processPeakRSSMB is the resident-set high-water mark of the process
// since it started or, once resetPeakRSS has run, since the last reset.
func processPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current RSS, after handing the heap the set-up left
// behind back to the OS, so that windowPeakRSSMB covers only what
// follows. It reports whether the kernel accepted the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.Write([]byte("5"))
	return f.Close() == nil && err == nil
}

// peakRSSMB is VmHWM, the high-water mark since the process started or
// since the last reset.
func peakRSSMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// window measures one timed phase: wall, CPU, heap allocation and the
// resident-set peak.
type window struct {
	wall0       time.Time
	user0, sys0 time.Duration
	minflt0     int64
	bytes0      uint64
	allocs0     uint64
	gcs0        uint32
	peakReset   bool
	priorPeakMB float64 // the peak before the window: set-up and anything between windows
}

func startWindow() window {
	prior, _ := peakRSSMB()
	reset := resetPeakRSS()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u, s, f := usage()
	return window{wall0: time.Now(), user0: u, sys0: s, minflt0: f, bytes0: ms.TotalAlloc, allocs0: ms.Mallocs, gcs0: ms.NumGC, peakReset: reset, priorPeakMB: prior}
}

// span is the measured totals of a closed window. peakMB is the
// resident-set peak within it; when the kernel refused the reset it is
// the process's whole-life peak and processPeak is set. priorPeakMB is
// the peak outside the window, before it.
type span struct {
	wall        time.Duration
	cpu         time.Duration
	sys         time.Duration
	minflt      int64
	bytes       uint64
	allocs      uint64
	gcs         uint32
	peakMB      float64
	processPeak bool
	priorPeakMB float64
}

func (w window) stop() span {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u, s, f := usage()
	peak, ok := peakRSSMB()
	if !w.peakReset || !ok {
		peak, ok = processPeakRSSMB(), false
	}
	return span{
		wall:        time.Since(w.wall0),
		cpu:         u + s - w.user0 - w.sys0,
		sys:         s - w.sys0,
		minflt:      f - w.minflt0,
		bytes:       ms.TotalAlloc - w.bytes0,
		allocs:      ms.Mallocs - w.allocs0,
		gcs:         ms.NumGC - w.gcs0,
		peakMB:      peak,
		processPeak: !ok,
		priorPeakMB: w.priorPeakMB,
	}
}

// add folds another window's totals into s.
func (s *span) add(o span) {
	s.wall += o.wall
	s.cpu += o.cpu
	s.sys += o.sys
	s.minflt += o.minflt
	s.bytes += o.bytes
	s.allocs += o.allocs
	s.gcs += o.gcs
	s.peakMB = max(s.peakMB, o.peakMB)
	s.priorPeakMB = max(s.priorPeakMB, o.priorPeakMB)
	s.processPeak = s.processPeak || o.processPeak
}

// setEndToEnd fills the end-to-end metrics every workload reports from
// a measured window over ops units of work and the set-up times. The
// time metrics are scaled by the reference speed (see speedRef): the
// set-up time by the speed measured between set-ups, the others by
// the speed ref measured during the window. Their raw values go to
// details.
func setEndToEnd(o *outcome, s span, ops float64, setups setupTimes, ref *speedRef) {
	secs := make([]float64, len(setups.d))
	for i, d := range setups.d {
		secs[i] = d.Seconds()
	}
	f := ref.factor()
	rate, cpuPerOp, setup := ops/s.wall.Seconds(), float64(s.cpu)/1e6/ops, median(secs)
	o.set("setup_s", setup*setups.factor, "s")
	o.set("ops_per_s", rate/f, "op/s")
	o.set("cpu_ms_per_op", cpuPerOp*f, "ms")
	o.set("alloc_mb_per_op", float64(s.bytes)/(1<<20)/ops, "MB")
	o.set("allocs_per_op", float64(s.allocs)/ops, "count")
	o.set("peak_rss_mb", s.peakMB, "MB")
	o.details["speed_factor"] = f
	o.details["setup_speed_factor"] = setups.factor
	o.details["speed_ref_ms"] = median(ref.samples)
	o.details["speed_ref_samples"] = len(ref.samples)
	o.details["raw_setup_s"] = setup
	o.details["raw_ops_per_s"] = rate
	o.details["raw_cpu_ms_per_op"] = cpuPerOp
	o.details["ops"] = ops
	o.details["wall_s"] = s.wall.Seconds()
	o.details["cpu_s"] = s.cpu.Seconds()
	o.details["sys_s"] = s.sys.Seconds()
	o.details["minor_faults"] = s.minflt
	o.details["gc_cycles"] = s.gcs
	o.details["setup_s_samples"] = secs
	o.details["peak_rss_scope"] = "timed window"
	if s.processPeak {
		o.details["peak_rss_scope"] = "process life (the kernel refused the reset)"
	}
	o.details["peak_rss_before_window_mb"] = s.priorPeakMB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (nearest rank) when at least ten
// samples lie beyond it, so that the figure rests on more than a few
// outliers.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 || n-1-rank < 10 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
