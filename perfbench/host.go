package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// hostInfo fingerprints the machine a result came from, so a figure is
// never quoted without its host.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the VCS revision stamped into the build when it was built
	// inside a git checkout ("+dirty" when the tree had changes);
	// SourceSHA256 identifies the program's and the benchmark's sources
	// either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func currentHost(srcRoot string) hostInfo {
	h := hostInfo{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		Commit:       "unknown",
		SourceSHA256: sourceDigest(srcRoot),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the host does not expose it).
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

// sourceDigest hashes every Go source and go.mod under root (the
// checkout), in path order, skipping hidden directories such as the
// build directory.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries just do not contribute
		}
		name := d.Name()
		if d.IsDir() && p != root && strings.HasPrefix(name, ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
	}
	if len(paths) == 0 {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runtimeSnap holds the runtime counters whose deltas give the runtime
// layer's metrics.
type runtimeSnap struct {
	gcCPU    float64 // runtime's estimate of GC CPU seconds
	totalCPU float64 // runtime's estimate of all CPU seconds available
	idleCPU  float64
	allocs   uint64 // cumulative heap allocation bytes
	procCPU  time.Duration
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// snapRuntime reads the counters. The runtime refreshes its CPU-class
// estimates only at GC, so callers take snapshots after runtime.GC.
func snapRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	snap := runtimeSnap{gcCPU: val(0), totalCPU: val(1), idleCPU: val(2), procCPU: processCPU()}
	if s[3].Value.Kind() == metrics.KindUint64 {
		snap.allocs = s[3].Value.Uint64()
	}
	return snap
}

// processCPU is the CPU time of all the process's threads.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// onCPU runs fn with the goroutine locked to its thread and returns fn's
// wall time and the thread's CPU time over it: the operation's own work
// and the GC assists it paid, not the runtime's background GC workers.
func onCPU(fn func()) (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPU(), time.Now()
	fn()
	return time.Since(t0), threadCPU() - c0
}

// runtimeLayer derives the runtime layer's metrics over ops operations.
func runtimeLayer(before, after runtimeSnap, ops int) (gcShare, cpuMSPerOp, allocMBPerOp float64) {
	busy := (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	gcShare = ratio(after.gcCPU-before.gcCPU, busy)
	cpuMSPerOp = ratio(float64(after.procCPU-before.procCPU)/float64(time.Millisecond), float64(ops))
	allocMBPerOp = ratio(float64(after.allocs-before.allocs)/(1<<20), float64(ops))
	return
}

// heapSampler tracks the peak of live-and-unswept heap object bytes
// while a timed section runs. Its goroutine sleeps between reads, so it
// is not one of the workload's working goroutines.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}
