package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapAllocBytes is the process's cumulative heap allocation: the
// difference of two readings is what the code between them allocated
// (plus anything a concurrent goroutine allocated meanwhile).
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user+system CPU time so far (0 where the
// platform does not report it).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set from /proc (Linux);
// elsewhere it reports 0.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// provenance records where and on what a result was measured.
type provenance struct {
	NumCPU         int      `json:"nproc"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	GoVersion      string   `json:"go_version"`
	Commit         string   `json:"commit"`
	SourceDigest   string   `json:"source_sha256"`
	DefaultEngine  string   `json:"default_engine"`
	SessionWorkers int      `json:"session_workers"`
	Workload       string   `json:"workload"`
	Seed           uint64   `json:"seed"`
	Inputs         string   `json:"inputs"`
	HeldOutSeeds   []uint64 `json:"held_out_seeds"`
}

// heldOutSeed is never used while tuning the benchmark or a change; a
// later performance claim must also hold on it.
const heldOutSeed = 9001

func hostProvenance(root string) provenance {
	return provenance{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(root),
		SourceDigest: sourceDigest(root),
		HeldOutSeeds: []uint64{heldOutSeed},
	}
}

// commit names the measured revision: git's HEAD when the checkout is a
// repository, else "unknown" (the source digest still identifies the
// code).
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under the module root
// except the benchmark's own directory and build outputs, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
