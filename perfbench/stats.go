package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail metric may report, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tail returns the highest percentile of the ladder that has at least ten
// samples beyond it, its value (nearest rank) and the sample count. When no
// percentile of the ladder qualifies, it returns the maximum (p100).
func tail(xs []float64) (p, value float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		// Nearest rank: the sample at rank ceil(p/100 * n); everything
		// after it lies beyond the percentile.
		rank := int(math.Ceil(p * float64(n) / 100))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return p, s[rank-1], n
		}
	}
	return 100, s[n-1], n
}

// percentileName formats a percentile as p99, p95 or max.
func percentileName(p float64) string {
	if p >= 100 {
		return "max"
	}
	return "p" + strconv.FormatFloat(p, 'f', -1, 64)
}

// digest is the short content digest of one operation's canonical result:
// the first four bytes of the SHA-256 of its JSON encoding, in hex.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable:" + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:4])
}

// resetPeakRSS resets the process's peak resident set size to its current
// size, so that the next peakRSSMiB reads the peak since now.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fsTypes names the filesystem magic numbers statfs reports for common
// Linux filesystems.
var fsTypes = map[int64]string{
	0xEF53:     "ext2/ext3/ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
}

// fsType names the filesystem holding dir, where the scratch stores live.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("magic 0x%X", st.Type)
}

// cpuMarks splits the fixed work into segments by process CPU time, and
// records the largest heap retained at the segments' ends. A nil *cpuMarks
// marks nothing.
type cpuMarks struct {
	last time.Duration
	segs []time.Duration
	peak uint64 // bytes
}

func startMarks() *cpuMarks {
	m := &cpuMarks{}
	m.retained()
	m.last = processCPU()
	return m
}

// mark ends the current segment and starts the next. Between the two it
// collects garbage and reads the heap that remains, outside both segments.
func (m *cpuMarks) mark() {
	if m == nil {
		return
	}
	m.segs = append(m.segs, processCPU()-m.last)
	m.retained()
	m.last = processCPU()
}

// retained runs a full collection and records the live heap it leaves. The
// collection is forced, so the figure holds exactly the objects the work
// still references, whenever the collector would have run on its own.
func (m *cpuMarks) retained() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.peak = max(m.peak, ms.HeapAlloc)
}

// peakMiB is the largest retained heap in MiB.
func (m *cpuMarks) peakMiB() float64 { return float64(m.peak) / (1 << 20) }
