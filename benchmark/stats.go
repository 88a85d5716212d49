package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is a pool of observations of one quantity, in milliseconds on
// the workload's clock (virtual for the three simnet workloads, wall for
// tcp-commit). Percentiles are nearest-rank over the pooled samples of
// every seed in the run.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// percentile returns the nearest-rank q-quantile (0 < q <= 1); 0 when
// the pool is empty.
func (s samples) percentile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// supports reports whether the pool has at least ten samples beyond the
// q-quantile, the rule under which a percentile is worth reading.
func (s samples) supports(q float64) bool {
	return float64(len(s))*(1-q) >= 10
}

func median(v []float64) float64 { return samples(v).percentile(0.5) }

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(n=4)
// does (exclusive method), which is what the driver uses for spreads.
func quartiles(v []float64) (q1, q3 float64) {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n < 2 {
		if n == 1 {
			return c[0], c[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return c[0]
		}
		if lo >= n {
			return c[n-1]
		}
		return c[lo-1] + frac*(c[lo]-c[lo-1])
	}
	return at(1), at(3)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusMB reads one of the kB fields of /proc/self/status, in MB;
// 0 when it cannot.
func procStatusMB(field string) float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, field) {
				f := strings.Fields(line)
				if len(f) >= 2 {
					if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	return 0
}

// peakRSSMB is the peak resident set of this process so far in MB: VmHWM
// from /proc, falling back to getrusage's maxrss (kB on Linux).
func peakRSSMB() float64 {
	if mb := procStatusMB("VmHWM:"); mb > 0 {
		return mb
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// collectedRSSMB is the resident set right after a forced collection that
// hands freed pages back to the system: what the process has to keep. It
// does not depend on where in a collection cycle the caller happens to be,
// which a peak does.
func collectedRSSMB() float64 {
	debug.FreeOSMemory() // runs a collection first
	if mb := procStatusMB("VmRSS:"); mb > 0 {
		return mb
	}
	return peakRSSMB()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
