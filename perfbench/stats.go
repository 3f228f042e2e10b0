package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is a set of raw measurements. Percentiles come from the sorted
// samples themselves (nearest rank), never from bucketed histograms, so
// two runs of the same code agree to within the samples' own spread.
type samples []float64

// sorted returns a sorted copy.
func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// pct returns the nearest-rank p-th percentile (0 < p <= 100); NaN when
// empty.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return rank(s.sorted(), p)
}

func rank(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median is the 50th percentile, averaging the middle pair.
func (s samples) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// tailPcts are the candidate tail percentiles, highest first.
var tailPcts = []float64{99.99, 99.9, 99, 95, 90, 75}

// tail returns the highest candidate percentile with at least ten samples
// beyond it, and its value; ok=false when even p75 lacks ten.
func (s samples) tail() (p, v float64, ok bool) {
	c := s.sorted()
	for _, p := range tailPcts {
		if float64(len(c))*(1-p/100) >= 10 {
			return p, rank(c, p), true
		}
	}
	return 0, 0, false
}

// describe renders a timing as its median and highest trustworthy
// percentile with the sample count, scaled by div into unit.
func (s samples) describe(div float64, unit string) string {
	if len(s) == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("p50 %.4g %s", s.median()/div, unit)
	if p, v, ok := s.tail(); ok {
		out += fmt.Sprintf(", p%g %.4g %s", p, v/div, unit)
	}
	c := s.sorted()
	return out + fmt.Sprintf(" (n=%d, range %.4g-%.4g)", len(s), c[0]/div, c[len(c)-1]/div)
}

// durations converts durations to float seconds.
func durations(ds []time.Duration) samples {
	out := make(samples, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB returns the peak resident set (VmHWM) of a process in MB;
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns another process's user+system CPU time from
// /proc/<pid>/stat (clock-tick resolution).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// After ')' the fields start at "state" (field 3): utime is field 14,
	// stime field 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc/%d/stat", pid)
	}
	const ticks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticks, nil
}
