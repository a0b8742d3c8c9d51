package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of the samples:
// the smallest sample with at least q·n samples at or below it. Failed
// operations enter latency slices as +Inf, so they count as missing any
// latency limit. The slice is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the midpoint median (the mean of the two middle samples for an
// even count); the slice is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean is the arithmetic mean; a failed operation's +Inf makes it +Inf.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durMedian(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// procField reads one numeric "key: value" field of a /proc/self file
// (status values carry a trailing "kB"). It returns -1 when the file or
// field is missing, e.g. on a kernel without per-task I/O accounting.
func procField(file, key string) int64 {
	b, err := os.ReadFile("/proc/self/" + file)
	if err != nil {
		return -1
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			return -1
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return -1
		}
		return n
	}
	return -1
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 { return float64(procField("status", "VmHWM")) / 1024 }

// wchar is the process's cumulative count of bytes passed to write-class
// system calls (/proc/self/io), the file-system traffic an ingest causes.
func wchar() int64 { return procField("io", "wchar") }

// gcSample is a runtime/metrics reading of the allocator and collector.
type gcSample struct {
	allocBytes, allocObjs, cycles uint64
	gcCPU, totalCPU               float64
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcSample{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		cycles:     s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

func (a gcSample) sub(b gcSample) gcSample {
	return gcSample{
		allocBytes: a.allocBytes - b.allocBytes,
		allocObjs:  a.allocObjs - b.allocObjs,
		cycles:     a.cycles - b.cycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}
