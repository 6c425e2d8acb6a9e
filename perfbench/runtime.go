package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// runtimeDelta is the Go runtime's work over a measured stretch.
type runtimeDelta struct {
	allocBytes float64
	gcCycles   float64
	gcPauseS   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

// readRuntime samples the cumulative runtime counters.
func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var d runtimeDelta
	if s[0].Value.Kind() == metrics.KindUint64 {
		d.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		d.gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		d.gcPauseS = histogramSum(s[2].Value.Float64Histogram())
	}
	return d
}

func (d runtimeDelta) since(o runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: d.allocBytes - o.allocBytes,
		gcCycles:   d.gcCycles - o.gcCycles,
		gcPauseS:   d.gcPauseS - o.gcPauseS,
	}
}

func (d runtimeDelta) plus(o runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: d.allocBytes + o.allocBytes,
		gcCycles:   d.gcCycles + o.gcCycles,
		gcPauseS:   d.gcPauseS + o.gcPauseS,
	}
}

// histogramSum estimates the total of a duration histogram from bucket
// midpoints (the runtime keeps no exact sum); an open-ended bucket uses
// its finite edge.
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		v := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			v = hi
		case math.IsInf(hi, 1):
			v = lo
		}
		sum += float64(n) * v
	}
	return sum
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// hostSample is one reading of the clocks a timed stretch is charged by.
type hostSample struct {
	wall time.Time
	cpu  float64 // the process's CPU time, user and system, all threads
	// vmBusy and vmSteal are the machine's busy and stolen CPU time from
	// /proc/stat: the time its CPUs ran work, and the time the
	// hypervisor held them back from running it.
	vmBusy, vmSteal float64
}

func readHost() hostSample {
	busy, steal := procStatSeconds()
	return hostSample{wall: time.Now(), cpu: cpuSeconds(), vmBusy: busy, vmSteal: steal}
}

// hostSeconds is the wall time from a to b with the hypervisor's steal
// from this process taken out. The process's share of the machine's
// steal is its share of the machine's busy time. Spread over the
// process's average parallelism, that steal lengthened the wall time by
// the factor (cpu+steal)/cpu. Time the process spends idle, at a
// barrier or waiting for a worker, is not steal, so it still counts: a
// change that loses parallel overlap shows. Without /proc/stat the
// result is the plain wall time.
func hostSeconds(a, b hostSample) float64 {
	wall := b.wall.Sub(a.wall).Seconds()
	cpu := b.cpu - a.cpu
	stolen := (b.vmSteal - a.vmSteal) * math.Min(1, ratio(cpu, b.vmBusy-a.vmBusy))
	if cpu <= 0 || stolen <= 0 {
		return wall
	}
	return wall * cpu / (cpu + stolen)
}

// procStatSeconds returns the machine's busy and stolen CPU seconds from
// the first line of /proc/stat (user, nice, system, idle, iowait, irq,
// softirq, steal, in clock ticks), or zeros where it is unavailable.
func procStatSeconds() (busy, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var t [8]float64
	for i := range t {
		if t[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return 0, 0
		}
	}
	return (t[0] + t[1] + t[2] + t[5] + t[6]) / clockTicksPerSecond, t[7] / clockTicksPerSecond
}

// clockTicksPerSecond is Linux's USER_HZ, the unit of /proc/stat.
const clockTicksPerSecond = 100

// cpuSeconds returns the CPU time the process has used so far, user and
// system, over all threads. Time the hypervisor stole is not in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// threadCPUSeconds returns the CPU time of the calling OS thread. Set-up
// runs serially on one locked thread; its CPU time excludes the
// runtime's background threads, whose sporadic work would otherwise
// swamp a set-up of a few hundred microseconds.
func threadCPUSeconds() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano()).Seconds()
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3
