package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// vmHWM reads a process's peak resident set size in MB; pid 0 means this
// process.
func vmHWM(pid int) (float64, error) { return procStatusMB(pid, "VmHWM:") }

// procStatusMB reads one kB field of /proc/<pid>/status in MB.
func procStatusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %s %w", path, field, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s line", path, field)
}

// rssEvery is the resident-set sampling period: 100 samples a second,
// so a run of a few seconds has a p90 the percentile rule admits.
const rssEvery = 10 * time.Millisecond

// rssSampler records a process's resident set size (VmRSS) every
// rssEvery until stopped. A single peak (VmHWM) moves with the garbage
// collector's timing; a high percentile of the samples repeats.
type rssSampler struct {
	once       sync.Once
	stop, done chan struct{}
	mb         []float64
}

// sampleRSS starts sampling pid (0 means this process).
func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, err := procStatusMB(pid, "VmRSS:"); err == nil {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends the sampling and returns the samples in MB. It may be called
// more than once.
func (s *rssSampler) Stop() []float64 {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return s.mb
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time another process has used.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	fields := strings.Fields(s[i+1:])
	// utime and stime are fields 14 and 15 of the full line, 12 and 13
	// after the pid and command name.
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// usage is a snapshot of this process's resource counters.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user + system, all threads
	gcCPU    float64       // runtime estimate of GC CPU seconds
	totalCPU float64       // runtime estimate of all CPU seconds
	allocB   uint64        // cumulative heap bytes allocated
	allocN   uint64        // cumulative heap objects allocated
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		allocB:   s[2].Value.Uint64(),
		allocN:   s[3].Value.Uint64(),
	}
}

// usageDelta is what one measured interval cost this process.
type usageDelta struct {
	cores     float64 // CPU time over wall time
	gcCPUFrac float64 // GC share of the runtime's CPU estimate
	allocMB   float64
	mallocs   float64
}

func since(a usage) usageDelta {
	b := snapshot()
	d := usageDelta{
		allocMB: float64(b.allocB-a.allocB) / (1 << 20),
		mallocs: float64(b.allocN - a.allocN),
	}
	if wall := b.wall.Sub(a.wall).Seconds(); wall > 0 {
		d.cores = (b.cpu - a.cpu).Seconds() / wall
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}
