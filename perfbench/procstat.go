package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is user and system CPU time of one process.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// selfCPU reads this process's CPU time with getrusage (microsecond
// resolution).
func selfCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// clockTick is the unit of /proc/<pid>/stat times (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// procCPU reads another process's CPU time from /proc/<pid>/stat.
func procCPU(pid int) (cpuTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space separated. utime and stime are
	// fields 14 and 15 overall, 12 and 13 after the parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return cpuTimes{}, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("/proc/%d/stat: bad times", pid)
	}
	return cpuTimes{time.Duration(ut) * clockTick, time.Duration(st) * clockTick}, nil
}

// statusKB reads a "Name: <n> kB" line of /proc/<pid>/status.
func statusKB(pid int, name string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), name+":")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/status %s: %w", pid, name, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, name)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB;
// 0 when it cannot be read.
func peakRSSMB(pid int) float64 {
	kb, err := statusKB(pid, "VmHWM")
	if err != nil {
		return 0
	}
	return kb * 1024 / 1e6
}

// selfReadBytes is this process's rchar from /proc/self/io: bytes it read
// through read-family system calls, page-cache hits included.
func selfReadBytes() (uint64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "rchar:"); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io: no rchar")
}

// hostCPU is the machine-wide CPU time split of /proc/stat's "cpu" line,
// in clock ticks: the total, and the part the hypervisor ran something
// else while this machine's CPUs wanted to run (steal).
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealPct is the share of CPU time stolen from this machine between two
// readings, in percent. A run that lost much to steal ran slow for
// reasons outside the program.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// rssSampler tracks the highest resident set (VmRSS) a process reaches
// while it runs, sampled every rssInterval.
type rssSampler struct {
	quit chan struct{}
	done chan struct{}
	peak float64 // MB
}

const rssInterval = 10 * time.Millisecond

func startRSSSampler(pid int) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			if kb, err := statusKB(pid, "VmRSS"); err == nil {
				s.peak = max(s.peak, kb*1024/1e6)
			}
			select {
			case <-t.C:
			case <-s.quit:
				return
			}
		}
	}()
	return s
}

// stop ends the sampling, waits for the sampler to exit and returns the
// peak in MB. Later calls return the same peak.
func (s *rssSampler) stop() float64 {
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	<-s.done
	return s.peak
}
