package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB is the process's peak resident set size in MB (ru_maxrss is
// in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// cpuTime is the CPU time the process has used, user plus system, over
// all its threads. On a virtual machine it leaves out time the host
// stole from the guest, which wall time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the host-stolen time of all CPUs from /proc/stat, in
// clock ticks; 0 where the file or the field does not exist.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}
