package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procTable reads a /proc/net table of "Proto: names" / "Proto: values"
// line pairs (snmp) and returns one field, 0 when absent.
func procTable(path, proto, field string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var names []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != proto+":" {
			continue
		}
		if names == nil {
			names = fields
			continue
		}
		for i, n := range names {
			if n == field && i < len(fields) {
				v, _ := strconv.ParseInt(fields[i], 10, 64)
				return v
			}
		}
		return 0
	}
	return 0
}

func udpRcvbufErrors() int64 { return procTable("/proc/net/snmp", "Udp", "RcvbufErrors") }
func tcpActiveOpens() int64  { return procTable("/proc/net/snmp", "Tcp", "ActiveOpens") }

// tcpTimeWait returns the TIME_WAIT socket count from /proc/net/sockstat
// ("TCP: inuse 4 orphan 0 tw 12 ..."), -1 when unreadable.
func tcpTimeWait() int64 {
	b, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(fields); i += 2 {
			if fields[i] == "tw" {
				v, _ := strconv.ParseInt(fields[i+1], 10, 64)
				return v
			}
		}
	}
	return -1
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) count at the
// current resident set.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported: the peak spans passes
}

// procSample is the process-wide cost counters at one instant.
type procSample struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
	numGC      uint32
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
}

func (a procSample) sub(b procSample) procSample {
	return procSample{cpu: a.cpu - b.cpu, totalAlloc: a.totalAlloc - b.totalAlloc, numGC: a.numGC - b.numGC}
}

// treeDigest hashes the Go sources and module files under root in path
// order, skipping hidden directories such as the build output.
func treeDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostSpeed measures how fast this machine runs right now, for the run
// record: SHA-256 over a 1 MiB buffer (compute-bound) and copies of an
// 8 MiB buffer (memory-bound), in MiB/s, 100 ms each. On shared machines
// both drift with the neighbours' load, memory-bound work far more, and
// the workloads' figures drift with them. The buffers are handed back to
// the OS before the workload starts, so peak memory is the workload's.
func hostSpeed() (hashMiBs, copyMiBs float64) {
	hashMiBs, copyMiBs = measureHost()
	debug.FreeOSMemory()
	return hashMiBs, copyMiBs
}

func measureHost() (hashMiBs, copyMiBs float64) {
	rate := func(mib float64, f func()) float64 {
		n, start := 0, time.Now()
		for time.Since(start) < 100*time.Millisecond {
			f()
			n++
		}
		return mib * float64(n) / time.Since(start).Seconds()
	}
	small, src, dst := make([]byte, 1<<20), make([]byte, 8<<20), make([]byte, 8<<20)
	for i := range src {
		src[i] = byte(i)
	}
	hashMiBs = rate(1, func() { sha256.Sum256(small) })
	copyMiBs = rate(8, func() { copy(dst, src) })
	return hashMiBs, copyMiBs
}
