package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procStatus reads one "Key: value kB" field of /proc/<pid>/status in MB.
func procStatusMB(pid int, key string) float64 {
	raw, err := os.ReadFile("/proc/" + pidPath(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line[len(key)+1:])
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) time.Duration {
	raw, err := os.ReadFile("/proc/" + pidPath(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks (100 Hz).
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

func pidPath(pid int) string {
	if pid == 0 {
		return "self"
	}
	return strconv.Itoa(pid)
}

// dirStats returns the total size of the regular files under dir and the
// number of SSTable files among them.
func dirStats(dir string) (bytes int64, sstables int) {
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			bytes += info.Size()
		}
		if strings.HasSuffix(path, ".sst") {
			sstables++
		}
		return nil
	})
	return bytes, sstables
}
