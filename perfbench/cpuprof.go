package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuModules are the layers CPU samples are attributed to, besides the
// program's own packages: encoding/json, net/http and the Go runtime (GC,
// maps, scheduler, allocation).  Samples with no frame in any of them
// (the benchmark's own code, other standard-library packages) count as
// "other".
var cpuModules = []string{
	"plan", "emul", "sched", "lp", "milp", "gdfs", "nebula", "migrate", "wan",
	"vm", "predict", "core", "anneal", "energy", "cost", "location", "weather",
	"series", "json", "http", "runtime", "other",
}

// cpuProfile is a CPU profile being written to a file.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and folds its samples into per-module shares of
// CPU time, reading the profile with the toolchain's `go tool pprof`.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", exe, p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(out)
}

// foldTraces attributes each sample of `pprof -traces` output to the
// innermost frame that belongs to a module in cpuModules, and returns each
// module's share of all sampled CPU time.
func foldTraces(out []byte) (map[string]float64, error) {
	totals := make(map[string]float64)
	var sum float64
	var value float64
	module := ""
	flush := func() {
		if value > 0 {
			if module == "" {
				module = "other"
			}
			totals[module] += value
			sum += value
		}
		value, module = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSample := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		if !inSample {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fn := fields[len(fields)-1]
		if len(fields) >= 2 && value == 0 {
			// The first line of a sample carries its value, e.g. "10ms".
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value %q", fields[0])
			}
			value = float64(d)
		}
		if module == "" {
			module = moduleOf(fn)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = 0
		if sum > 0 {
			shares[m] = totals[m] / sum
		}
	}
	return shares, nil
}

// moduleOf maps a fully qualified function name to its module, or "" when
// the frame belongs to none of cpuModules except "other".
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "greencloud/internal/"):
		rest := strings.TrimPrefix(fn, "greencloud/internal/")
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
		return ""
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "net/http."):
		return "http"
	case strings.HasPrefix(fn, "runtime."):
		return "runtime"
	}
	return ""
}
