package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is the header of every result: what ran, on what.
type environment struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	Pool       int    `json:"pool"`
}

func readEnvironment() environment {
	e := environment{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: "unknown", Pool: poolSize(),
	}
	// The driver's checkout is not a git repository: the commit is best effort.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	e.L2 = cacheSize("index2")
	e.L3 = cacheSize("index3")
	return e
}

func cacheSize(index string) string {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + index + "/size")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
