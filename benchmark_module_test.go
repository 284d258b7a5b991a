package op2hpx

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchmarkModuleBuilds builds and vets the benchmark, a separate
// module that imports this one: a change to the op2 surface that breaks
// it fails `go test ./...` here instead of only when the benchmark runs.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark module; skipped in -short")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, args := range [][]string{
		{"build", "-C", "benchmark", "-o", t.TempDir(), "./..."},
		{"vet", "-C", "benchmark", "./..."},
	} {
		cmd := exec.Command(goTool, args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go %v: %v\n%s", args, err, out)
		}
	}
}
