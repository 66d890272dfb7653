package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// buildDir holds the binaries the subprocess workloads run, inside the
// checkout and ignored by git.
const buildDir = ".bench_build"

// binaries are the real programs the benchmark drives.
type binaries struct {
	Wildreport string
	Wildsvc    string
}

// findRoot walks up from the working directory to the goingwild module
// root (the directory whose go.mod declares "module goingwild").
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isModuleRoot(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no goingwild module root above the working directory")
		}
		dir = parent
	}
}

func isModuleRoot(gomod string) bool {
	f, err := os.Open(gomod)
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[0] == "module" {
			return fields[1] == "goingwild"
		}
	}
	return false
}

// buildBinaries compiles wildreport and wildsvc from the checkout's
// source. It always invokes the go tool, which relinks only what is
// stale, so a results file can never describe an outdated binary. The
// elapsed time depends on build-cache state, not on the program, which
// is why it is reported as bench.build_s and kept out of setup_s.
func buildBinaries(root string) (binaries, time.Duration, error) {
	start := time.Now()
	out := filepath.Join(root, buildDir)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return binaries{}, 0, err
	}
	cmd := exec.Command("go", "build", "-o", out+string(filepath.Separator), "./cmd/wildreport", "./cmd/wildsvc")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, 0, fmt.Errorf("bench: go build: %w\n%s", err, msg)
	}
	return binaries{
		Wildreport: filepath.Join(out, "wildreport"),
		Wildsvc:    filepath.Join(out, "wildsvc"),
	}, time.Since(start), nil
}
