package crashtest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// gate skips unless the crash matrix was asked for explicitly: these
// tests fork, kill, and resume real processes for minutes.
func gate(t *testing.T) {
	t.Helper()
	if os.Getenv("CRASHTEST") == "" {
		t.Skip("set CRASHTEST=1 to run the SIGKILL crash-resume matrix (make crash)")
	}
}

// artifactDir is where mismatching outputs land so CI can upload them.
const artifactDir = "/tmp/crashtest"

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// wildreportBin builds cmd/wildreport once and returns the binary path.
func wildreportBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "crashtest-bin-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "wildreport")
		cmd := exec.Command("go", "build", "-o", buildBin, "goingwild/cmd/wildreport")
		cmd.Dir = "../.." // module root relative to internal/crashtest
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building wildreport: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// runResult is one process run: its streams, duration, and how it died.
type runResult struct {
	stdout, stderr bytes.Buffer
	dur            time.Duration
	exit           int
	killed         bool // SIGKILLed by the harness timer
}

// runOnce runs bin with args under the given GOMAXPROCS, SIGKILLing it
// after killAfter (0 = let it finish).
func runOnce(t *testing.T, bin string, args []string, gomaxprocs string, killAfter time.Duration) *runResult {
	t.Helper()
	res := &runResult{}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &res.stdout
	cmd.Stderr = &res.stderr
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+gomaxprocs)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	var timer *time.Timer
	if killAfter > 0 {
		timer = time.AfterFunc(killAfter, func() { cmd.Process.Kill() })
	}
	err := cmd.Wait()
	if timer != nil {
		timer.Stop()
	}
	res.dur = time.Since(start)
	if err == nil {
		return res
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("waiting for %s: %v", bin, err)
	}
	res.exit = ee.ExitCode()
	if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
		res.killed = true
	}
	return res
}

// saveMismatch writes got/want to the artifact directory for CI upload
// and returns the paths.
func saveMismatch(t *testing.T, name string, got, want []byte) (string, string) {
	t.Helper()
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		t.Fatal(err)
	}
	gp := filepath.Join(artifactDir, name+".got.txt")
	wp := filepath.Join(artifactDir, name+".want.txt")
	os.WriteFile(gp, got, 0o644)
	os.WriteFile(wp, want, 0o644)
	return gp, wp
}

// scenarioArgs is the flag set every run in a scenario shares; the
// checkpoint flags are appended per attempt.
func scenarioArgs(chaos string) []string {
	return []string{"-order", "16", "-exp", "all", "-weeks", "6", "-chaos", chaos}
}

// TestCrashResumeByteIdentity is the main matrix: for each scenario,
// record the uninterrupted stdout, then run the same flags with a
// checkpoint directory, SIGKILLing at seeded-random points and resuming
// (alternating GOMAXPROCS across attempts) until a run completes. The
// completing run's stdout — journaled sections replayed, interrupted
// work redone — must match the uninterrupted run byte for byte.
//
// A checkpoint is saved only at a week commit or a section boundary, so
// most kills land mid-sweep, with up to eight senders running, and the
// resume re-sweeps that week or census. Most rows start on four procs
// and resume on one; the last row flips the other way, so the resumed
// runs — the ones picking up another process's checkpoint — are the ones
// whose senders truly run in parallel when the kill lands.
func TestCrashResumeByteIdentity(t *testing.T) {
	gate(t)
	bin := wildreportBin(t)
	scenarios := []struct {
		chaos string
		// procs is GOMAXPROCS for even (incl. the first) and odd attempts.
		procs [2]string
	}{
		{"clean", [2]string{"4", "1"}}, {"lossy", [2]string{"4", "1"}},
		{"hostile", [2]string{"4", "1"}}, {"flaky", [2]string{"4", "1"}},
		{"hostile", [2]string{"1", "8"}},
	}
	// killQuota kills per scenario keeps the total well past the
	// twenty-point floor while letting each scenario terminate.
	const (
		killQuota   = 5
		maxAttempts = 40
	)
	rng := rand.New(rand.NewSource(0x5EED))
	totalKills := 0
	for _, sc := range scenarios {
		name := fmt.Sprintf("%s-p%s-p%s", sc.chaos, sc.procs[0], sc.procs[1])
		t.Run(name, func(t *testing.T) {
			args := scenarioArgs(sc.chaos)
			base := runOnce(t, bin, args, "4", 0)
			if base.exit != 0 {
				t.Fatalf("baseline failed (exit %d):\n%s", base.exit, base.stderr.String())
			}
			dir := t.TempDir()
			kills := 0
			lastDur := base.dur
			for attempt := 0; ; attempt++ {
				if attempt >= maxAttempts {
					t.Fatalf("no attempt completed after %d tries (%d kills)", maxAttempts, kills)
				}
				runArgs := append(append([]string{}, args...), "-checkpoint", dir)
				if attempt > 0 {
					runArgs = append(runArgs, "-resume")
				}
				// Flip schedulers across attempts: resume state must be
				// insensitive to GOMAXPROCS.
				gmp := sc.procs[attempt%2]
				// While under quota, aim the kill inside the previous
				// attempt's runtime so it actually lands; after quota,
				// let the run finish.
				var killAfter time.Duration
				if kills < killQuota {
					window := lastDur / 2
					if window < 20*time.Millisecond {
						window = 20 * time.Millisecond
					}
					killAfter = 10*time.Millisecond + time.Duration(rng.Int63n(int64(window)))
				}
				res := runOnce(t, bin, runArgs, gmp, killAfter)
				lastDur = res.dur
				if res.killed {
					kills++
					continue
				}
				if res.exit != 0 {
					t.Fatalf("attempt %d exited %d:\n%s", attempt, res.exit, res.stderr.String())
				}
				if !bytes.Equal(res.stdout.Bytes(), base.stdout.Bytes()) {
					gp, wp := saveMismatch(t, name, res.stdout.Bytes(), base.stdout.Bytes())
					t.Fatalf("resumed stdout diverges from uninterrupted run after %d kills; see %s vs %s", kills, gp, wp)
				}
				t.Logf("%s: byte-identical after %d kills, %d attempts", name, kills, attempt+1)
				break
			}
			totalKills += kills
		})
	}
	if totalKills < 20 {
		t.Errorf("matrix landed only %d kills, want >= 20; tighten the kill windows", totalKills)
	}
	t.Logf("matrix total: %d kills", totalKills)
}

// ckptFiles lists the checkpoint generations in dir, oldest first.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "ckpt-") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	return names
}

// TestTornCheckpointFallsBack kills a checkpointed run once two
// generations exist, truncates the newest one mid-file, and requires
// the resume to diagnose the torn snapshot, fall back to the previous
// generation, and still finish with byte-identical output.
func TestTornCheckpointFallsBack(t *testing.T) {
	gate(t)
	bin := wildreportBin(t)
	args := scenarioArgs("hostile")
	base := runOnce(t, bin, args, "4", 0)
	if base.exit != 0 {
		t.Fatalf("baseline failed (exit %d):\n%s", base.exit, base.stderr.String())
	}
	dir := t.TempDir()
	// Kill progressively later until at least two generations are on
	// disk (the store prunes to two, so "at least" means exactly). A
	// run that outlives its kill timer is fine as long as it left two
	// generations behind: tearing the newest still exercises fallback.
	var gens []string
	for frac := 3; ; frac++ {
		if frac > 9 {
			t.Fatalf("never accumulated two checkpoint generations, got %v", gens)
		}
		runArgs := append(append([]string{}, args...), "-checkpoint", dir)
		if frac > 3 {
			runArgs = append(runArgs, "-resume")
		}
		res := runOnce(t, bin, runArgs, "4", base.dur*time.Duration(frac)/10)
		if gens = ckptFiles(t, dir); len(gens) >= 2 {
			break
		}
		if !res.killed {
			t.Fatalf("run finished (exit %d) leaving only %d generations", res.exit, len(gens))
		}
	}
	// Tear the newest generation in half.
	newest := gens[len(gens)-1]
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	resumeArgs := append(append([]string{}, args...), "-checkpoint", dir, "-resume")
	res := runOnce(t, bin, resumeArgs, "4", 0)
	if res.exit != 0 {
		t.Fatalf("resume after torn checkpoint exited %d:\n%s", res.exit, res.stderr.String())
	}
	if !strings.Contains(res.stderr.String(), "falling back to previous generation") {
		t.Errorf("resume did not diagnose the torn snapshot; stderr:\n%s", res.stderr.String())
	}
	if !bytes.Equal(res.stdout.Bytes(), base.stdout.Bytes()) {
		gp, wp := saveMismatch(t, "torn", res.stdout.Bytes(), base.stdout.Bytes())
		t.Fatalf("post-fallback stdout diverges; see %s vs %s", gp, wp)
	}
}

// TestInterruptCheckpointsAndResumes pins the two-phase SIGINT
// contract: the first interrupt drains to the next week commit or
// section boundary, checkpoints, reports how to resume, and exits 3; the
// resumed run completes with byte-identical output.
func TestInterruptCheckpointsAndResumes(t *testing.T) {
	gate(t)
	bin := wildreportBin(t)
	args := scenarioArgs("clean")
	base := runOnce(t, bin, args, "4", 0)
	if base.exit != 0 {
		t.Fatalf("baseline failed (exit %d):\n%s", base.exit, base.stderr.String())
	}
	dir := t.TempDir()
	cmd := exec.Command(bin, append(append([]string{}, args...), "-checkpoint", dir)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(base.dur/3, func() { cmd.Process.Signal(os.Interrupt) })
	err := cmd.Wait()
	timer.Stop()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("interrupted run: want exit 3, got %v; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "checkpoint saved; resume with -resume") {
		t.Errorf("missing resume hint on stderr:\n%s", stderr.String())
	}
	res := runOnce(t, bin, append(append([]string{}, args...), "-checkpoint", dir, "-resume"), "2", 0)
	if res.exit != 0 {
		t.Fatalf("resume exited %d:\n%s", res.exit, res.stderr.String())
	}
	if !bytes.Equal(res.stdout.Bytes(), base.stdout.Bytes()) {
		gp, wp := saveMismatch(t, "interrupt", res.stdout.Bytes(), base.stdout.Bytes())
		t.Fatalf("resumed stdout diverges; see %s vs %s", gp, wp)
	}
}
