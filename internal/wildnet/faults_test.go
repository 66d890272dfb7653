package wildnet

import (
	"strings"
	"testing"
)

func TestChaosProfilesValidate(t *testing.T) {
	for _, name := range ChaosProfileNames() {
		f, err := ChaosProfile(name)
		if err != nil {
			t.Fatalf("ChaosProfile(%q): %v", name, err)
		}
		if err := f.validate(); err != nil {
			t.Errorf("profile %q does not validate: %v", name, err)
		}
		if name == "clean" && f.Enabled() {
			t.Error("clean profile must be the zero FaultConfig")
		}
		if name != "clean" && !f.Enabled() {
			t.Errorf("profile %q reads as disabled", name)
		}
	}
	if _, err := ChaosProfile("mayhem"); err == nil || !strings.Contains(err.Error(), "mayhem") {
		t.Errorf("unknown profile error = %v, want it to name the profile", err)
	}
}

func TestFaultConfigValidateRejectsGarbage(t *testing.T) {
	cases := []FaultConfig{
		{ExtraLoss: -0.1},
		{BurstProb: 1.5},
		{RateLimitRefuse: 2},
		{LatencyBaseMS: -1},
	}
	for i, f := range cases {
		if err := f.validate(); err == nil {
			t.Errorf("case %d (%+v) validated", i, f)
		}
	}
	cfg := DefaultConfig(14)
	cfg.Faults = FaultConfig{ExtraLoss: 7}
	if _, err := NewWorld(cfg); err == nil {
		t.Error("NewWorld accepted an out-of-range fault probability")
	}
}

// faultyWorld builds a small world under the given profile.
func faultyWorld(t *testing.T, order uint, profile string) *World {
	t.Helper()
	cfg := DefaultConfig(order)
	cfg.Faults = MustChaosProfile(profile)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFaultDrawsArePure(t *testing.T) {
	w := faultyWorld(t, 14, "hostile")
	w2 := faultyWorld(t, 14, "hostile")
	tm := At(2)
	for u := uint32(1); u < 2000; u++ {
		ph := uint64(u) * 0x9E3779B97F4A7C15
		for attempt := uint64(0); attempt < 3; attempt++ {
			if w.faultDrop(dirQuery, u, 53, 40000, ph, tm, attempt) !=
				w2.faultDrop(dirQuery, u, 53, 40000, ph, tm, attempt) {
				t.Fatalf("faultDrop(u=%d, attempt=%d) differs between identical worlds", u, attempt)
			}
		}
		if w.faultFlapped(u, tm) != w2.faultFlapped(u, tm) {
			t.Fatalf("faultFlapped(u=%d) differs between identical worlds", u)
		}
	}
}

func TestFaultAttemptRedraws(t *testing.T) {
	// The attempt number must change some packet fates, or retrying an
	// identical payload under a chaos profile would be pointless.
	w := faultyWorld(t, 14, "lossy")
	tm := At(0)
	differs := 0
	for u := uint32(1); u < 5000; u++ {
		ph := uint64(u) * 0x100000001B3
		if w.faultDrop(dirQuery, u, 53, 40000, ph, tm, 0) !=
			w.faultDrop(dirQuery, u, 53, 40000, ph, tm, 1) {
			differs++
		}
	}
	if differs == 0 {
		t.Error("attempt 0 and attempt 1 share every fate; retransmissions never redraw")
	}
}

func TestFaultFlapWindows(t *testing.T) {
	w := faultyWorld(t, 14, "flaky")
	// Some host must flap at some window, and a flapped host must come
	// back in a later window (an outage, not churn).
	var host uint32
	var when Time
	found := false
	for u := uint32(1); u < 20000 && !found; u++ {
		for min := 0; min < 60; min += 10 {
			tm := Time{Minute: min}
			if w.faultFlapped(u, tm) {
				host, when, found = u, tm, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no flapped (host, window) among 20k hosts × 6 windows at FlapProb=0.03")
	}
	returned := false
	for k := 1; k <= 48; k++ {
		later := Time{Minute: when.Minute + 10*k}
		if !w.faultFlapped(host, later) {
			returned = true
			break
		}
	}
	if !returned {
		t.Errorf("host %d never returned within 8 hours of windows", host)
	}
}

func TestFaultRateLimiterClasses(t *testing.T) {
	w := faultyWorld(t, 14, "hostile")
	tm := At(0)
	limited, admitted, refusedN, droppedN := 0, 0, 0, 0
	trials := 20000
	for i := 0; i < trials; i++ {
		identity := uint64(i)*0x9E3779B97F4A7C15 + 1
		fc := faultCtx{payloadHash: uint64(i), attempt: 0}
		refused, dropped := w.faultRateLimited(identity, tm, fc)
		switch {
		case refused:
			limited++
			refusedN++
		case dropped:
			limited++
			droppedN++
		default:
			admitted++
		}
	}
	// hostile: 10% limiters, each rejecting half its queries → ~5% of
	// draws misbehave, split between REFUSED and silence.
	if limited == 0 || refusedN == 0 || droppedN == 0 {
		t.Fatalf("rate limiter never exercised all verdicts: limited=%d refused=%d dropped=%d", limited, refusedN, droppedN)
	}
	share := float64(limited) / float64(trials)
	if share < 0.02 || share > 0.10 {
		t.Errorf("limited share = %.3f, want ≈0.05 for the hostile profile", share)
	}
	if admitted == 0 {
		t.Error("no query admitted")
	}
}

func TestFaultAdjustResponsesDeadline(t *testing.T) {
	w := faultyWorld(t, 14, "hostile") // DeadlineMS=260, LatencyBaseMS=40
	tm := At(0)
	resps := []QueryResponse{
		{Src: 1, ToPort: 40000, DelayMS: 5},
		{Src: 2, ToPort: 40000, DelayMS: 100000}, // far past any deadline
	}
	out := w.faultAdjustResponses(resps, tm, faultCtx{payloadHash: 7})
	if len(out) != 1 {
		t.Fatalf("deadline kept %d responses, want 1", len(out))
	}
	if out[0].Src != 1 {
		t.Errorf("survivor = src %d, want 1", out[0].Src)
	}
	if out[0].DelayMS < 5+40 {
		t.Errorf("survivor delay = %dms, want ≥45 (base latency added)", out[0].DelayMS)
	}
	if out[0].DelayMS > 260 {
		t.Errorf("survivor delay = %dms exceeds the 260ms deadline yet survived", out[0].DelayMS)
	}
}

func TestFaultGarbleMutatesDeterministically(t *testing.T) {
	cfg := DefaultConfig(14)
	cfg.Faults = FaultConfig{GarbleProb: 1}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := At(0)
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	a := append([]byte(nil), orig...)
	b := append([]byte(nil), orig...)
	w.faultGarble(a, 99, 1234, tm, 0)
	w.faultGarble(b, 99, 1234, tm, 0)
	if string(a) != string(b) {
		t.Fatalf("garble is not deterministic: %v vs %v", a, b)
	}
	if string(a) == string(orig) {
		t.Error("GarbleProb=1 left the packet intact")
	}
	// A zero-probability config must never touch the buffer.
	w2 := testWorld(t, 14)
	c := append([]byte(nil), orig...)
	w2.faultGarble(c, 99, 1234, tm, 0)
	if string(c) != string(orig) {
		t.Error("disabled garble mutated the packet")
	}
}

func TestAttemptCounter(t *testing.T) {
	c := newAttemptCounter()
	if got := c.next(1, 100); got != 0 {
		t.Errorf("first transmission counted %d predecessors, want 0", got)
	}
	if got := c.next(1, 100); got != 1 {
		t.Errorf("second transmission counted %d, want 1", got)
	}
	if got := c.next(2, 100); got != 0 {
		t.Errorf("different address shares the counter: %d, want 0", got)
	}
	if got := c.next(1, 200); got != 0 {
		t.Errorf("different payload shares the counter: %d, want 0", got)
	}
	c.reset()
	if got := c.next(1, 100); got != 0 {
		t.Errorf("post-reset transmission counted %d, want 0", got)
	}
}
