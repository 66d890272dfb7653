package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"goingwild/internal/scanner"
)

// chaosShardUnion runs the week-3 census under a chaos profile as `of`
// independent shard studies — a fresh world and scanner each, as the
// separate `wildreport -shard i/of` processes have — and merges the
// per-shard results the way cmd/wildmerge does.
func chaosShardUnion(t *testing.T, profile string, of int) *scanner.SweepResult {
	t.Helper()
	cfg, err := ChaosProfileConfig(14, profile)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*scanner.SweepResult, of)
	for shard := range parts {
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts[shard], err = s.SweepShardAt(context.Background(), 3, shard, of)
		s.Close()
		if err != nil {
			t.Fatalf("chaos %s shard %d/%d: %v", profile, shard, of, err)
		}
	}
	merged, err := scanner.MergeSweepResults(parts)
	if err != nil {
		t.Fatalf("chaos %s: merging %d shards: %v", profile, of, err)
	}
	return merged
}

// TestChaosMatrixSharded pins the sharding contract under every fault
// profile: the census split across four share-nothing shard studies and
// merged is exactly the census one study sweeps. This holds because fault
// draws are pure per (identity, window, payload, attempt) and the
// retransmission counter is keyed by destination — a destination belongs
// to exactly one shard, so a shard's attempt counts are the ones the
// unsharded sweep sees for the same targets (wildnet.attemptCounter).
func TestChaosMatrixSharded(t *testing.T) {
	for _, profile := range []string{"clean", "lossy", "hostile", "flaky"} {
		t.Run(profile, func(t *testing.T) {
			single := chaosShardUnion(t, profile, 1)
			if single.Total() == 0 {
				t.Fatal("unsharded census found nothing")
			}
			if sharded := chaosShardUnion(t, profile, 4); !reflect.DeepEqual(single, sharded) {
				t.Errorf("four-shard union diverges from the unsharded census: probed %d vs %d, responders %d vs %d",
					sharded.Probed, single.Probed, sharded.Total(), single.Total())
			}
		})
	}
}

// TestChaosShardedSchedulerIndependent reruns the nastiest profile's
// shard union under a flipped GOMAXPROCS: every shard's senders schedule
// completely differently, the merged census must not move.
func TestChaosShardedSchedulerIndependent(t *testing.T) {
	base := chaosShardUnion(t, "hostile", 4)
	old := runtime.GOMAXPROCS(0)
	flipped := 1
	if old == 1 {
		flipped = 4
	}
	runtime.GOMAXPROCS(flipped)
	alt := chaosShardUnion(t, "hostile", 4)
	runtime.GOMAXPROCS(old)
	if !reflect.DeepEqual(base, alt) {
		t.Errorf("hostile shard union diverges at GOMAXPROCS=%d: responders %d vs %d", flipped, alt.Total(), base.Total())
	}
}
