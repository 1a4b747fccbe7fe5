package fault

import (
	"math/rand"
	"testing"
)

// TestBatchSizeResolution pins the Batch knob's resolution: 0 is the
// bit-parallel default, negatives clamp to unbatched.
func TestBatchSizeResolution(t *testing.T) {
	for _, tc := range []struct{ batch, want int }{
		{0, DefaultBatch},
		{1, 1},
		{-3, 1},
		{8, 8},
		{200, 200},
	} {
		if got := (Campaign{Batch: tc.batch}).BatchSize(); got != tc.want {
			t.Errorf("BatchSize(%d) = %d, want %d", tc.batch, got, tc.want)
		}
	}
}

// TestBatchedChunkBoundaries: claims are contiguous [lo, hi) chunks of at
// most BatchSize runs whose boundaries depend only on the range and the
// batch size — the property that keeps batched shards mergeable.
func TestBatchedChunkBoundaries(t *testing.T) {
	const runs = 23
	seen := make(map[int]int) // run index -> claims covering it
	var starts []int
	c := Campaign{Runs: runs, Seed: 1, Batch: 5}
	if _, err := c.ExecuteBatched(func(start int, rngs []*rand.Rand) ([]Outcome, error) {
		if len(rngs) > 5 {
			t.Errorf("claim [%d, %d) exceeds batch size 5", start, start+len(rngs))
		}
		starts = append(starts, start)
		outs := make([]Outcome, len(rngs))
		for i := range outs {
			seen[start+i]++
			outs[i] = Masked
		}
		return outs, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		if seen[i] != 1 {
			t.Errorf("run %d covered by %d claims, want exactly 1", i, seen[i])
		}
	}
	want := []int{0, 5, 10, 15, 20}
	if len(starts) != len(want) {
		t.Fatalf("claim starts = %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("claim starts = %v, want %v", starts, want)
		}
	}
}
