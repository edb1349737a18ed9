package server

import (
	"path/filepath"
	"slices"
	"testing"

	"influmax/internal/imm"
)

// TestSnapshotCrossLoading pins the cross-load transcode: a snapshot
// written under either labeling can be loaded into a server running the
// other, and every query over the transcoded sketch returns exactly the
// seeds the originating sketch serves. Saving the transcoded sketch again
// must reproduce the canonical encoding for its labeling.
func TestSnapshotCrossLoading(t *testing.T) {
	g := testGraph(19, 180, 1400)
	cfg := testConfig(g)
	key := SketchKey{
		GraphDigest: g.Digest(), Model: cfg.Model, Epsilon: cfg.Epsilon,
		KMax: cfg.KMax, Seed: cfg.Seed,
	}

	for _, from := range []imm.StoreKind{imm.StoreFlat, imm.StoreCoded} {
		for _, to := range []imm.StoreKind{imm.StoreFlat, imm.StoreCoded} {
			built, err := BuildSketch(g, key, cfg.Workers, from, nil)
			if err != nil {
				t.Fatalf("%v->%v: build: %v", from, to, err)
			}
			if built.Store() != from {
				t.Fatalf("%v->%v: built sketch reports store %v", from, to, built.Store())
			}
			path := filepath.Join(t.TempDir(), "sketch.snap")
			if err := built.Save(path); err != nil {
				t.Fatalf("%v->%v: save: %v", from, to, err)
			}
			loaded, err := LoadSketch(path, g, cfg.Workers, to, 0)
			if err != nil {
				t.Fatalf("%v->%v: load: %v", from, to, err)
			}
			if loaded.Store() != to {
				t.Fatalf("%v->%v: loaded sketch reports store %v", from, to, loaded.Store())
			}
			for _, k := range []int{1, 5, cfg.KMax} {
				wantSeeds, wantCov := built.Query(k, cfg.Workers)
				gotSeeds, gotCov := loaded.Query(k, cfg.Workers)
				if !slices.Equal(gotSeeds, wantSeeds) || gotCov != wantCov {
					t.Fatalf("%v->%v k=%d: cross-loaded seeds %v (cov %d) != original %v (cov %d)",
						from, to, k, gotSeeds, gotCov, wantSeeds, wantCov)
				}
			}
			// A directly built sketch of the target kind selects the same
			// seeds too — the transcode is invisible end to end.
			direct, err := BuildSketch(g, key, cfg.Workers, to, nil)
			if err != nil {
				t.Fatalf("%v->%v: direct build: %v", from, to, err)
			}
			wantSeeds, _ := direct.Query(cfg.KMax, cfg.Workers)
			gotSeeds, _ := loaded.Query(cfg.KMax, cfg.Workers)
			if !slices.Equal(gotSeeds, wantSeeds) {
				t.Fatalf("%v->%v: cross-loaded seeds %v != direct %v build %v",
					from, to, gotSeeds, to, wantSeeds)
			}
		}
	}
}

// TestCrossLoadRebuildsRelabeling checks that the coded-direction
// transcode reconstructs the exact frequency table the sampling path would
// have produced: a flat snapshot loaded as coded is byte-identical in
// store content to the directly built coded sketch.
func TestCrossLoadRebuildsRelabeling(t *testing.T) {
	g := testGraph(23, 150, 1100)
	cfg := testConfig(g)
	key := SketchKey{
		GraphDigest: g.Digest(), Model: cfg.Model, Epsilon: cfg.Epsilon,
		KMax: cfg.KMax, Seed: cfg.Seed,
	}
	flat, err := BuildSketch(g, key, cfg.Workers, imm.StoreFlat, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flat.snap")
	if err := flat.Save(path); err != nil {
		t.Fatal(err)
	}
	crossed, err := LoadSketch(path, g, cfg.Workers, imm.StoreCoded, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := BuildSketch(g, key, cfg.Workers, imm.StoreCoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(crossed.Col.Relabeling().Table(), direct.Col.Relabeling().Table()) {
		t.Fatal("cross-load rebuilt a different relabel table than the sampling path")
	}
	if crossed.Col.Bytes() != direct.Col.Bytes() {
		t.Fatalf("cross-loaded store %d B != directly built %d B", crossed.Col.Bytes(), direct.Col.Bytes())
	}
}
