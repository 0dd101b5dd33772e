package zipr

// Placement golden suite: image digests for the placement cells the
// corpus matrix (golden_test.go) does not reach — profile-guided
// layout, and diversity seeds other than the corpus suite's 0x60D5.
// The digests live in testdata/golden/placement.json; any change to
// which block a placer picks for these configurations fails here with
// the exact cell that moved.
//
// Regenerate after an intentional output change with:
//
//	go test -run TestGoldenPlacement -update .

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
)

const goldenPlacementPath = "testdata/golden/placement.json"

type placementGolden struct {
	Version int               `json:"version"`
	Images  map[string]string `json:"images"` // cell key -> sha256 of the rewritten image
}

type placementCell struct {
	key string
	bin *binfmt.Binary
	cfg Config
}

// placementCells builds the pinned cell list: every cell of the three
// families below.
func placementCells(t *testing.T) []placementCell {
	t.Helper()
	cells := pgoEntryCells(t)
	cells = append(cells, pgoProfileCell(t))
	return append(cells, diversityCells(t)...)
}

func identityCorpus(t *testing.T) []cgcsim.CB {
	t.Helper()
	cbs, err := cgcsim.Corpus(6)
	if err != nil {
		t.Fatal(err)
	}
	return cbs
}

// pgoEntryCells: each of the first six corpus programs under
// profile-guided layout with the entry function as the hot set (Null
// stack).
func pgoEntryCells(t *testing.T) []placementCell {
	var cells []placementCell
	for _, cb := range identityCorpus(t) {
		cells = append(cells, placementCell{cb.Name + "/null/pgo-entry", cb.Bin,
			Config{Transforms: []Transform{Null()}, Layout: LayoutProfileGuided, HotFuncs: []uint32{cb.Bin.Entry}}})
	}
	return cells
}

// pgoProfileCell: the PGO workload under a hot set collected by actually
// running the profiler on its training input.
func pgoProfileCell(t *testing.T) placementCell {
	orig, profile := pgoWorkload(t)
	hot := collectProfile(t, orig, bytes.Repeat([]byte{0x21}, profile.InputLen))
	return placementCell{profile.Name + "/pgo-profile", orig,
		Config{Layout: LayoutProfileGuided, HotFuncs: hot}}
}

// diversityCells: the first three corpus programs under diversity layout
// with three seeds (Null stack).
func diversityCells(t *testing.T) []placementCell {
	var cells []placementCell
	for _, cb := range identityCorpus(t)[:3] {
		for _, seed := range []int64{1, 42, 0xC0FFEE} {
			cells = append(cells, placementCell{fmt.Sprintf("%s/null/diversity-%#x", cb.Name, seed), cb.Bin,
				Config{Transforms: []Transform{Null()}, Layout: LayoutDiversity, Seed: seed}})
		}
	}
	return cells
}

// imageDigest rewrites a clone of bin under cfg and returns the SHA-256
// of the serialized output image.
func imageDigest(t *testing.T, key string, bin *binfmt.Binary, cfg Config) string {
	t.Helper()
	out, _, err := RewriteBinary(bin.Clone(), cfg)
	if err != nil {
		t.Fatalf("%s: rewrite: %v", key, err)
	}
	img, err := out.Marshal()
	if err != nil {
		t.Fatalf("%s: marshal: %v", key, err)
	}
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:])
}

func loadPlacementGolden(t *testing.T) placementGolden {
	t.Helper()
	var pinned placementGolden
	raw, err := os.ReadFile(goldenPlacementPath)
	if err != nil {
		t.Fatalf("placement golden file missing (%v); generate it with: go test -run TestGoldenPlacement -update .", err)
	}
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatalf("placement golden file corrupt: %v", err)
	}
	if pinned.Version != 1 {
		t.Fatalf("placement golden file version %d, this suite expects 1", pinned.Version)
	}
	return pinned
}

func TestGoldenPlacement(t *testing.T) {
	got := make(map[string]string)
	for _, c := range placementCells(t) {
		got[c.key] = imageDigest(t, c.key, c.bin, c.cfg)
	}

	if *updateGolden {
		raw, err := json.MarshalIndent(placementGolden{Version: 1, Images: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPlacementPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("pinned %d cells to %s", len(got), goldenPlacementPath)
		return
	}
	pinned := loadPlacementGolden(t)

	// Exact key set: a stale file (renamed or dropped cell) fails even
	// when every digest that is present still matches.
	for k, sum := range got {
		want, ok := pinned.Images[k]
		switch {
		case !ok:
			t.Errorf("%s: no pinned digest (new cell?); regenerate with -update", k)
		case sum != want:
			t.Errorf("%s: image digest drifted\n  pinned %s\n  got    %s", k, want, sum)
		}
	}
	for k := range pinned.Images {
		if _, ok := got[k]; !ok {
			t.Errorf("golden file pins unknown cell %s; regenerate with -update", k)
		}
	}
}

// Byte identity with the legacy placers. The indexed allocator replaced
// full-snapshot linear-scan placers, and had to leave every output byte
// unchanged. The scan placers are gone; the digests they produced are
// what placement.json (and, for the optimized cells, corpus.json)
// pins. These tests check each family of cells against those digests,
// so a placement that strays from the legacy choice fails under the
// family's own name.

// checkLegacyCells compares each cell's image digest with pinned[key].
func checkLegacyCells(t *testing.T, cells []placementCell, pinned map[string]string) {
	t.Helper()
	for _, c := range cells {
		want, ok := pinned[c.key]
		if !ok {
			t.Fatalf("%s: no pinned digest", c.key)
		}
		if got := imageDigest(t, c.key, c.bin, c.cfg); got != want {
			t.Errorf("%s: output diverged from legacy placer\n  pinned %s\n  got    %s", c.key, want, got)
		}
	}
}

func TestOptimizedByteIdentityWithLegacyPlacer(t *testing.T) {
	pinned := make(map[string]string)
	for k, c := range loadGolden(t).Cells {
		pinned[k] = c.Image
	}
	var cells []placementCell
	for _, cb := range identityCorpus(t) {
		for _, st := range goldenStacks()[:2] { // null, cfi: synthesized checks churn free space much harder
			cells = append(cells, placementCell{goldenCellKey(cb.Name, st.name, "optimized", ""), cb.Bin, Config{Transforms: st.tfs()}})
		}
	}
	checkLegacyCells(t, cells, pinned)
}

func TestProfileGuidedByteIdentityWithLegacyPlacer(t *testing.T) {
	checkLegacyCells(t, pgoEntryCells(t), loadPlacementGolden(t).Images)
}

func TestProfileGuidedByteIdentityWithRealProfile(t *testing.T) {
	// Same comparison with a profiler-derived hot set instead of the
	// entry-function stand-in.
	checkLegacyCells(t, []placementCell{pgoProfileCell(t)}, loadPlacementGolden(t).Images)
}

func TestDiversityByteIdentityWithLegacyPlacer(t *testing.T) {
	// Diversity draws (block, offset) pairs from a seeded rng: identical
	// placements require the query path to surface fitting blocks in the
	// exact order the legacy scan did. The second pass doubles as a
	// determinism test per seed.
	cells, pinned := diversityCells(t), loadPlacementGolden(t).Images
	checkLegacyCells(t, cells, pinned)
	checkLegacyCells(t, cells, pinned)
}
