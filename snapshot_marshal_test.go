package zipr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zipr/internal/cgcsim"
	"zipr/internal/core"
)

// snapshotMarshalDigests pins the SHA-256 of Snapshot.Marshal for the
// first three corpus CBs under Null. Disk tiers hold blobs in this
// format, so any change to the encoding must be a new snapVersion, not
// a silent byte drift.
var snapshotMarshalDigests = map[string]string{
	"cb00": "d75f17e9bb43c9d405cd8c68692352616e78969115326eb4f05e9eedfed08e3b",
	"cb01": "812ef505e2e1424ac5d8b1085630282db2a63ddfa8dfad9a43e8091e71358b84",
	"cb02": "54ab3a2769ecc51255cf532c4bae61b02cab35a38fecf6ec82878d55f799424b",
}

// TestSnapshotMarshalGolden checks the serialized snapshot bytes
// against the pinned digests, that UnmarshalSnapshot followed by
// Marshal round-trips to the same bytes, and that Marshal makes one
// allocation.
func TestSnapshotMarshalGolden(t *testing.T) {
	cbs, err := cgcsim.Corpus(len(snapshotMarshalDigests))
	if err != nil {
		t.Fatal(err)
	}
	for _, cb := range cbs {
		img, err := cb.Bin.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := Rewrite(img, Config{Transforms: []Transform{Null()}, CaptureSnapshot: true})
		if err != nil {
			t.Fatalf("%s: %v", cb.Name, err)
		}
		blob := rep.Snapshot.Marshal()
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != snapshotMarshalDigests[cb.Name] {
			t.Errorf("%s: Marshal digest %s, want %s", cb.Name, got, snapshotMarshalDigests[cb.Name])
		}
		back, err := core.UnmarshalSnapshot(blob)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", cb.Name, err)
		}
		if !bytes.Equal(back.Marshal(), blob) {
			t.Errorf("%s: Unmarshal+Marshal does not round-trip", cb.Name)
		}
		if allocs := testing.AllocsPerRun(5, func() { rep.Snapshot.Marshal() }); allocs != 1 {
			t.Errorf("%s: Marshal made %.0f allocations, want 1", cb.Name, allocs)
		}
	}
}
