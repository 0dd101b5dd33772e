package main

import (
	"bytes"
	"math"
	"os"
	"testing"

	"zipr"
	"zipr/internal/cgcsim"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

// The harness reads testdata/golden from the repository root, where
// run.sh starts it; tests run in zbench/, so move up first.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentileRanking(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.95, 3.85}, {1, 4}, {1.0 / 3, 2},
	} {
		if got := percentile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample p90 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(mean(nil)) || !math.IsNaN(ratio(1, 0)) {
		t.Error("empty samples must yield NaN so the run refuses to report them")
	}
}

func TestSeededInputsAreDeterministic(t *testing.T) {
	a, b, c := shuffled(1, seq(62)), shuffled(1, seq(62)), shuffled(2, seq(62))
	if !equalInts(a, b) {
		t.Fatal("same seed gave different orders")
	}
	if equalInts(a, c) {
		t.Fatal("different seeds gave the same order")
	}
	g, err := loadGolden("corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := buildSessions(5, []int{50, 56}, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := buildSessions(5, []int{50, 56}, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if !bytes.Equal(s1[i].base, s2[i].base) || !bytes.Equal(s1[i].edits[1], s2[i].edits[1]) {
			t.Fatalf("session %s: same seed built different images", s1[i].name)
		}
		if bytes.Equal(s1[i].base, s1[i].edits[0]) || bytes.Equal(s1[i].edits[0], s1[i].edits[1]) {
			t.Fatalf("session %s: an edit changed nothing or repeated another", s1[i].name)
		}
		if s1[i].baseGolden == "" {
			t.Fatalf("session %s: no golden digest for the base image", s1[i].name)
		}
	}
	for i := 0; i < synth.CorpusSize; i++ {
		_, profile := synth.CBProfile(i)
		for _, st := range stacks {
			if _, err := g.requireImage(goldenKey(profile.Name, st.name, isa.ZVM32)); err != nil {
				t.Fatalf("zvm32 cell %s/%s: %v", profile.Name, st.name, err)
			}
		}
	}
	panel := map[int]bool{}
	for _, i := range evalPanel {
		panel[i] = true
	}
	if len(panel) != len(evalPanel) {
		t.Fatal("evaluation panel lists a program twice")
	}
}

// smallCases is a cheap slice of the cgc-corpus cells on both ISAs,
// including the known fail-closed cell.
func smallCases(t *testing.T) []rewriteCase {
	t.Helper()
	var cases []rewriteCase
	for _, arch := range arches {
		for _, i := range []int{11, 50} {
			cb, err := cgcsim.CBArch(i, arch)
			if err != nil {
				t.Fatal(err)
			}
			data, err := cb.Bin.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range stacks {
				name := cellName(cb.Name, st.name, arch)
				cases = append(cases, rewriteCase{name: name, input: data,
					cfg: zipr.Config{Transforms: st.tfs(), ISA: arch.Name()}, failClosed: knownFailClosed[name]})
			}
		}
	}
	return cases
}

// TestReplayIdentityAndDeterministicCounts replays cells twice: the
// layer-by-layer output must equal zipr.Rewrite's, and the IR and
// reassembly counts must repeat exactly; allocation counts may drift
// only by the few allocations already seen between runs.
func TestReplayIdentityAndDeterministicCounts(t *testing.T) {
	cases := smallCases(t)
	var runs [2]*replayStats
	for r := range runs {
		runs[r] = newReplayStats()
		for _, c := range cases {
			_, err := runs[r].replay(c)
			if err != nil && !c.refusedAsExpected(err) {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if runs[r].mismatches != 0 {
			t.Fatalf("replay differs from zipr.Rewrite on %d cells", runs[r].mismatches)
		}
	}
	a, b := runs[0], runs[1]
	if a.n != len(cases)-1 {
		t.Fatalf("replayed %d cells, want %d (all but the fail-closed one)", a.n, len(cases)-1)
	}
	if a.core != b.core || a.insts != b.insts || a.pins != b.pins || a.functions != b.functions {
		t.Fatalf("counts moved between runs:\n%+v %d %d %d\n%+v %d %d %d",
			a.core, a.insts, a.pins, a.functions, b.core, b.insts, b.pins, b.functions)
	}
	for _, l := range replayLayers {
		if d := math.Abs(a.allocs[l] - b.allocs[l]); d > 0.01*a.allocs[l]+16 {
			t.Errorf("%s allocations moved between runs: %v vs %v", l, a.allocs[l], b.allocs[l])
		}
	}
}

// TestEvaluationIsDeterministic evaluates the same rewritten outputs
// twice: retired instructions, touched pages and the overheads derived
// from them must repeat exactly.
func TestEvaluationIsDeterministic(t *testing.T) {
	cb, err := cgcsim.CBArch(50, isa.ZVM32)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cb.Bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	outputs := map[string][]byte{}
	s := subject{name: "cb50/zvm32", arch: isa.ZVM32, exe: cb.Bin, pollers: cb.Pollers, golden: map[string]string{}}
	for _, st := range stacks {
		name := cellName(cb.Name, st.name, isa.ZVM32)
		if outputs[name], _, err = zipr.Rewrite(data, zipr.Config{Transforms: st.tfs()}); err != nil {
			t.Fatal(err)
		}
		s.variants = append(s.variants, name)
	}
	tl := &tally{}
	v1 := evaluateAll([]subject{s}, outputs, tl)
	v2 := evaluateAll([]subject{s}, outputs, tl)
	if tl.failed != 0 || tl.attempted != 4 {
		t.Fatalf("attempted %d, failed %d; want 4, 0", tl.attempted, tl.failed)
	}
	if v1.steps != v2.steps || v1.pages != v2.pages || !equalFloats(v1.execOv, v2.execOv) || !equalFloats(v1.memOv, v2.memOv) {
		t.Fatalf("evaluation moved between runs: %+v vs %+v", v1, v2)
	}
	if v1.execOv[1] <= 0 {
		t.Fatalf("CFI execution overhead %v, want > 0", v1.execOv[1])
	}
}

// TestServeStreamIsDeterministic drives the same sessions through two
// fresh servers: outcomes must repeat and every response must match a
// direct rewrite.
func TestServeStreamIsDeterministic(t *testing.T) {
	g, err := loadGolden("corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := buildSessions(3, []int{50, 56, 61}, 1, g)
	if err != nil {
		t.Fatal(err)
	}
	var stats [2]*serveStats
	for r := range stats {
		tl := &tally{}
		stats[r] = newServeStats()
		stats[r].cycle(sessions, tl)
		checkServed(sessions, stats[r], map[string][]byte{}, tl)
		if tl.failed != 0 {
			t.Fatalf("run %d: %d failed operations", r, tl.failed)
		}
	}
	a, b := stats[0], stats[1]
	want := len(sessions) * 2 * (serveRepeats + 1)
	if a.requests != want || len(a.hit) != len(sessions)*2*serveRepeats {
		t.Fatalf("requests %d (hits %d), want %d (hits %d)", a.requests, len(a.hit), want, len(sessions)*2*serveRepeats)
	}
	if a.requests != b.requests || len(a.hit) != len(b.hit) || len(a.miss) != len(b.miss) ||
		len(a.delta) != len(b.delta) || a.pipelineRuns != b.pipelineRuns {
		t.Fatalf("outcomes moved between runs: %d/%d/%d/%d vs %d/%d/%d/%d",
			len(a.hit), len(a.miss), len(a.delta), a.pipelineRuns, len(b.hit), len(b.miss), len(b.delta), b.pipelineRuns)
	}
	if len(a.delta) == 0 {
		t.Fatal("no edit was answered by delta")
	}
}

// TestLibcDriverCheck rewrites the libc analogue once and runs the
// unit-test driver against the original and the rewritten library.
func TestLibcDriverCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-scale libc analogue")
	}
	in, err := setupLibc(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := newRewriteStats()
	tl := &tally{}
	rs.rewrite(in.cases[0], tl, true)
	vs := evaluateAll(in.subjects, rs.outputs, tl)
	if tl.failed != 0 || tl.attempted != 2 {
		t.Fatalf("attempted %d, failed %d; want 2, 0", tl.attempted, tl.failed)
	}
	if vs.runs != 2*libcTests {
		t.Fatalf("driver ran %d times, want %d", vs.runs, 2*libcTests)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
