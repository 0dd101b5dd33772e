package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zipr"
	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
	"zipr/internal/isa"
	"zipr/internal/loader"
	"zipr/internal/serve"
	"zipr/internal/vm"
)

// tally counts operations and their failures. An operation fails when
// it returns an unexpected error, fails its digest or driver check,
// produces a transcript mismatch, or returns wrong bytes.
type tally struct {
	mu         sync.Mutex
	attempted  int
	failed     int
	failClosed int // known fail-closed cells that refused as expected
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// refused counts a known fail-closed cell that refused as expected.
func (t *tally) refused() {
	t.mu.Lock()
	t.attempted++
	t.failClosed++
	t.mu.Unlock()
}

// refusedAsExpected reports whether err is the typed refusal a known
// fail-closed cell is allowed to return.
func (c rewriteCase) refusedAsExpected(err error) bool {
	return c.failClosed != "" && zipr.ErrorClass(err) != "" && strings.Contains(err.Error(), c.failClosed)
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	t.mu.Unlock()
	fmt.Fprintf(os.Stderr, "zbench: FAILED: "+format+"\n", args...)
}

// allocMeter reads the cumulative heap allocation counters. ReadMemStats
// stops the world, so callers read it outside their timers.
func allocMeter() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// rewriteStats accumulates the rewrite stage's samples.
type rewriteStats struct {
	ms      []float64         // wall time of each successful rewrite
	allocs  []float64         // heap allocations of each successful rewrite
	bytes   []float64         // heap bytes allocated by each successful rewrite
	sizeOv  []float64         // file-size overhead (%) of each distinct output
	outputs map[string][]byte // first output of each case
}

func newRewriteStats() *rewriteStats {
	return &rewriteStats{outputs: make(map[string][]byte)}
}

// rewrite performs one cold zipr.Rewrite of c, times it, counts its
// allocations, and checks the output against the case's golden digest
// and against the case's earlier outputs (byte identity across passes).
// With sample false the rewrite is a check only: it counts as an
// operation and records the output, but adds no time or allocation
// sample.
func (rs *rewriteStats) rewrite(c rewriteCase, t *tally, sample bool) {
	// Each rewrite starts from a collected heap, so the garbage of the
	// previous operation does not land in this one's time.
	runtime.GC()
	m0, b0 := allocMeter()
	start := time.Now()
	out, rep, err := zipr.Rewrite(c.input, c.cfg)
	d := time.Since(start)
	m1, b1 := allocMeter()
	if err != nil {
		if c.refusedAsExpected(err) {
			t.refused()
			return
		}
		t.fail("rewrite %s: %v", c.name, err)
		return
	}
	if c.golden != "" && digest(out) != c.golden {
		t.fail("rewrite %s: image digest %s, golden %s", c.name, digest(out), c.golden)
		return
	}
	if prev, seen := rs.outputs[c.name]; seen {
		if !bytes.Equal(prev, out) {
			t.fail("rewrite %s: output differs from an earlier pass", c.name)
			return
		}
	} else {
		rs.outputs[c.name] = out
		rs.sizeOv = append(rs.sizeOv, rep.SizeOverhead()*100)
	}
	t.ok()
	if !sample {
		return
	}
	rs.ms = append(rs.ms, float64(d)/1e6)
	rs.allocs = append(rs.allocs, float64(m1-m0))
	rs.bytes = append(rs.bytes, float64(b1-b0))
}

// vmStats accumulates the evaluation stage's samples.
type vmStats struct {
	load, run     time.Duration // summed over poller runs, originals and variants
	runs          int           // poller runs
	steps         uint64        // retired instructions, summed over runs
	pages         int           // touched pages, summed over runs
	execOv, memOv []float64     // per evaluated variant, in percent
}

// pollerRun is the outcome of one program over all its pollers.
type pollerRun struct {
	steps uint64
	pages int // max over pollers (the MaxRSS metric)
	ts    []cgcsim.Transcript
}

// runPollers runs exe (with libs) on every poller under arch.
func runPollers(exe *binfmt.Binary, libs map[string]*binfmt.Binary, pollers [][]byte, arch isa.Arch, vs *vmStats) (pollerRun, error) {
	var pr pollerRun
	for pi, input := range pollers {
		m := vm.New(vm.WithStdin(bytes.NewReader(input)), vm.WithMaxSteps(200_000_000), vm.WithArch(arch))
		t0 := time.Now()
		if err := loader.Load(m, exe, libs); err != nil {
			return pr, fmt.Errorf("poller %d: %w", pi, err)
		}
		t1 := time.Now()
		res, err := m.Run()
		t2 := time.Now()
		if err != nil {
			return pr, fmt.Errorf("poller %d: %w", pi, err)
		}
		vs.load += t1.Sub(t0)
		vs.run += t2.Sub(t1)
		vs.runs++
		vs.steps += res.Steps
		vs.pages += res.PagesTouched
		pr.steps += res.Steps
		if res.PagesTouched > pr.pages {
			pr.pages = res.PagesTouched
		}
		pr.ts = append(pr.ts, cgcsim.Transcript{Output: res.Output, Exit: res.ExitCode})
	}
	return pr, nil
}

func pct(base, other float64) float64 { return (other - base) / base * 100 }

// evaluate runs subject s's original and rewritten variants on the
// subject's pollers. Each (subject, variant) is one operation: it fails
// when the variant cannot be loaded or run, its transcripts differ from
// the original's, or they differ from the pinned golden transcript.
// Variants without an output (a cell that failed closed) are skipped.
func (vs *vmStats) evaluate(s subject, outputs map[string][]byte, t *tally) {
	orig, err := runPollers(s.exe, s.libs, s.pollers, s.arch, vs)
	if err != nil {
		t.fail("evaluate %s: original: %v", s.name, err)
		return
	}
	for _, v := range s.variants {
		out, ok := outputs[v]
		if !ok {
			continue
		}
		rw, err := binfmt.Unmarshal(out)
		if err != nil {
			t.fail("evaluate %s: %v", v, err)
			continue
		}
		exe, libs := rw, s.libs
		if s.replaceLib != "" {
			exe, libs = s.exe, map[string]*binfmt.Binary{}
			for k, l := range s.libs {
				libs[k] = l
			}
			libs[s.replaceLib] = rw
		}
		got, err := runPollers(exe, libs, s.pollers, s.arch, vs)
		switch {
		case err != nil:
			t.fail("evaluate %s: %v", v, err)
		case !cgcsim.Equivalent(orig.ts, got.ts):
			t.fail("evaluate %s: transcripts differ from the original's", v)
		case s.golden[v] != "" && transcriptDigest(got.ts) != s.golden[v]:
			t.fail("evaluate %s: transcript digest differs from golden", v)
		default:
			t.ok()
			if !s.oracleOnly {
				vs.execOv = append(vs.execOv, pct(float64(orig.steps), float64(got.steps)))
				vs.memOv = append(vs.memOv, pct(float64(orig.pages), float64(got.pages)))
			}
		}
	}
}

// evaluateAll evaluates every subject in order.
func evaluateAll(subjects []subject, outputs map[string][]byte, t *tally) *vmStats {
	vs := &vmStats{}
	for _, s := range subjects {
		vs.evaluate(s, outputs, t)
	}
	return vs
}

// serveRepeats is how many times each base and each edit is requested
// again after its first request. One repeat is the traffic of the
// cache-hit-ratio recipe in EXPERIMENTS.md, which sends the same
// requests through the daemon twice: half the requests are hits.
const serveRepeats = 1

// serveStats accumulates the serve stage's samples.
type serveStats struct {
	cycles                 int
	busy                   time.Duration // client time, summed over clients and cycles
	requests               int
	hit, miss, delta       []time.Duration // request wall time by outcome
	edits                  int             // edit requests (first of each edit)
	pipelineRuns, sharedRq int64
	first                  map[string][]byte // first response per session image
}

// clients is the number of closed-loop client goroutines: at most two,
// and no more than the machine has CPUs.
func clients() int { return min(2, runtime.NumCPU()) }

func newServeStats() *serveStats { return &serveStats{first: make(map[string][]byte)} }

// cycle drives sessions through a fresh in-process serve.Server with
// closed-loop clients. Each client takes the next session and issues
// base, base x serveRepeats, edit, edit x serveRepeats, each request
// after the previous one returns. Cycle c sends edit c mod len(edits).
// Every response must equal the first response for the same image; the
// first responses are checked against direct rewrites afterwards
// (checkServed).
func (ss *serveStats) cycle(sessions []session, t *tally) {
	cfg := serveConfig()
	runtime.GC()
	srv := serve.New(serve.Options{})
	cycle := ss.cycles
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			local := &serveStats{}
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sessions) {
					break
				}
				s := sessions[k]
				e := cycle % len(s.edits)
				for _, step := range []struct {
					key  string
					img  []byte
					edit bool
				}{{s.baseKey(), s.base, false}, {s.editKey(e), s.edits[e], true}} {
					key := step.key
					for r := 0; r <= serveRepeats; r++ {
						begin := time.Now()
						out, _, meta, err := srv.RewriteMeta(context.Background(), step.img, cfg)
						d := time.Since(begin)
						if err != nil {
							t.fail("serve %s: %v", key, err)
							continue
						}
						mu.Lock()
						prev, seen := ss.first[key]
						if !seen {
							ss.first[key] = out
						}
						mu.Unlock()
						if seen && !bytes.Equal(prev, out) {
							t.fail("serve %s: %s response differs from the first response", key, meta.Outcome)
							continue
						}
						t.ok()
						local.requests++
						if step.edit && r == 0 {
							local.edits++
						}
						switch meta.Outcome {
						case serve.OutcomeHit:
							local.hit = append(local.hit, d)
						case serve.OutcomeMiss:
							local.miss = append(local.miss, d)
						case serve.OutcomeDelta:
							local.delta = append(local.delta, d)
						}
					}
				}
			}
			busy := time.Since(start)
			mu.Lock()
			ss.busy += busy
			ss.requests += local.requests
			ss.edits += local.edits
			ss.hit = append(ss.hit, local.hit...)
			ss.miss = append(ss.miss, local.miss...)
			ss.delta = append(ss.delta, local.delta...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	st := srv.Stats()
	srv.Close()
	ss.cycles++
	ss.pipelineRuns += st.PipelineRuns
	ss.sharedRq += st.Shared
}

// rps is completed requests per second of client time, times the
// number of clients: the throughput of the closed loop while its
// clients are busy, so the idle tail of a cycle's last session does
// not count.
func (ss *serveStats) rps() float64 {
	return float64(ss.requests) / ss.busy.Seconds() * float64(clients())
}

// checkServed compares every first response with a direct zipr.Rewrite
// of the same image (taken from refs when the rewrite stage already
// produced it) and every served base image with its golden digest.
func checkServed(sessions []session, ss *serveStats, refs map[string][]byte, t *tally) {
	for _, s := range sessions {
		images := map[string][]byte{s.baseKey(): s.base}
		for e, img := range s.edits {
			images[s.editKey(e)] = img
		}
		for key, img := range images {
			got, served := ss.first[key]
			if !served {
				continue
			}
			want, ok := refs[key]
			if !ok {
				var err error
				if want, _, err = zipr.Rewrite(img, serveConfig()); err != nil {
					t.fail("serve reference %s: %v", key, err)
					continue
				}
				refs[key] = want
			}
			switch {
			case !bytes.Equal(got, want):
				t.fail("serve %s: response differs from a direct rewrite", key)
			case key == s.baseKey() && s.baseGolden != "" && digest(got) != s.baseGolden:
				t.fail("serve %s: image digest differs from golden", key)
			}
		}
	}
}

func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
