// Command zbench is the repository benchmark: it drives the rewriter
// through three workloads from one process, checks its outputs, and
// prints one JSON result line. See NOTES.md for the workloads, the
// metrics and what each layer metric should move.
//
// Run from the repository root:
//
//	bash zbench/run.sh --workload cgc-corpus --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate replay reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload describes how a run spends its measurement window.
type workload struct {
	setup func(seed int64) (*inputs, error)
	// serveMain: serve cycles fill the window, then each rewrite case
	// runs once; otherwise rewrite passes (at least minPasses) fill it.
	serveMain bool
	minPasses int
	// cyclesPerPass serve cycles are spread evenly through each rewrite
	// pass, so serve samples span the whole window.
	cyclesPerPass int
	// traceCycles is the number of serve cycles in the traced run.
	traceCycles int
}

var workloads = map[string]workload{
	"cgc-corpus":      {setup: setupCGC, minPasses: 1, cyclesPerPass: cgcEdits, traceCycles: 3},
	"libc-robustness": {setup: setupLibc, minPasses: 5, cyclesPerPass: 1, traceCycles: 3},
	"serve-edits":     {setup: setupServe, serveMain: true, traceCycles: 1},
}

// refShares is the number of parts serve-edits splits its reference
// rewrites into, one after each serve cycle: about the number of
// cycles that fit in a 15-second window.
const refShares = 6

// setupRepeats is how many times a run builds its inputs; setup_s is
// the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func main() {
	name := flag.String("workload", "", "workload: cgc-corpus, libc-robustness or serve-edits")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = layer-by-layer replay (per-layer metrics), 0 = end-to-end metrics")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, window time.Duration, trace bool) (*result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if window <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	var in *inputs
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		in = nil
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	runtime.GC()
	t := &tally{}
	m := metrics{}
	if trace {
		traceRun(w, in, t, m)
	} else {
		m.set("setup_s", median(setup), "s")
		endToEnd(w, in, window, t, m)
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s has no samples", k)
		}
	}
	summarize(name, seed, t, m)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// endToEnd measures the workload with no instrumentation beyond the
// benchmark's own timers.
func endToEnd(w workload, in *inputs, window time.Duration, t *tally, m metrics) {
	rs := newRewriteStats()
	if !w.serveMain {
		// An untimed reference pass rewrites every case once before
		// timing starts, so the heap has grown and the code is paged
		// in. Every timed rewrite must reproduce its bytes, which
		// checks the cells that have no golden digest for determinism.
		for _, c := range in.cases {
			rs.rewrite(c, t, false)
		}
	}
	// Whole passes and whole serve cycles only, so every run covers the
	// same inputs: another one starts while it is expected to end
	// inside the window.
	start := time.Now()
	fits := func(last time.Duration) bool { return time.Since(start)+last <= window }
	ss := newServeStats()
	vs := &vmStats{}
	if w.serveMain {
		// Each serve cycle is followed by a share of the reference
		// rewrites, so their samples span the window; whatever is left
		// runs after it.
		refs := in.cases
		share := (len(refs) + refShares - 1) / refShares
		for last := time.Duration(0); ss.cycles == 0 || fits(last); {
			begin := time.Now()
			ss.cycle(in.sessions, t)
			n := min(share, len(refs))
			for _, c := range refs[:n] {
				rs.rewrite(c, t, true)
			}
			refs = refs[n:]
			last = time.Since(begin)
		}
		for _, c := range refs {
			rs.rewrite(c, t, true)
		}
		for _, s := range in.subjects {
			vs.evaluate(s, rs.outputs, t)
		}
	} else {
		// The first pass evaluates each subject as soon as all its
		// variants have been rewritten, so VM work spreads through the
		// pass like the serve cycles do.
		pending := make([]int, len(in.subjects))
		subjectsOf := make(map[string][]int)
		for i, s := range in.subjects {
			pending[i] = len(s.variants)
			for _, v := range s.variants {
				subjectsOf[v] = append(subjectsOf[v], i)
			}
		}
		every := max(1, len(in.cases)/w.cyclesPerPass)
		for pass, last := 0, time.Duration(0); pass < w.minPasses || fits(last); pass++ {
			begin := time.Now()
			for k, c := range in.cases {
				rs.rewrite(c, t, true)
				for _, i := range subjectsOf[c.name] {
					if pending[i]--; pass == 0 && pending[i] == 0 {
						vs.evaluate(in.subjects[i], rs.outputs, t)
					}
				}
				if (k+1)%every == 0 {
					ss.cycle(in.sessions, t)
				}
			}
			last = time.Since(begin)
		}
	}
	checkServed(in.sessions, ss, rs.outputs, t)

	m.set("rewrite_p50_ms", percentile(rs.ms, 0.50), "ms")
	m.set("rewrite_p90_ms", percentile(rs.ms, 0.90), "ms")
	m.set("rewrite_allocs_k", mean(rs.allocs)/1e3, "kallocs")
	m.set("rewrite_alloc_mb", mean(rs.bytes)/1e6, "MB")
	m.set("size_overhead_pct", mean(rs.sizeOv), "%")
	m.set("exec_overhead_pct", mean(vs.execOv), "%")
	m.set("mem_overhead_pct", mean(vs.memOv), "%")
	m.set("eval_s", (vs.load + vs.run).Seconds(), "s")
	m.set("serve_rps", ss.rps(), "1/s")
	m.set("hit_p50_us", percentile(durs(ss.hit, time.Microsecond), 0.50), "us")
	m.set("hit_p90_us", percentile(durs(ss.hit, time.Microsecond), 0.90), "us")
	m.set("delta_p50_ms", percentile(durs(ss.delta, time.Millisecond), 0.50), "ms")
	m.set("miss_p50_ms", percentile(durs(ss.miss, time.Millisecond), 0.50), "ms")
}

// traceRun is the separate traced run: it replays every rewrite of the
// workload layer by layer (asserting identity with zipr.Rewrite), runs
// the standalone disassemblers, the VM over the evaluation set, the
// placement-snapshot layer over the edit sessions, and one serve cycle.
func traceRun(w workload, in *inputs, t *tally, m metrics) {
	rp := newReplayStats()
	outputs := make(map[string][]byte)
	swept := make(map[string]bool)
	for _, c := range in.cases {
		out, err := rp.replay(c)
		switch {
		case err == nil && c.golden != "" && digest(out) != c.golden:
			t.fail("replay %s: image digest differs from golden", c.name)
		case err == nil:
			outputs[c.name] = out
			t.ok()
		case c.refusedAsExpected(err):
			t.refused()
		default:
			t.fail("replay %s: %v", c.name, err)
		}
		if c.cfg.ISA == "" || c.cfg.ISA == "zvm32" {
			if d := digest(c.input); !swept[d] {
				swept[d] = true
				if err := rp.sweep(c.input); err != nil {
					t.fail("sweep %s: %v", c.name, err)
				}
			}
		}
	}
	if rp.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "zbench: REPLAY MISMATCH on %d input(s): the layer numbers do not describe zipr.Rewrite\n", rp.mismatches)
	}
	vs := evaluateAll(in.subjects, outputs, t)
	sn := &snapStats{}
	for _, s := range in.sessions {
		if err := sn.snapshot(s); err != nil {
			t.fail("snapshot %s: %v", s.name, err)
		} else {
			t.ok()
		}
	}
	ss := newServeStats()
	for ss.cycles < w.traceCycles {
		ss.cycle(in.sessions, t)
	}
	checkServed(in.sessions, ss, outputs, t)

	n := float64(rp.n)
	for _, l := range []string{"disasm", "cfg", "transform", "core"} {
		m.set(l+".ms", rp.ms[l]/n, "ms")
		m.set(l+".allocs_k", rp.allocs[l]/n/1e3, "kallocs")
	}
	m.set("binfmt.unmarshal_ms", rp.ms["binfmt.unmarshal"]/n, "ms")
	m.set("binfmt.marshal_ms", rp.ms["binfmt.marshal"]/n, "ms")
	m.set("disasm.linear_sweep_ms", rp.linearMS/float64(rp.sweeps), "ms")
	m.set("disasm.recursive_ms", rp.recMS/float64(rp.sweeps), "ms")
	m.set("cfg.insts", float64(rp.insts), "count")
	m.set("cfg.pins", float64(rp.pins), "count")
	m.set("cfg.functions", float64(rp.functions), "count")
	m.set("core.dollops", float64(rp.core.Dollops), "count")
	m.set("core.stubs", float64(rp.core.Stubs5+rp.core.Stubs2), "count")
	m.set("core.chains", float64(rp.core.Chains), "count")
	m.set("core.sleds", float64(rp.core.Sleds), "count")
	m.set("core.veneers", float64(rp.core.Veneers), "count")
	m.set("core.overflow_bytes", float64(rp.core.OverflowUsed), "bytes")
	m.set("core.inline_pin_share", ratio(float64(rp.core.InlinePins), float64(rp.core.Pinned)), "ratio")
	m.set("rewrite.fail_closed", float64(t.failClosed), "count")
	m.set("vm.load_ms", vs.load.Seconds()*1e3/float64(vs.runs), "ms")
	m.set("vm.run_ms", vs.run.Seconds()*1e3/float64(vs.runs), "ms")
	m.set("vm.minst_s", float64(vs.steps)/1e6/vs.run.Seconds(), "Minst/s")
	m.set("vm.steps_m", float64(vs.steps)/1e6, "Minst")
	m.set("vm.pages", float64(vs.pages), "count")
	m.set("core.snapshot_apply_ms", median(sn.applyMS), "ms")
	m.set("core.snapshot_marshal_ms", median(sn.marshalMS), "ms")
	m.set("serve.delta_ms", percentile(durs(ss.delta, time.Millisecond), 0.5), "ms")
	m.set("serve.hit_us", percentile(durs(ss.hit, time.Microsecond), 0.5), "us")
	m.set("serve.hit_ratio", ratio(float64(len(ss.hit)), float64(ss.requests)), "ratio")
	m.set("serve.miss_ms", percentile(durs(ss.miss, time.Millisecond), 0.5), "ms")
	m.set("serve.delta_share", ratio(float64(len(ss.delta)), float64(ss.edits)), "ratio")
	m.set("serve.pipeline_runs", float64(ss.pipelineRuns), "count")
	m.set("serve.shared", float64(ss.sharedRq), "count")
	m.set("trace.rewrite_ms", rp.rewriteMS/n, "ms")
	m.set("trace.replay_ms", rp.replayMS/n, "ms")
	m.set("trace.overhead_pct", pct(rp.rewriteMS, rp.replayMS), "%")
	m.set("env.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
}

// summarize prints a human-readable account of the run to stderr.
func summarize(name string, seed int64, t *tally, m metrics) {
	fmt.Fprintf(os.Stderr, "zbench: workload=%s seed=%d GOMAXPROCS=%d attempted=%d failed=%d (%.2f%%) fail-closed-as-expected=%d\n",
		name, seed, runtime.GOMAXPROCS(0), t.attempted, t.failed,
		100*ratio(float64(t.failed), float64(t.attempted)), t.failClosed)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-26s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
