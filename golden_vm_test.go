package zipr

// VM golden suite: the interpreter's counters for every (program,
// poller) run of the CGC evaluation set. The corpus suites pin image
// and transcript digests; this one pins the numbers the paper's CPU and
// MaxRSS metrics are computed from — retired instructions and touched
// pages — plus the data-access and syscall counters, the exit code and
// the sha256 of the output, in testdata/golden/vm.json. Any change to
// how the VM fetches, decodes, loads, stores or accounts residency that
// moves one of them fails here with the exact run that moved.
//
// The pinned set is the 62 corpus originals with their ZVM-32 Null and
// CFI optimized rewrites, plus the ZVM-64 golden programs (original and
// Null optimized rewrite).
//
// Regenerate after an intentional change with:
//
//	go test -run TestGoldenVM -update .

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
	"zipr/internal/isa"
	"zipr/internal/loader"
	"zipr/internal/synth"
	"zipr/internal/vm"
)

const goldenVMPath = "testdata/golden/vm.json"

// vmGoldenRun pins one poller run's Result.
type vmGoldenRun struct {
	Exit     int32  `json:"exit"`
	Steps    uint64 `json:"steps"`
	Pages    int    `json:"pages"`
	MemOps   uint64 `json:"mem_ops"`
	Syscalls uint64 `json:"syscalls"`
	Output   string `json:"output"` // sha256 of Result.Output
}

type vmGolden struct {
	Version int                    `json:"version"`
	Runs    map[string]vmGoldenRun `json:"runs"`
}

// vmGoldenProgram is one binary whose pollers the suite runs.
type vmGoldenProgram struct {
	cb      *cgcsim.CB
	variant string // "orig" or a golden stack name
	arch    isa.Arch
}

func (p vmGoldenProgram) key(poller int) string {
	key := fmt.Sprintf("%s/%s/p%d", p.cb.Name, p.variant, poller)
	if !isa.IsDefault(p.arch) {
		key += "/" + p.arch.Name()
	}
	return key
}

// vmGoldenPrograms lists the pinned programs: each ZVM-32 corpus CB as
// original, Null and CFI, and each ZVM-64 golden CB as original and
// Null. Only every stride-th CB of each list is returned.
func vmGoldenPrograms(t *testing.T, stride int) []vmGoldenProgram {
	t.Helper()
	corpus, err := cgcsim.Corpus(synth.CorpusSize)
	if err != nil {
		t.Fatal(err)
	}
	var progs []vmGoldenProgram
	add := func(cbs []cgcsim.CB, arch isa.Arch, variants ...string) {
		for i := range cbs {
			if i%stride != 0 {
				continue
			}
			for _, v := range variants {
				progs = append(progs, vmGoldenProgram{&cbs[i], v, arch})
			}
		}
	}
	add(corpus, isa.ZVM32, "orig", "null", "cfi")
	var cbs64 []cgcsim.CB
	for _, idx := range goldenISACBs() {
		cb, err := cgcsim.CBArch(idx, isa.ZVM64)
		if err != nil {
			t.Fatal(err)
		}
		cbs64 = append(cbs64, cb)
	}
	add(cbs64, isa.ZVM64, "orig", "null")
	return progs
}

// vmGoldenBinary returns the binary a program runs: the original, or
// its optimized rewrite under the named golden stack.
func vmGoldenBinary(t *testing.T, p vmGoldenProgram) *binfmt.Binary {
	t.Helper()
	if p.variant == "orig" {
		return p.cb.Bin
	}
	cfg := Config{Transforms: findGoldenStack(t, p.variant).tfs(), Layout: LayoutOptimized}
	if !isa.IsDefault(p.arch) {
		cfg.ISA = p.arch.Name()
	}
	out, _, err := RewriteBinary(p.cb.Bin.Clone(), cfg)
	if err != nil {
		t.Fatalf("%s/%s: rewrite: %v", p.cb.Name, p.variant, err)
	}
	return out
}

// vmGoldenExec runs bin on one poller input with the evaluation
// harness's step budget.
func vmGoldenExec(bin *binfmt.Binary, arch isa.Arch, input []byte) (vmGoldenRun, error) {
	m := vm.New(vm.WithStdin(bytes.NewReader(input)), vm.WithMaxSteps(50_000_000), vm.WithArch(arch))
	if err := loader.Load(m, bin, nil); err != nil {
		return vmGoldenRun{}, err
	}
	res, err := m.Run()
	if err != nil {
		return vmGoldenRun{}, err
	}
	sum := sha256.Sum256(res.Output)
	return vmGoldenRun{
		Exit:     res.ExitCode,
		Steps:    res.Steps,
		Pages:    res.PagesTouched,
		MemOps:   res.MemOps,
		Syscalls: res.Syscalls,
		Output:   hex.EncodeToString(sum[:]),
	}, nil
}

func loadVMGolden(t *testing.T) vmGolden {
	t.Helper()
	var g vmGolden
	raw, err := os.ReadFile(goldenVMPath)
	if err != nil {
		t.Fatalf("vm golden file missing (%v); generate it with: go test -run TestGoldenVM -update .", err)
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("vm golden file corrupt: %v", err)
	}
	if g.Version != 1 {
		t.Fatalf("vm golden file version %d, this suite expects 1", g.Version)
	}
	return g
}

func TestGoldenVM(t *testing.T) {
	stride := goldenStride
	if testing.Short() && stride < 4 {
		stride = 4
	}
	if *updateGolden && stride != 1 {
		t.Fatal("-update needs every run: run without -race and -short")
	}
	got := make(map[string]vmGoldenRun)
	for _, p := range vmGoldenPrograms(t, stride) {
		bin := vmGoldenBinary(t, p)
		for pi, input := range p.cb.Pollers {
			run, err := vmGoldenExec(bin, p.arch, input)
			if err != nil {
				t.Errorf("%s: %v", p.key(pi), err)
				continue
			}
			got[p.key(pi)] = run
		}
	}

	if *updateGolden {
		if t.Failed() {
			t.Fatal("not writing golden file: some runs failed")
		}
		raw, err := json.MarshalIndent(vmGolden{Version: 1, Runs: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenVMPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("pinned %d runs to %s", len(got), goldenVMPath)
		return
	}
	pinned := loadVMGolden(t)
	for k, run := range got {
		want, ok := pinned.Runs[k]
		switch {
		case !ok:
			t.Errorf("%s: no pinned counters (new run?); regenerate with -update", k)
		case run != want:
			t.Errorf("%s: VM result drifted\n  pinned %+v\n  got    %+v", k, want, run)
		}
	}
}

// TestGoldenVMFileComplete checks the pinned file's key set against the
// full program list, so a stale file fails even when a strided run
// would not visit the missing runs.
func TestGoldenVMFileComplete(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	pinned := loadVMGolden(t)
	want := make(map[string]bool)
	for _, p := range vmGoldenPrograms(t, 1) {
		for pi := range p.cb.Pollers {
			want[p.key(pi)] = true
		}
	}
	for k := range want {
		if _, ok := pinned.Runs[k]; !ok {
			t.Errorf("run %s missing from vm golden file; regenerate with -update", k)
		}
	}
	for k, run := range pinned.Runs {
		if !want[k] {
			t.Errorf("vm golden file pins unknown run %s; regenerate with -update", k)
		}
		if len(run.Output) != 64 {
			t.Errorf("run %s: output digest %q is not a sha256 hex string", k, run.Output)
		}
	}
}
