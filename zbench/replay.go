package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"zipr"
	"zipr/internal/binfmt"
	"zipr/internal/cfg"
	"zipr/internal/core"
	"zipr/internal/disasm"
	"zipr/internal/isa"
	"zipr/internal/layout"
	"zipr/internal/transform"
)

// Layer names of the rewrite pipeline, in call order.
var replayLayers = []string{"binfmt.unmarshal", "disasm", "cfg", "transform", "core", "binfmt.marshal"}

// replayStats accumulates the layer-by-layer replay.
type replayStats struct {
	n          int                // replayed rewrites that completed
	ms, allocs map[string]float64 // summed per layer
	replayMS   float64            // summed over layers, completed rewrites
	rewriteMS  float64            // zipr.Rewrite of the same inputs
	insts      int
	pins       int
	functions  int
	core       core.Stats // summed over completed rewrites
	sweeps     int        // standalone disassemblies
	linearMS   float64
	recMS      float64
	mismatches int
}

func newReplayStats() *replayStats {
	return &replayStats{ms: make(map[string]float64), allocs: make(map[string]float64)}
}

// layerTimer times consecutive layer calls and counts their heap
// allocations; the allocation counter is read outside the timed span.
type layerTimer struct {
	ms, allocs map[string]float64
	start      time.Time
	mallocs    uint64
}

func (lt *layerTimer) begin() {
	lt.mallocs, _ = allocMeter()
	lt.start = time.Now()
}

func (lt *layerTimer) end(layer string) {
	d := float64(time.Since(lt.start)) / 1e6
	m, _ := allocMeter()
	lt.ms[layer] += d
	lt.allocs[layer] += float64(m - lt.mallocs)
}

// replayPipeline runs one rewrite through each module's public entry
// point, exactly as zipr.Rewrite sequences them for an optimized,
// two-way-arbitration configuration without capture options, recording
// each layer's time and allocations into lt.
func replayPipeline(input []byte, c zipr.Config, lt *layerTimer) ([]byte, *core.Result, *stageCounts, error) {
	sc := &stageCounts{}
	lt.begin()
	bin, err := binfmt.Unmarshal(input)
	lt.end("binfmt.unmarshal")
	if err != nil {
		return nil, nil, nil, err
	}
	arch, err := isa.ByName(c.ISA)
	if err != nil {
		return nil, nil, nil, err
	}
	lt.begin()
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{Arbitration: disasm.ArbTwoWay, Arch: arch})
	lt.end("disasm")
	if err != nil {
		return nil, nil, nil, err
	}
	lt.begin()
	prog, err := cfg.BuildOpts(bin, agg, cfg.Options{})
	lt.end("cfg")
	if err != nil {
		return nil, nil, nil, err
	}
	sc.insts, sc.functions = len(prog.Insts), len(prog.Functions)
	for _, n := range prog.Insts {
		if n.Pinned {
			sc.pins++
		}
	}
	lt.begin()
	err = transform.Apply(prog, c.Transforms...)
	lt.end("transform")
	if err != nil {
		return nil, nil, nil, err
	}
	lt.begin()
	res, err := core.Reassemble(prog, core.Options{Placer: layout.Optimized{}})
	lt.end("core")
	if err != nil {
		return nil, nil, nil, err
	}
	lt.begin()
	data, err := res.Binary.Marshal()
	lt.end("binfmt.marshal")
	return data, res, sc, err
}

// stageCounts are the IR sizes after CFG construction.
type stageCounts struct{ insts, pins, functions int }

// replay replays c layer by layer, then runs zipr.Rewrite on the same
// input and asserts both produce identical bytes, or both fail with
// zipr.Rewrite's error containing the replay's.
func (rp *replayStats) replay(c rewriteCase) ([]byte, error) {
	lt := &layerTimer{ms: make(map[string]float64), allocs: make(map[string]float64)}
	got, res, sc, rerr := replayPipeline(c.input, c.cfg, lt)
	start := time.Now()
	want, _, werr := zipr.Rewrite(c.input, c.cfg)
	rewriteMS := float64(time.Since(start)) / 1e6
	switch {
	case (rerr == nil) != (werr == nil):
		rp.mismatches++
		return nil, fmt.Errorf("replay differs from zipr.Rewrite: replay error %v, zipr.Rewrite error %v", rerr, werr)
	case rerr != nil && !strings.Contains(werr.Error(), rerr.Error()):
		rp.mismatches++
		return nil, fmt.Errorf("replay differs from zipr.Rewrite: replay error %v, zipr.Rewrite error %v", rerr, werr)
	case rerr != nil:
		return nil, werr // both failed the same way: the operation's own outcome
	case !bytes.Equal(got, want):
		rp.mismatches++
		return nil, fmt.Errorf("replay differs from zipr.Rewrite: output bytes differ")
	}
	rp.n++
	for _, l := range replayLayers {
		rp.ms[l] += lt.ms[l]
		rp.allocs[l] += lt.allocs[l]
		rp.replayMS += lt.ms[l]
	}
	rp.rewriteMS += rewriteMS
	rp.insts += sc.insts
	rp.pins += sc.pins
	rp.functions += sc.functions
	s := res.Stats
	rp.core.Pinned += s.Pinned
	rp.core.InlinePins += s.InlinePins
	rp.core.Dollops += s.Dollops
	rp.core.Stubs5 += s.Stubs5
	rp.core.Stubs2 += s.Stubs2
	rp.core.Chains += s.Chains
	rp.core.Sleds += s.Sleds
	rp.core.Veneers += s.Veneers
	rp.core.OverflowUsed += s.OverflowUsed
	return want, nil
}

// sweep times the two standalone disassemblers on a ZVM-32 input.
func (rp *replayStats) sweep(input []byte) error {
	bin, err := binfmt.Unmarshal(input)
	if err != nil {
		return err
	}
	text := bin.Text()
	if text == nil {
		return fmt.Errorf("no text segment")
	}
	t0 := time.Now()
	disasm.LinearSweepArch(text.Data, text.VAddr, isa.ZVM32)
	t1 := time.Now()
	disasm.RecursiveTraversal(bin)
	t2 := time.Now()
	rp.sweeps++
	rp.linearMS += float64(t1.Sub(t0)) / 1e6
	rp.recMS += float64(t2.Sub(t1)) / 1e6
	return nil
}

// snapStats accumulates the placement-snapshot layer.
type snapStats struct {
	applyMS, marshalMS []float64
	refused            int
}

// snapshot captures a placement snapshot of s.base, then times
// Snapshot.Apply on each of s.edits and Snapshot.Marshal. An applied
// delta must equal a direct rewrite of the edit; a typed refusal is
// counted.
func (sn *snapStats) snapshot(s session) error {
	c := serveConfig()
	c.CaptureSnapshot = true
	_, rep, err := zipr.Rewrite(s.base, c)
	if err != nil {
		return err
	}
	if rep.Snapshot == nil {
		sn.refused += len(s.edits)
		return nil
	}
	t0 := time.Now()
	rep.Snapshot.Marshal()
	sn.marshalMS = append(sn.marshalMS, float64(time.Since(t0))/1e6)
	for e, edit := range s.edits {
		t0 := time.Now()
		out, _, err := rep.Snapshot.Apply(edit)
		d := time.Since(t0)
		if errors.Is(err, zipr.ErrDeltaInapplicable) {
			sn.refused++
			continue
		}
		if err != nil {
			return err
		}
		want, _, err := zipr.Rewrite(edit, serveConfig())
		if err != nil {
			return err
		}
		if !bytes.Equal(out, want) {
			return fmt.Errorf("snapshot apply of %s differs from a direct rewrite", s.editKey(e))
		}
		sn.applyMS = append(sn.applyMS, float64(d)/1e6)
	}
	return nil
}
