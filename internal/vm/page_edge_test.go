package vm

import (
	"bytes"
	"errors"
	"testing"

	"zipr/internal/isa"
)

// Page-boundary and self-modification edge cases of fetch, load32 and
// store32. Each pins the exact fault text or counters, so a fast path
// that diverges from the byte-by-byte semantics at a page edge fails
// here.

// wantFault asserts err is a *Fault with exactly the given PC and reason.
func wantFault(t *testing.T, err error, pc uint32, reason string) {
	t.Helper()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error = %v, want *Fault", err)
	}
	if f.PC != pc || f.Reason != reason {
		t.Fatalf("fault = (%#x, %q), want (%#x, %q)", f.PC, f.Reason, pc, reason)
	}
}

// straddleProg returns a machine with two text pages at textBase, the
// second mapped with perm2 (0 = unmapped), and code written so that its
// first instruction (movi r1, 42: 6 bytes) starts three bytes before the
// page boundary. The PC is set to that instruction.
func straddleProg(t *testing.T, perm2 Perm) *Machine {
	t.Helper()
	m := New()
	if err := m.Map(textBase, PageSize, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if perm2 != 0 {
		if err := m.Map(textBase+PageSize, PageSize, perm2); err != nil {
			t.Fatal(err)
		}
	}
	code := prog(t, isa.Inst{Op: isa.OpMovI, Rd: 1, Imm: 42},
		isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: SysTerminate},
		isa.Inst{Op: isa.OpSyscall})
	start := textBase + PageSize - 3
	if perm2 == 0 {
		code = code[:3] // only the in-page bytes can be written
	}
	if err := m.WriteMem(start, code); err != nil {
		t.Fatal(err)
	}
	m.SetPC(start)
	return m
}

func TestFetchStraddlesIntoExecutablePage(t *testing.T) {
	res, err := straddleProg(t, PermR|PermX).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ExitCode != 42 || res.Steps != 3 {
		t.Fatalf("exit %d steps %d, want 42 and 3", res.ExitCode, res.Steps)
	}
	if res.PagesTouched != 2 {
		t.Fatalf("pages touched = %d, want 2 (both halves of the straddling instruction)", res.PagesTouched)
	}
}

func TestFetchStraddlesIntoNonExecutablePage(t *testing.T) {
	pc := textBase + PageSize - 3
	for _, tc := range []struct {
		name string
		perm Perm
	}{{"data page", PermR | PermW}, {"unmapped", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := straddleProg(t, tc.perm).Run()
			wantFault(t, err, pc, "decode: isa: truncated instruction (bytes b8 01 2a)")
			if res.Steps != 0 || res.PagesTouched != 0 {
				t.Fatalf("steps %d pages %d, want 0 and 0", res.Steps, res.PagesTouched)
			}
		})
	}
}

// TestLoadStoreStraddleIntoUnmappedPage: a 4-byte access whose tail
// crosses into an unmapped page faults at the first unmapped byte, after
// the in-page bytes were accessed (and, for a store, written).
func TestLoadStoreStraddleIntoUnmappedPage(t *testing.T) {
	const data uint32 = 0x00200000
	addr := data + PageSize - 2
	for _, tc := range []struct {
		name string
		op   isa.Inst
	}{
		{"load32", isa.Inst{Op: isa.OpLoad, Rd: 2, Rs: 1}},
		{"store32", isa.Inst{Op: isa.OpStore, Rd: 1, Rs: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New()
			if err := m.Map(textBase, PageSize, PermR|PermX); err != nil {
				t.Fatal(err)
			}
			if err := m.Map(data, PageSize, PermR|PermW); err != nil {
				t.Fatal(err)
			}
			code := prog(t, isa.Inst{Op: isa.OpMovI, Rd: 1, Imm: int32(addr)},
				isa.Inst{Op: isa.OpMovI, Rd: 3, Imm: 0x44332211}, tc.op)
			if err := m.WriteMem(textBase, code); err != nil {
				t.Fatal(err)
			}
			m.SetPC(textBase)
			res, err := m.Run()
			wantFault(t, err, textBase+12, "access to unmapped address 0x201000")
			if res.PagesTouched != 2 || res.MemOps != 1 || res.Steps != 3 {
				t.Fatalf("pages %d memops %d steps %d, want 2, 1 and 3", res.PagesTouched, res.MemOps, res.Steps)
			}
			got, err := m.ReadMem(addr, 2)
			if err != nil {
				t.Fatal(err)
			}
			want := []byte{0, 0}
			if tc.op.Op == isa.OpStore {
				want = []byte{0x11, 0x22}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("in-page bytes = % x, want % x", got, want)
			}
		})
	}
}

// TestStoreStraddleIntoReadOnlyPage: the permission check applies per
// byte, so the fault names the first byte of the read-only page.
func TestStoreStraddleIntoReadOnlyPage(t *testing.T) {
	const data uint32 = 0x00200000
	m := New()
	if err := m.Map(textBase, PageSize, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(data, PageSize, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(data+PageSize, PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	code := prog(t, isa.Inst{Op: isa.OpMovI, Rd: 1, Imm: int32(data + PageSize - 1)},
		isa.Inst{Op: isa.OpStore, Rd: 1, Rs: 3})
	if err := m.WriteMem(textBase, code); err != nil {
		t.Fatal(err)
	}
	m.SetPC(textBase)
	res, err := m.Run()
	wantFault(t, err, textBase+6, "permission violation at 0x201000 (need 10 have 1)")
	if res.PagesTouched != 2 {
		t.Fatalf("pages touched = %d, want 2", res.PagesTouched)
	}
}

// TestStoreToWritableExecutablePage: code in a W|X page runs, is
// overwritten by a store, and the next call executes the new bytes.
func TestStoreToWritableExecutablePage(t *testing.T) {
	const jit uint32 = 0x00300000
	m := New()
	if err := m.Map(textBase, PageSize, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(jit, PageSize, PermR|PermW|PermX); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMem(jit, []byte{0xC3}); err != nil { // ret
		t.Fatal(err)
	}
	code := prog(t,
		isa.Inst{Op: isa.OpMovI, Rd: 1, Imm: 41},
		isa.Inst{Op: isa.OpMovI, Rd: 5, Imm: int32(jit)},
		isa.Inst{Op: isa.OpCallR, Rd: 5}, // runs the old "ret"
		isa.Inst{Op: isa.OpMovI, Rd: 6, Imm: 0x1C30140},
		isa.Inst{Op: isa.OpStore, Rd: 5, Rs: 6}, // inc r1; ret
		isa.Inst{Op: isa.OpCallR, Rd: 5},
		isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: SysTerminate},
		isa.Inst{Op: isa.OpSyscall})
	if err := m.WriteMem(textBase, code); err != nil {
		t.Fatal(err)
	}
	m.SetPC(textBase)
	res, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ExitCode != 42 {
		t.Fatalf("exit code = %d, want 42 (the stored inc did not run)", res.ExitCode)
	}
	if res.Steps != 11 {
		t.Fatalf("steps = %d, want 11", res.Steps)
	}
}

// TestWriteMemOverExecutedCode: WriteMem replaces code that already ran,
// and the next Run executes the replacement.
func TestWriteMemOverExecutedCode(t *testing.T) {
	m := New()
	if err := m.Map(textBase, PageSize, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMem(textBase, prog(t, isa.Inst{Op: isa.OpMovI, Rd: 1, Imm: 1}, isa.Inst{Op: isa.OpHlt})); err != nil {
		t.Fatal(err)
	}
	m.SetPC(textBase)
	_, err := m.Run()
	wantFault(t, err, textBase+6, "hlt executed")
	if err := m.WriteMem(textBase, prog(t, exit(7)...)); err != nil {
		t.Fatal(err)
	}
	m.SetPC(textBase)
	res, err := m.Run()
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if res.ExitCode != 7 || res.Steps != 5 {
		t.Fatalf("exit %d steps %d, want 7 and 5", res.ExitCode, res.Steps)
	}
}

// TestMisalignedPCFaultsOnZVM64: after aligned code on the same page has
// executed, a jump to a misaligned address still faults with the
// decoder's error.
func TestMisalignedPCFaultsOnZVM64(t *testing.T) {
	var code []byte
	for _, in := range []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: int32(textBase + 2)},
		{Op: isa.OpJmpR, Rd: 1},
	} {
		b, err := isa.ZVM64.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		code = append(code, b...)
	}
	m := New(WithArch(isa.ZVM64))
	if err := m.Map(textBase, PageSize, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMem(textBase, code); err != nil {
		t.Fatal(err)
	}
	m.SetPC(textBase)
	res, err := m.Run()
	wantFault(t, err, textBase+2,
		"decode: isa: misaligned instruction address: 0x100002 (bytes 00 00 02 00 10 00 fe 01)")
	if res.Steps != 2 || res.PagesTouched != 1 {
		t.Fatalf("steps %d pages %d, want 2 and 1", res.Steps, res.PagesTouched)
	}
}
