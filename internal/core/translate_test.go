package core

import (
	"bytes"
	"testing"

	"dorado/internal/device"
	"dorado/internal/ifu"
	"dorado/internal/masm"
	"dorado/internal/memory"
	"dorado/internal/microcode"
)

// The translated-path differential harness. The tracer-based diffMachines
// cannot exercise translation (an attached tracer routes Run through the
// generic loop), so these tests compare machine *snapshots* instead: all
// three execution paths — reference, predecoded, translated — run the same
// scenario in lockstep chunks and must produce byte-identical snapshots at
// every chunk boundary. The chunk size is prime so the cycle budget
// repeatedly expires mid-superblock, covering the partial-block exit.

// translateTestCfg makes blocks form fast in short tests.
var translateTestCfg = Translation{Enable: true, HotThreshold: 4}

// smallMem keeps per-chunk snapshots cheap (a snapshot embeds storage).
var smallMem = memory.Config{CacheWords: 256, CacheWays: 2, StorageWords: 1 << 16}

// diffTranslated builds the scenario on all three paths and lockstep-runs
// them, comparing snapshots every chunk cycles. Returns the translated
// machine for stats assertions.
func diffTranslated(t *testing.T, name string, total, chunk uint64, build func(cfg Config) (*Machine, error)) *Machine {
	t.Helper()
	ref, err := build(Config{Reference: true})
	if err != nil {
		t.Fatalf("%s: build reference: %v", name, err)
	}
	pre, err := build(Config{})
	if err != nil {
		t.Fatalf("%s: build predecoded: %v", name, err)
	}
	tr, err := build(Config{Translation: translateTestCfg})
	if err != nil {
		t.Fatalf("%s: build translated: %v", name, err)
	}
	machines := []*Machine{ref, pre, tr}
	labels := []string{"reference", "predecoded", "translated"}
	for done := uint64(0); done < total; done += chunk {
		k := chunk
		if left := total - done; left < k {
			k = left
		}
		for _, m := range machines {
			m.RunCycles(k)
		}
		base := ref.Snapshot()
		for i := 1; i < len(machines); i++ {
			snap := machines[i].Snapshot()
			if !bytes.Equal(base, snap) {
				t.Fatalf("%s: %s snapshot diverges from reference at cycle %d, first differing byte %d",
					name, labels[i], ref.Cycle(), firstDiffIndex(base, snap))
			}
		}
		if ref.Halted() {
			break
		}
	}
	return tr
}

func firstDiffIndex(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestTranslationConfigValidation(t *testing.T) {
	if _, err := New(Config{Translation: Translation{Enable: true}, Reference: true}); err == nil {
		t.Error("New accepted Translation with Reference")
	}
	if _, err := New(Config{Translation: Translation{Enable: true}, Options: Options{NoBypass: true}}); err == nil {
		t.Error("New accepted Translation with an Options ablation")
	}
	m, err := New(Config{Translation: Translation{Enable: true}})
	if err != nil {
		t.Fatalf("New rejected plain Translation: %v", err)
	}
	if m.trans == nil {
		t.Fatal("Translation enabled but no translator allocated")
	}
	if got := m.trans.cfg; got.HotThreshold != 64 {
		t.Errorf("defaults = %+v, want HotThreshold 64", got)
	}
	if m2, err := New(Config{}); err != nil || m2.trans != nil {
		t.Errorf("plain machine got a translator (err %v)", err)
	}
}

// TestTranslatedDifferentialALU: a hot data-section loop — §5.9 constants,
// COUNT branch, CALL/RETURN, Q, FF RM-redirect — the data-section
// template's register forms plus fused terminators (branch, return).
func TestTranslatedDifferentialALU(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUB, Const: 0x00FF, HasConst: true, LC: microcode.LCLoadT})
	bl.Emit(masm.I{FF: microcode.FFCountBase + 9, Flow: masm.Goto("loop")})
	bl.EmitAt("loop", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{FF: microcode.FFPutQ, ALU: microcode.ALUAplusB, A: microcode.ASelT, B: microcode.BSelRM, R: 1, LC: microcode.LCLoadRM, Flow: masm.Call("sub")})
	bl.Emit(masm.I{FF: microcode.FFRMDestBase + 5, ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelQ, LC: microcode.LCLoadRM, R: 1})
	bl.Emit(masm.I{ALU: microcode.ALUAminusB, A: microcode.ASelRM, R: 5, B: microcode.BSelT,
		Flow: masm.Branch(microcode.CondCountNZ, "done", "loop")})
	bl.EmitAt("done", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
	bl.EmitAt("sub", masm.I{ALU: microcode.ALUAorB, A: microcode.ASelT, B: microcode.BSelQ,
		LC: microcode.LCLoadT, Flow: masm.Return()})
	p := mustProgram(t, bl)
	tr := diffTranslated(t, "alu", 600, 7, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.SetRM(1, 0x1234)
		m.Start(p.MustEntry("start"))
		return m, nil
	})
	st := tr.TranslationStats()
	if st.BlocksBuilt == 0 || st.Entries == 0 {
		t.Errorf("hot ALU loop built no superblocks: %+v", st)
	}
}

// TestTranslatedDifferentialStackMemory: the task-0 stack modifier (blocks
// become task0Only) interleaved with memory fetches whose MD use holds
// mid-block — the fallback contract for holds inside fused runs.
func TestTranslatedDifferentialStackMemory(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{FF: microcode.FFCountBase + 40, Flow: masm.Goto("loop")})
	bl.EmitAt("loop", masm.I{Block: true, R: 1, ALU: microcode.ALUB, Const: 0x0011, HasConst: true,
		LC: microcode.LCLoadRM}) // push
	bl.Emit(masm.I{FF: microcode.FFMemBaseBase + 2, A: microcode.ASelFetch, R: 2}) // fetch base2+RM[2]
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelMD, B: microcode.BSelRM,
		Block: true, R: 0, LC: microcode.LCLoadRM}) // MD + top (holds until MD ready)
	bl.Emit(masm.I{A: microcode.ASelStore, R: 2, B: microcode.BSelT})
	bl.Emit(masm.I{Block: true, R: 0xF, ALU: microcode.ALUA, A: microcode.ASelRM, LC: microcode.LCLoadT,
		Flow: masm.Branch(microcode.CondCountNZ, "done", "loop")}) // pop
	bl.EmitAt("done", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
	p := mustProgram(t, bl)
	tr := diffTranslated(t, "stack-memory", 1200, 7, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Mem().SetBase(2, 0x6000)
		m.Mem().Poke(0x6010, 0x0300)
		m.SetRM(2, 0x10)
		m.Start(p.MustEntry("start"))
		return m, nil
	})
	st := tr.TranslationStats()
	if st.BlocksBuilt == 0 {
		t.Errorf("hot stack loop built no superblocks: %+v", st)
	}
	if s := tr.Stats(); s.Holds == 0 {
		t.Errorf("scenario produced no holds; mid-block hold fallback not exercised")
	}
}

// TestTranslatedDifferentialDevices: two controllers thrash task switches —
// wakeups preempt task 0 mid-block, service blocks Block-release, and the
// generic runBlock scheduler epilogue runs every fused cycle.
func TestTranslatedDifferentialDevices(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("emu", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 0, LC: microcode.LCLoadRM})
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelRM, R: 0, B: microcode.BSelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelRM, R: 0,
		LC: microcode.LCLoadT, Flow: masm.Goto("emu")})
	bl.EmitAt("svc", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	bl.Emit(masm.I{A: microcode.ASelStore, R: 1, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Block: true, Flow: masm.Goto("svc")})
	p := mustProgram(t, bl)
	tr := diffTranslated(t, "devices", 20_000, 101, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("emu"))
		for _, task := range []int{9, 11} {
			if err := m.Attach(newProbeBench(task)); err != nil {
				return nil, err
			}
			m.SetIOAddress(task, uint16(task))
			m.SetTPC(task, p.MustEntry("svc"))
			m.SetRM(1, 0x6000)
		}
		return m, nil
	})
	st := tr.TranslationStats()
	if st.BlocksBuilt == 0 || st.Entries == 0 {
		t.Errorf("device scenario built no superblocks: %+v", st)
	}
	if s := tr.Stats(); s.TaskSwitches == 0 {
		t.Errorf("device scenario produced no task switches; preemption fallback not exercised")
	}
}

// TestTranslatedDifferentialIdlers: time-driven controllers implementing
// device.Idler (WordSource, Pulse) let runBlock hoist the per-cycle device
// scan under a quiet-horizon promise; the three paths must stay
// byte-identical through wakeups, preemptions, and service, and the
// horizon must actually engage (QuietCycles > 0).
func TestTranslatedDifferentialIdlers(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("emu", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 0, LC: microcode.LCLoadRM})
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelRM, R: 0, B: microcode.BSelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelRM, R: 0,
		LC: microcode.LCLoadT, Flow: masm.Goto("emu")})
	bl.EmitAt("svc", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	bl.Emit(masm.I{A: microcode.ASelStore, R: 1, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Block: true, Flow: masm.Goto("svc")})
	bl.EmitAt("psvc", masm.I{Block: true, Flow: masm.Goto("psvc")})
	p := mustProgram(t, bl)
	tr := diffTranslated(t, "idlers", 20_000, 101, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("emu"))
		if err := m.Attach(device.NewWordSource(11, 23, 2)); err != nil {
			return nil, err
		}
		m.SetIOAddress(11, 11)
		m.SetTPC(11, p.MustEntry("svc"))
		m.SetRM(1, 0x6000)
		if err := m.Attach(device.NewPulse(9, 97)); err != nil {
			return nil, err
		}
		m.SetTPC(9, p.MustEntry("psvc"))
		return m, nil
	})
	st := tr.TranslationStats()
	if st.BlocksBuilt == 0 || st.Entries == 0 {
		t.Errorf("idler scenario built no superblocks: %+v", st)
	}
	if st.QuietCycles == 0 {
		t.Error("idler devices attached but no fused cycle skipped the device scan")
	}
	if s := tr.Stats(); s.TaskSwitches == 0 {
		t.Errorf("idler scenario produced no task switches; wakeup fallback not exercised")
	}
}

// TestTranslateDevUnsafeBlock: an FF that can poke a device (Output) keeps
// the containing block off the quiet-horizon path.
func TestTranslateDevUnsafeBlock(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{FF: microcode.FFOutput, B: microcode.BSelT, Flow: masm.Goto("start")})
	p := mustProgram(t, bl)
	m, err := New(Config{Memory: smallMem, Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(&p.Words)
	b := m.translate(p.MustEntry("start"))
	if b == nil {
		t.Fatal("loop did not translate")
	}
	if b.devSafe {
		t.Error("block containing FF Output marked devSafe")
	}
	if !b.ifuSafe {
		t.Error("block without FF IFUReset not marked ifuSafe")
	}
}

// TestLoadIdempotent: reloading an identical microstore image neither
// re-decodes nor flushes the superblock caches.
func TestLoadIdempotent(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT, Flow: masm.Goto("start")})
	p := mustProgram(t, bl)
	m, err := New(Config{Memory: smallMem, Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(&p.Words)
	m.Start(p.MustEntry("start"))
	m.RunCycles(100)
	st := m.TranslationStats()
	if st.BlocksBuilt == 0 {
		t.Fatalf("loop not translated: %+v", st)
	}
	m.Load(&p.Words) // identical image: must be a no-op
	if got := m.TranslationStats().Invalidations; got != st.Invalidations {
		t.Errorf("identical Load bumped Invalidations %d → %d", st.Invalidations, got)
	}
	a := p.MustEntry("start")
	m.SetIM(a, m.IM(a)) // identical word: must be a no-op
	if got := m.TranslationStats().Invalidations; got != st.Invalidations {
		t.Errorf("identical SetIM bumped Invalidations %d → %d", st.Invalidations, got)
	}
}

// TestTranslatedDifferentialIFU: macroinstruction handlers ending in
// IFUJUMP — the dynamically-dispatched terminator — get hot and fuse; the
// IFU dispatch hold at an empty buffer exercises the held-terminator exit.
func TestTranslatedDifferentialIFU(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{Flow: masm.IFUJump()})
	bl.EmitAt("op1", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelRM, R: 2, B: microcode.BSelT, LC: microcode.LCLoadRM})
	bl.Emit(masm.I{ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelRM, R: 2, Flow: masm.IFUJump()})
	bl.EmitAt("haltop", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
	p := mustProgram(t, bl)
	tr := diffTranslated(t, "ifu", 4000, 13, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("start"))
		code := make([]byte, 0, 402)
		for i := 0; i < 400; i++ {
			code = append(code, 1)
		}
		code = append(code, 2, 0)
		for i := 0; i+1 < len(code); i += 2 {
			m.Mem().Poke(0x4000+uint32(i/2), uint16(code[i])<<8|uint16(code[i+1]))
		}
		u := m.IFU()
		u.SetCodeBase(0x4000)
		if err := u.SetEntry(1, ifu.Entry{Handler: p.MustEntry("op1"), Name: "OP1"}); err != nil {
			return nil, err
		}
		if err := u.SetEntry(2, ifu.Entry{Handler: p.MustEntry("haltop"), Name: "HALT"}); err != nil {
			return nil, err
		}
		u.Reset(0, 0)
		return m, nil
	})
	st := tr.TranslationStats()
	if st.BlocksBuilt == 0 || st.Entries == 0 {
		t.Errorf("IFU handler loop built no superblocks: %+v", st)
	}
	if !tr.Halted() || tr.T(0) != 400 {
		t.Errorf("macro program end state: halted=%v T=%d, want halted, T=400", tr.Halted(), tr.T(0))
	}
}

// TestTranslatedSetIMInvalidation: a microstore write flushes the block
// cache, so a rewritten instruction takes effect even at a hot address
// whose old body was fused into a superblock.
func TestTranslatedSetIMInvalidation(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUAminus1, A: microcode.ASelT, LC: microcode.LCLoadT, Flow: masm.Goto("start")})
	p := mustProgram(t, bl)
	m, err := New(Config{Memory: smallMem, Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(&p.Words)
	m.Start(p.MustEntry("start"))
	m.RunCycles(100)
	if st := m.TranslationStats(); st.BlocksBuilt == 0 {
		t.Fatalf("loop not translated after 100 cycles: %+v", st)
	}
	inv := m.TranslationStats().Invalidations
	a := p.MustEntry("start")
	w := m.IM(a)
	w.FF = microcode.FFHalt
	m.SetIM(a, w)
	if got := m.TranslationStats().Invalidations; got != inv+1 {
		t.Errorf("SetIM bumped Invalidations %d → %d, want %d", inv, got, inv+1)
	}
	m.RunCycles(10)
	if !m.Halted() {
		t.Fatal("rewritten microword did not take effect on the translated path")
	}
}

// TestTranslatedRestore: Restore flushes the block cache — a snapshot taken
// from a hot translated machine rehydrates onto the generic cycle loop and
// re-translates, staying in lockstep with a predecoded machine restored
// from the same bytes.
func TestTranslatedRestore(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelT, B: microcode.BSelRM, R: 3, LC: microcode.LCLoadRM})
	bl.Emit(masm.I{ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelQ, Flow: masm.Goto("start")})
	p := mustProgram(t, bl)
	build := func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.SetRM(3, 7)
		m.Start(p.MustEntry("start"))
		return m, nil
	}
	hot, err := build(Config{Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	hot.RunCycles(500)
	if st := hot.TranslationStats(); st.BlocksBuilt == 0 {
		t.Fatalf("machine not hot before snapshot: %+v", st)
	}
	snap := hot.Snapshot()

	pre, err := build(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := build(Config{Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	tr.RunCycles(123) // dirty the profile/caches so Restore must flush them
	if err := pre.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if st := tr.TranslationStats(); st.Invalidations == 0 {
		t.Error("Restore did not invalidate the translation caches")
	}
	for i := 0; i < 40; i++ {
		pre.RunCycles(11)
		tr.RunCycles(11)
		ps, ts := pre.Snapshot(), tr.Snapshot()
		if !bytes.Equal(ps, ts) {
			t.Fatalf("restored paths diverge at cycle %d, first differing byte %d",
				pre.Cycle(), firstDiffIndex(ps, ts))
		}
	}
	if st := tr.TranslationStats(); st.BlocksBuilt == 0 {
		t.Error("restored machine never re-translated its hot loop")
	}
}

// TestTranslateBlockShapes checks the fusion rules directly: closed loops
// unroll in whole iterations up to maxBlock, stack-modifier words force
// task0Only, and a run into an interior revisit (not the start) stops.
func TestTranslateBlockShapes(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{Block: true, R: 1, ALU: microcode.ALUB, Const: 1, HasConst: true, LC: microcode.LCLoadRM})
	bl.Emit(masm.I{Block: true, R: 0xF, ALU: microcode.ALUA, A: microcode.ASelRM, Flow: masm.Goto("start")})
	bl.EmitAt("self", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, Flow: masm.Goto("self")})
	bl.EmitAt("head", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, Flow: masm.Goto("inner")})
	bl.EmitAt("inner", masm.I{ALU: microcode.ALUAminus1, A: microcode.ASelT, Flow: masm.Goto("inner")})
	p := mustProgram(t, bl)
	m, err := New(Config{Memory: smallMem, Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(&p.Words)

	b := m.translate(p.MustEntry("start"))
	if b == nil {
		t.Fatal("three-word loop did not translate")
	}
	if len(b.code)%3 != 0 || len(b.code) < 3 || len(b.code) > maxBlock {
		t.Errorf("loop of 3 unrolled to %d instructions, want a whole multiple of 3 within maxBlock %d",
			len(b.code), maxBlock)
	}
	if !b.task0Only {
		t.Error("block with stack-modifier words not marked task0Only")
	}
	if b := m.translate(p.MustEntry("self")); b == nil || len(b.code) != maxBlock {
		t.Errorf("single-word self-loop should unroll to maxBlock %d, got %+v", maxBlock, b)
	}
	// head→inner: inner is a closed loop on itself, but from head's block the
	// revisit is interior, so the run stops there (the inner loop gets its
	// own block when it becomes hot).
	if b := m.translate(p.MustEntry("head")); b != nil && len(b.code) != 2 {
		t.Errorf("run into an interior loop fused %d instructions, want 2", len(b.code))
	}
}

// toggleAtten raises attention in alternating 5-cycle windows, so a
// CondIOAtten branch goes both ways in a deterministic, path-independent
// pattern (Tick runs every cycle on all three paths).
type toggleAtten struct {
	device.Nop
	now uint64
}

func (d *toggleAtten) Tick(now uint64) { d.now = now }
func (d *toggleAtten) Atten() bool     { return d.now/5%2 == 0 }

// TestTranslatedBranchConditions closes a hot loop with every BRANCH
// condition, in both polarities: the taken target loops back to the block
// start and the untaken one leaves the block, then the reverse. The seven
// conditions the data-section template admits must fuse; CondIOAtten reads
// a device and must stay on exec. All three paths must agree at every
// chunk, and every scenario must take both arms of its branch.
func TestTranslatedBranchConditions(t *testing.T) {
	aluT := masm.I{A: microcode.ASelT, ALU: microcode.ALUA}
	plusRM4 := masm.I{A: microcode.ASelT, B: microcode.BSelRM, R: 4, ALU: microcode.ALUAplusB}
	cases := []struct {
		name string
		cond microcode.Condition
		prep []masm.I // words between the loop counter and the branch word
		test masm.I   // the branch word's data section
	}{
		{"zero", microcode.CondALUZero, nil,
			masm.I{A: microcode.ASelT, Const: 3, HasConst: true, ALU: microcode.ALUAandB}},
		{"neg", microcode.CondALUNeg, nil, aluT},
		{"carry", microcode.CondCarry, nil, plusRM4},       // T + 0xC000 carries for T ≥ 0x4000
		{"overflow", microcode.CondOverflow, nil, plusRM4}, // and overflows for T in [0x8000, 0xBFFF]
		{"count", microcode.CondCountNZ, nil, aluT},        // COUNT 3 at entry, never reloaded
		{"stackerr", microcode.CondStackError, []masm.I{
			{Block: true, R: 1, ALU: microcode.ALUB, Const: 0x0011, HasConst: true, LC: microcode.LCLoadRM},
		}, aluT}, // a push per iteration overflows the 64-word stack periodically
		{"mb", microcode.CondMB, []masm.I{
			{A: microcode.ASelT, B: microcode.BSelRM, R: 8, ALU: microcode.ALUAandB,
				FF: microcode.FFRMDestBase + 2, LC: microcode.LCLoadRM}, // RM2 := T & 0x1FF
			{A: microcode.ASelFetch, R: 2},
			{},
			{FF: microcode.FFProbeMD},
		}, aluT}, // MB = MD ready two cycles after a fetch: hits yes, misses no
		{"ioatten", microcode.CondIOAtten, nil, aluT},
	}
	for _, tc := range cases {
		for _, takenLoops := range []bool{true, false} {
			name := tc.name + "/untaken-loops"
			flow := masm.Branch(tc.cond, "start", "out")
			if takenLoops {
				name = tc.name + "/taken-loops"
				flow = masm.Branch(tc.cond, "out", "start")
			}
			bl := masm.NewBuilder()
			bl.EmitAt("entry", masm.I{FF: microcode.FFCountBase + 3, Flow: masm.Goto("start")})
			bl.EmitAt("start", masm.I{A: microcode.ASelT, B: microcode.BSelRM, R: 5,
				ALU: microcode.ALUAplusB, LC: microcode.LCLoadT}) // T += 0x2345
			bl.Emit(masm.I{A: microcode.ASelRM, R: 7, ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
			for _, w := range tc.prep {
				bl.Emit(w)
			}
			test := tc.test
			test.Flow = flow
			bl.EmitAt("test", test)
			bl.EmitAt("out", masm.I{A: microcode.ASelRM, R: 6, ALU: microcode.ALUAplus1,
				LC: microcode.LCLoadRM, Flow: masm.Goto("start")})
			p := mustProgram(t, bl)
			tr := diffTranslated(t, name, 2000, 13, func(cfg Config) (*Machine, error) {
				cfg.Memory = smallMem
				m, err := New(cfg)
				if err != nil {
					return nil, err
				}
				m.Load(&p.Words)
				m.SetRM(4, 0xC000)
				m.SetRM(5, 0x2345)
				m.SetRM(8, 0x01FF)
				if tc.cond == microcode.CondIOAtten {
					// The only scenario with a device: the rest run on the
					// quiescent fast runner.
					if err := m.Attach(&toggleAtten{Nop: device.Nop{TaskNum: 4}}); err != nil {
						return nil, err
					}
					m.SetIOAddress(0, 4)
				}
				m.Start(p.MustEntry("entry"))
				return m, nil
			})
			if st := tr.TranslationStats(); st.BlocksBuilt == 0 || st.FusedCycles == 0 {
				t.Errorf("%s: loop never ran fused: %+v", name, st)
			}
			if iters, outs := tr.RM(7), tr.RM(6); outs == 0 || outs >= iters {
				t.Errorf("%s: %d iterations, %d left through out: the branch did not go both ways", name, iters, outs)
			}
			start, pc := p.MustEntry("start"), p.MustEntry("test")
			d := &tr.dim[pc]
			fused := fuseWide(d, branchNext(start, pc, d)) != nil
			if want := tc.cond != microcode.CondIOAtten; fused != want {
				t.Errorf("%s: template admits the branch word = %v, want %v", name, fused, want)
			}
		}
	}
}
