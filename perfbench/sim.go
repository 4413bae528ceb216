package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dorado"
	"dorado/internal/bitblt"
	"dorado/internal/core"
	"dorado/internal/emulator"
	"dorado/internal/ifu"
	"dorado/internal/masm"
	"dorado/internal/memory"
	"dorado/internal/mesac"
	"dorado/internal/microcode"
)

// This file holds the two simulation workloads, emulator and bitblt. Each
// builds the same machine in three configurations — the default
// predecoded path, superblock translation, and a metrics recorder plus
// profiler attached — and runs them chunk by chunk, rotating which goes
// first, so host noise lands on all three alike. Every chunk does the same
// operations on each configuration, checks each operation's output, and
// ends with the three machines' snapshots compared byte for byte.

// Machine configurations, in the order chunks first rotate through them.
const (
	cfgDefault = iota
	cfgTranslated
	cfgProbed
	numConfigs
)

func configOptions(cfg int) []dorado.Option {
	switch cfg {
	case cfgTranslated:
		return []dorado.Option{dorado.WithTranslation(dorado.Translation{Enable: true})}
	case cfgProbed:
		return []dorado.Option{dorado.WithMetrics(dorado.NewMetrics()), dorado.WithProfiler(dorado.NewProfiler())}
	}
	return nil
}

// simRunner is one configured machine with its operation list. op runs
// operation j to completion and checks its output: it returns the
// simulated cycles, the units of work the op did (macroinstructions
// dispatched, destination words written), and the host CPU time of the
// simulation alone (threadCPU).
type simRunner interface {
	op(j int) (cycles, units uint64, host time.Duration, ok bool)
	machine() *core.Machine
}

// simSpec describes a simulation workload.
type simSpec struct {
	build       func(cfg int, in inputs, tr *tracer) (simRunner, error)
	opsPerChunk int
	idents      int // distinct operations: op j repeats op j mod idents
	iters       int // Mesa loop trip count (the layer timers compile these)
}

// chunkIdents is how many chunk positions the chunk-end Snapshot and
// Restore times are kept for.
const chunkIdents = 4

// keepMin stores v at k in m unless m holds a smaller value there.
func keepMin(m map[int]float64, k int, v float64) {
	if old, ok := m[k]; !ok || v < old {
		m[k] = v
	}
}

// simLimit bounds one operation; every generated input finishes well
// inside it, so reaching it is a failure.
const simLimit = 20_000_000

// Emulator workload.

// emuRunner is the Mesa emulator with the disk (task 11) and display
// (task 13) attached and the seed's page map installed.
type emuRunner struct {
	tr    *tracer
	sys   *dorado.System
	emu   emulator.Program // the Mesa emulator with device microcode spliced in
	progs []*mesac.Program
	want  []uint16
}

func buildEmulator(cfg int, in inputs, tr *tracer) (simRunner, error) {
	sys, err := dorado.New(append([]dorado.Option{dorado.WithLanguage(dorado.Mesa)}, configOptions(cfg)...)...)
	if err != nil {
		return nil, err
	}
	m := sys.Machine
	for vp, rp := range in.PageMap {
		m.Mem().MapSet(vp, rp)
	}
	disp := dorado.NewDisplay(13, m, 32) // a quarter of full bandwidth
	disp.SetBase(0x20000)
	if err := m.Attach(dorado.NewDisk(11)); err != nil {
		return nil, err
	}
	if err := m.Attach(disp); err != nil {
		return nil, err
	}
	micro, err := spliceDeviceMicrocode(sys.Emulator.Micro)
	if err != nil {
		return nil, err
	}
	r := &emuRunner{tr: tr, sys: sys, emu: *sys.Emulator}
	r.emu.Micro = micro
	m.SetIOAddress(11, 11)
	m.SetIOAddress(13, 13)
	m.SetTPC(11, micro.MustEntry("dev.disk"))
	m.SetTPC(13, micro.MustEntry("dev.disp"))
	m.SetT(13, 16) // display block stride
	for _, p := range in.Programs {
		cp, err := mesac.Compile(p.Source)
		if err != nil {
			return nil, err
		}
		r.progs = append(r.progs, cp)
		r.want = append(r.want, p.Want)
	}
	return r, nil
}

// spliceDeviceMicrocode adds the disk and display service routines of
// cmd/dorado -devices (with the disk on diskRM) to the emulator's
// microstore image.
func spliceDeviceMicrocode(emu *masm.Program) (*masm.Program, error) {
	b := masm.NewBuilder()
	b.EmitAt("dev.disk", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: diskRM, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelStore, R: diskRM, FF: microcode.FFInput,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Block: true, Flow: masm.Goto("dev.disk")})
	b.EmitAt("dev.disp", masm.I{A: microcode.ASelT, B: microcode.BSelRM, R: 15,
		ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM, FF: microcode.FFOutput})
	b.Emit(masm.I{Block: true, Flow: masm.Goto("dev.disp")})
	p, err := b.Assemble()
	if err != nil {
		return nil, err
	}
	return masm.Splice(emu, p)
}

// diskRM is the disk's buffer-pointer register; diskBuffer is where each
// boot points it. cmd/dorado -devices uses RM 14, which the Mesa emulator
// holds the new frame's base in during CALL, so a disk wakeup inside a
// call corrupts the frame; RM 12 is the Lisp stack pointer, which Mesa
// never touches.
const (
	diskRM     = 12
	diskBuffer = 0x7800
)

func (r *emuRunner) machine() *core.Machine { return r.sys.Machine }

// boot installs program j (code, function headers, emulator state),
// empties the evaluation stack and rewinds the disk buffer, as a reboot
// after a halt does.
func (r *emuRunner) boot(j int) error {
	m := r.sys.Machine
	r.progs[j].InstallOn(m)
	if err := r.emu.InstallOn(m); err != nil {
		return err
	}
	m.SetStackPtr(0)
	m.SetRM(diskRM, diskBuffer)
	return nil
}

func (r *emuRunner) op(j int) (uint64, uint64, time.Duration, bool) {
	j %= len(r.progs)
	s := r.tr.begin()
	err := r.boot(j)
	r.tr.end(s, "emulator.InstallOn")
	if err != nil {
		return 0, 0, 0, false
	}
	m := r.sys.Machine
	c0, d0 := m.Cycle(), m.IFU().Stats().Dispatches
	s = r.tr.begin()
	t0 := threadCPU()
	halted := m.Run(simLimit)
	host := threadCPU() - t0
	r.tr.end(s, "core.Run")
	st := r.sys.Stack()
	ok := halted && len(st) == 1 && st[0] == r.want[j]
	return m.Cycle() - c0, m.IFU().Stats().Dispatches - d0, host, ok
}

// BitBlt workload.

// bltRunner runs the seed's BitBlt list on an identity-mapped machine with
// no devices, keeping a shadow copy of both bitmaps that bitblt.Reference
// updates, against which every destination is checked.
type bltRunner struct {
	tr     *tracer
	m      *core.Machine
	ps     *bitblt.Programs
	blits  []bitblt.Params
	shadow map[uint32]uint16
}

func buildBitBlt(cfg int, in inputs, tr *tracer) (simRunner, error) {
	sys, err := dorado.New(configOptions(cfg)...)
	if err != nil {
		return nil, err
	}
	ps, err := bitblt.Build()
	if err != nil {
		return nil, err
	}
	r := &bltRunner{tr: tr, m: sys.Machine, ps: ps, blits: in.Blits, shadow: make(map[uint32]uint16, len(in.Fill))}
	words := bbRows * bbPitch
	for j, v := range in.Fill {
		a := uint32(bbSrcBase + j)
		if j >= words {
			a = uint32(bbDstBase + j - words)
		}
		r.m.Mem().Poke(a, v)
		r.shadow[a] = v
	}
	return r, nil
}

func (r *bltRunner) machine() *core.Machine { return r.m }

func (r *bltRunner) op(j int) (uint64, uint64, time.Duration, bool) {
	p := r.blits[j%len(r.blits)]
	s := r.tr.begin()
	t0 := threadCPU()
	cycles, err := r.ps.Run(r.m, p)
	host := threadCPU() - t0
	r.tr.end(s, "bitblt.Run")
	if err != nil {
		return 0, 0, 0, false
	}
	if err := bitblt.Reference(func(a uint32) uint16 { return r.shadow[a] },
		func(a uint32, v uint16) { r.shadow[a] = v }, p); err != nil {
		return 0, 0, 0, false
	}
	ok := true
	for row := 0; row < p.Height; row++ {
		for w := 0; w < p.WidthWords; w++ {
			a := p.Dst + uint32(row*p.DstPitch+w)
			if r.m.Mem().Peek(a) != r.shadow[a] {
				ok = false
			}
		}
	}
	return cycles, uint64(p.WidthWords * p.Height), host, ok
}

// Simulation runner.

// opBest is the fastest repetition of one distinct operation.
type opBest struct {
	ms     float64
	cycles uint64
}

// simStats accumulates the measured chunks.
type simStats struct {
	ops, failed   int
	chunks, next  int    // measured chunks; index of the next operation
	cycles, units uint64 // default configuration
	transCycles   uint64 // translated configuration
	// best holds, per configuration, each distinct operation's fastest
	// repetition (op j is distinct operation j mod idents).
	best [numConfigs]map[int]opBest
	// park and revive hold the fastest default-machine Snapshot and
	// Restore, in ms, at each chunk position (chunk k is at position k
	// mod chunkIdents).
	park, revive            map[int]float64
	before, after           counters // default machine, around the measured loop
	transBefore, transAfter core.TranslationStats
}

// simWorkload sets up the three machines setupReps times (keeping the
// last set), measures them for dur, and in a traced run adds the layer
// timers. Set-up and simulation are timed in CPU time (threadCPU).
func simWorkload(spec simSpec, seed int64, dur time.Duration, tr *tracer) (outcome, error) {
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	var in inputs
	var runners []simRunner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := threadCPU()
		in = generate(seed, spec.iters)
		runners = make([]simRunner, numConfigs)
		for c := range runners {
			s := tr.begin()
			r, err := spec.build(c, in, tr)
			tr.end(s, "build")
			if err != nil {
				return outcome{}, fmt.Errorf("build configuration %d: %w", c, err)
			}
			runners[c] = r
		}
		setups = append(setups, (threadCPU() - t0).Seconds())
	}
	st := measureSim(spec, runners, dur, tr)
	o := outcome{attempted: st.ops, failed: st.failed, setups: setups, e2e: st.e2e(), layers: st.layers()}
	if tr != nil {
		o.traced = func() (map[string]float64, error) {
			out, err := layerTimers(in, runners[cfgDefault].machine(), tr)
			if err != nil {
				return nil, err
			}
			out["translate.exit_ifujump_share"] = exitIFUJumpShare(runners[cfgTranslated], st.next, spec.opsPerChunk)
			svc, err := serviceLayers(seed)
			if err != nil {
				return nil, err
			}
			for k, v := range svc {
				out[k] = v
			}
			return out, nil
		}
	}
	return o, nil
}

// measureSim runs one untimed warm-up chunk, then chunks until dur has
// passed. Statistics start warm: the modelled cache, the translator's
// block cache and the host's caches have all seen the workload.
func measureSim(spec simSpec, runners []simRunner, dur time.Duration, tr *tracer) *simStats {
	st := &simStats{park: map[int]float64{}, revive: map[int]float64{}}
	for c := range st.best {
		st.best[c] = map[int]opBest{}
	}
	chunk := func(measure bool) {
		first := st.next
		st.next += spec.opsPerChunk
		tr.setParent(st.chunks)
		for k := 0; k < numConfigs; k++ {
			c := (st.chunks + k) % numConfigs
			for j := first; j < st.next; j++ {
				cycles, units, host, ok := runners[c].op(j)
				st.ops++
				if !ok {
					st.failed++
				}
				if !measure {
					continue
				}
				if b, seen := st.best[c][j%spec.idents]; !seen || ms(host) < b.ms {
					st.best[c][j%spec.idents] = opBest{ms(host), cycles}
				}
				switch c {
				case cfgDefault:
					st.cycles, st.units = st.cycles+cycles, st.units+units
				case cfgTranslated:
					st.transCycles += cycles
				}
			}
		}
		// Chunk end: the default machine's snapshot is timed (a park) and
		// restored into the same machine (a revive); the other two
		// configurations must hold byte-identical state.
		m := runners[cfgDefault].machine()
		// A collection first, so the timed Snapshot neither pays for one
		// (assists) nor finds the heap in whatever state the chunk left.
		runtime.GC()
		s, t0 := tr.begin(), threadCPU()
		snap := m.Snapshot()
		park := ms(threadCPU() - t0)
		tr.end(s, "core.Snapshot")
		s, t0 = tr.begin(), threadCPU()
		err := m.Restore(snap)
		revive := ms(threadCPU() - t0)
		tr.end(s, "core.Restore")
		if measure {
			keepMin(st.park, st.chunks%chunkIdents, park)
			keepMin(st.revive, st.chunks%chunkIdents, revive)
		}
		st.ops++
		if err != nil {
			st.failed++
		}
		for c := cfgDefault + 1; c < numConfigs; c++ {
			st.ops++
			if !bytes.Equal(snap, runners[c].machine().Snapshot()) {
				st.failed++
			}
		}
		if measure {
			st.chunks++
		}
	}

	chunk(false)
	st.ops, st.failed = 0, 0
	st.before = readCounters(runners[cfgDefault].machine())
	st.transBefore = runners[cfgTranslated].machine().TranslationStats()
	start := time.Now()
	for time.Since(start) < dur {
		chunk(true)
	}
	st.after = readCounters(runners[cfgDefault].machine())
	st.transAfter = runners[cfgTranslated].machine().TranslationStats()
	return st
}

// counters is a machine's public activity counters at one instant.
type counters struct {
	core core.Stats
	ifu  ifu.Stats
	mem  memory.Stats
}

func readCounters(m *core.Machine) counters {
	return counters{m.Stats(), m.IFU().Stats(), m.Mem().Stats()}
}

// e2e returns the simulation workloads' end-to-end metrics, over each
// distinct operation's fastest repetition (README.md, "Host noise").
func (st *simStats) e2e() map[string]float64 {
	rate := func(c int) float64 { // Mcycles per second
		var cycles uint64
		var t float64
		for _, b := range st.best[c] {
			cycles, t = cycles+b.cycles, t+b.ms
		}
		return float64(cycles) / t / 1e3
	}
	var run []float64
	var total float64
	for _, b := range st.best[cfgDefault] {
		run = append(run, b.ms)
		total += b.ms
	}
	var park, revive []float64
	for k, v := range st.park {
		park, revive = append(park, v), append(revive, st.revive[k])
	}
	return map[string]float64{
		"mcps":              rate(cfgDefault),
		"mcps_translated":   rate(cfgTranslated),
		"mcps_probed":       rate(cfgProbed),
		"sim_cycles_per_op": ratio(float64(st.cycles), float64(st.units)),
		"ops_per_s":         1e3 * float64(len(run)) / total,
		"run_p50_ms":        percentile(run, 50),
		"run_p90_ms":        percentile(run, 90),
		"park_p50_ms":       percentile(park, 50),
		"park_p90_ms":       percentile(park, 90),
		"revive_p50_ms":     percentile(revive, 50),
		"revive_p90_ms":     percentile(revive, 90),
	}
}

// layers returns the per-layer metrics the public counters give.
func (st *simStats) layers() map[string]float64 {
	b, a := st.before, st.after
	cyc := float64(a.core.Cycles - b.core.Cycles)
	disp := float64(a.ifu.Dispatches - b.ifu.Dispatches)
	hits, misses := float64(a.mem.Hits-b.mem.Hits), float64(a.mem.Misses-b.mem.Misses)
	var devCycles uint64
	for t := 1; t < core.NumTasks; t++ {
		devCycles += a.core.TaskCycles[t] - b.core.TaskCycles[t]
	}
	tb, ta := st.transBefore, st.transAfter
	out := map[string]float64{
		"core.hold_share":                float64(a.core.Holds-b.core.Holds) / cyc,
		"core.task_switches_per_kcycle":  1000 * float64(a.core.TaskSwitches-b.core.TaskSwitches) / cyc,
		"ifu.dispatches_per_kcycle":      1000 * disp / cyc,
		"ifu.words_fetched_per_dispatch": ratio(float64(a.ifu.WordsFetch-b.ifu.WordsFetch), disp),
		"memory.hit_ratio":               ratio(hits, hits+misses),
		"memory.refs_per_kcycle":         1000 * float64(a.mem.Reads-b.mem.Reads+a.mem.Writes-b.mem.Writes) / cyc,
		"memory.storage_ops_per_kcycle":  1000 * float64(a.mem.StorageOps-b.mem.StorageOps) / cyc,
		"device.task_share":              float64(devCycles) / cyc,
		"translate.fused_share":          ratio(float64(ta.FusedCycles-tb.FusedCycles), float64(st.transCycles)),
		"translate.cycles_per_entry":     ratio(float64(ta.FusedCycles-tb.FusedCycles), float64(ta.Entries-tb.Entries)),
		"translate.blocks_built":         float64(ta.BlocksBuilt),
	}
	return out
}

// exitIFUJumpShare runs one more chunk of operations on the translated
// machine with a profiler attached and returns the share of superblock
// exits that ended at an IFUJUMP. It runs after measurement, so the
// profiler does not touch the measured translated path.
func exitIFUJumpShare(r simRunner, from, n int) float64 {
	m := r.machine()
	p := core.NewProfiler()
	m.SetProfiler(p)
	defer m.SetProfiler(nil)
	for j := from; j < from+n; j++ {
		r.op(j)
	}
	exits := p.ExitCounts()
	var total uint64
	for _, n := range exits {
		total += n
	}
	return ratio(float64(exits[core.ExitIFUJump]), float64(total))
}
