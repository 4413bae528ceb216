package main

import (
	"fmt"
	"os"
	"time"

	"dorado"
	"dorado/internal/core"
	"dorado/internal/emulator"
	"dorado/internal/ifu"
	"dorado/internal/memory"
	"dorado/internal/mesac"
	"dorado/internal/store"
)

// This file holds the direct layer timers of a traced run: each times one
// layer's public functions on the workload's own inputs, outside the
// machine that runs the workload, so a layer's cost is visible even where
// the end-to-end total hides it. Every timer repeats its measurement and
// reports the median.

const timerReps = 5

// timeMedian runs f timerReps times and returns the median duration in ms
// of one call.
func timeMedian(f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < timerReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

// layerTimers measures the ifu, memory, masm, mesac, build, state and
// store layers. m is the workload's machine, whose state the state and
// store timers encode; it must not be measured afterwards.
func layerTimers(in inputs, m *core.Machine, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	var err error
	tr.setParent(-1)

	var mesa *emulator.Program
	if out["masm.assemble_ms"], err = timeMedian(func() (e error) {
		s := tr.begin()
		mesa, e = emulator.BuildMesa()
		tr.end(s, "emulator.BuildMesa")
		return e
	}); err != nil {
		return nil, err
	}
	var compiled []*mesac.Program
	var compileMS []float64
	for _, p := range in.Programs {
		s := tr.begin()
		cp, err := mesac.Compile(p.Source)
		compileMS = append(compileMS, ms(tr.end(s, "mesac.Compile")))
		if err != nil {
			return nil, err
		}
		compiled = append(compiled, cp)
	}
	out["mesac.compile_ms"] = median(compileMS)
	if out["fleet.build_ms"], err = timeMedian(func() error {
		s := tr.begin()
		_, e := dorado.New(dorado.WithLanguage(dorado.Mesa))
		tr.end(s, "dorado.New")
		return e
	}); err != nil {
		return nil, err
	}

	if out["ifu.dispatch_ns"], err = ifuDispatchNS(mesa, compiled[0].Code); err != nil {
		return nil, err
	}
	if out["memory.ref_ns_identity"], err = memRefNS(nil); err != nil {
		return nil, err
	}
	if out["memory.ref_ns_mapped"], err = memRefNS(in.PageMap); err != nil {
		return nil, err
	}

	var snap []byte
	if out["state.encode_ms"], err = timeMedian(func() error {
		s := tr.begin()
		snap = m.Snapshot()
		tr.end(s, "core.Snapshot")
		return nil
	}); err != nil {
		return nil, err
	}
	out["state.snapshot_kb"] = float64(len(snap)) / 1024
	if out["state.decode_ms"], err = timeMedian(func() error {
		s := tr.begin()
		defer tr.end(s, "core.Restore")
		return m.Restore(snap)
	}); err != nil {
		return nil, err
	}
	st, err := storeTimer(m, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range st {
		out[k] = v
	}
	return out, nil
}

// ifuDispatchNS runs an IFU over the compiled byte program alone — Reset,
// Tick until the next instruction is decoded, Dispatch, take its operands —
// restarting at byte 0 at the end of the code, and returns host ns per
// dispatch.
func ifuDispatchNS(mesa *emulator.Program, code []byte) (float64, error) {
	mem, err := memory.New(memory.Config{})
	if err != nil {
		return 0, err
	}
	u := ifu.New(mem, ifu.Config{})
	for op, e := range mesa.Table {
		if e.Valid {
			if err := u.SetEntry(uint8(op), e); err != nil {
				return 0, err
			}
		}
	}
	for i := 0; i+1 < len(code); i += 2 {
		mem.Poke(emulator.VACode+uint32(i/2), uint16(code[i])<<8|uint16(code[i+1]))
	}
	u.SetCodeBase(emulator.VACode)
	const n = 200_000
	var xs []float64
	now := uint64(0)
	for rep := 0; rep < timerReps; rep++ {
		u.Reset(0, now)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			for t := 0; !u.DispatchReady(now); t++ {
				if t == 1000 {
					return 0, fmt.Errorf("ifu timer: no dispatch at byte %d", u.PC())
				}
				u.Tick(now)
				now++
			}
			u.Dispatch(now)
			for u.OperandReady() {
				u.Operand()
			}
			if int(u.PC())+3 >= len(code) {
				u.Reset(0, now)
			}
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(xs), nil
}

// memRefNS times StartRead then MD on one warm cache line and returns host
// ns per reference. With pageMap set, the map holds every entry of the
// workload's page map and the line lies in a mapped page.
func memRefNS(pageMap map[uint32]uint32) (float64, error) {
	mem, err := memory.New(memory.Config{})
	if err != nil {
		return 0, err
	}
	va := uint32(0x30000) // outside the mapped range: identity
	if pageMap != nil {
		for vp, rp := range pageMap {
			mem.MapSet(vp, rp)
		}
		va = emulator.VAFrames
	}
	mem.Warm(va)
	const n = 1_000_000
	var xs []float64
	now := uint64(0)
	for rep := 0; rep < timerReps; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if !mem.StartRead(0, va, now) {
				return 0, fmt.Errorf("memory timer: read refused at cycle %d", now)
			}
			now += 2 // the hit latency
			mem.MD(0, now)
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/n)
	}
	if st := mem.Stats(); st.Misses != 0 {
		return 0, fmt.Errorf("memory timer: %d misses on a warm line", st.Misses)
	}
	return median(xs), nil
}

// storeTimer stores m's snapshot into an empty store (every section new),
// then a variant with one memory word changed (the share of its bytes that
// were new is new_bytes_share), then the variant again (every section
// deduplicated), and reads it back.
func storeTimer(m *core.Machine, tr *tracer) (map[string]float64, error) {
	var put, putDedup, get, newShare []float64
	for rep := 0; rep < timerReps; rep++ {
		dir, err := os.MkdirTemp(workDir, "store-timer-")
		if err != nil {
			return nil, err
		}
		st, err := store.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		first := m.Snapshot()
		const va = 0xF000
		old := m.Mem().Peek(va)
		m.Mem().Poke(va, old+1+uint16(rep))
		variant := m.Snapshot()
		m.Mem().Poke(va, old)

		var ps store.PutStats
		var back []byte
		steps := []struct {
			name string
			into *[]float64
			f    func() error
		}{
			{"store.PutSnapshot", &put, func() error { _, e := st.PutSnapshot(first); return e }},
			{"store.PutSnapshot", nil, func() (e error) { ps, e = st.PutSnapshot(variant); return e }},
			{"store.PutSnapshot", &putDedup, func() error { _, e := st.PutSnapshot(variant); return e }},
			{"store.Get", &get, func() (e error) { back, e = st.Get(ps.Hash); return e }},
		}
		for _, step := range steps {
			s := tr.begin()
			err := step.f()
			d := tr.end(s, step.name)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			if step.into != nil {
				*step.into = append(*step.into, ms(d))
			}
		}
		os.RemoveAll(dir)
		if len(back) != len(variant) {
			return nil, fmt.Errorf("store timer: read back %d bytes, stored %d", len(back), len(variant))
		}
		newShare = append(newShare, float64(ps.NewBytes)/float64(len(variant)))
	}
	return map[string]float64{
		"store.put_ms":          median(put),
		"store.put_dedup_ms":    median(putDedup),
		"store.get_ms":          median(get),
		"store.new_bytes_share": median(newShare),
	}, nil
}

// bootedMachine boots p on a Mesa machine and runs it to its halt: the
// state the service workload parks, for the state and store timers.
func bootedMachine(p mesaProgram) (*core.Machine, error) {
	sys, err := dorado.New(dorado.WithLanguage(dorado.Mesa))
	if err != nil {
		return nil, err
	}
	if err := sys.BootSource(p.Source); err != nil {
		return nil, err
	}
	if !sys.Run(simLimit) {
		return nil, fmt.Errorf("program did not halt in %d cycles", simLimit)
	}
	if st := sys.Stack(); len(st) != 1 || st[0] != p.Want {
		return nil, fmt.Errorf("program halted with %v, want [%d]", st, p.Want)
	}
	return sys.Machine, nil
}
