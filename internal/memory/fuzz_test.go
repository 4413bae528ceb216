package memory_test

import (
	"bytes"
	"slices"
	"testing"

	"dorado/internal/bench"
	"dorado/internal/core"
	"dorado/internal/memory"
	"dorado/internal/state"
)

// memDoc returns s's snapshot document and the body of its MEMS section.
func memDoc(t testing.TB, s *memory.System) (state.Doc, []byte) {
	t.Helper()
	e := state.NewEncoder()
	s.SaveState(e)
	doc, err := state.Split(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range doc.Sections {
		if sec.Tag == "MEMS" {
			return doc, sec.Body
		}
	}
	t.Fatal("no MEMS section")
	return doc, nil
}

// FuzzMemoryLoadState feeds arbitrary MEMS sections (base registers, MD
// state, fault latch, counters and the page map, the part of a memory
// snapshot whose size the bytes themselves declare) to LoadState, framed
// by the other sections of a small memory. A load must fail cleanly or
// succeed; a section it accepts must re-encode to the same bytes. The
// seeds are the memory of the golden emulator workload, as run and with a
// page map installed across several leaves of the page table.
func FuzzMemoryLoadState(f *testing.F) {
	var golden *core.Machine
	for _, w := range bench.Workloads() {
		if w.ID == "emulator" {
			m, err := w.Build(core.Config{})
			if err != nil {
				f.Fatal(err)
			}
			m.RunCycles(5000)
			golden = m
		}
	}
	if golden == nil {
		f.Fatal("no golden emulator workload")
	}
	mem := golden.Mem()
	_, plain := memDoc(f, mem)
	f.Add(plain)
	for _, vp := range []uint32{0, 1, 0x3FF, 0x400, 0x12345, memory.VAMask / memory.PageWords} {
		mem.MapSet(vp, vp^1)
	}
	mem.SetMapFlags(0x401, memory.MapFlags{WP: true, Dirty: true})
	mem.SetMapFlags(0x800, memory.MapFlags{Vacant: true})
	golden.RunCycles(2000) // references maintain the flags
	_, mapped := memDoc(f, mem)
	f.Add(mapped)

	small, err := memory.New(memory.Config{StorageWords: 1 << 12})
	if err != nil {
		f.Fatal(err)
	}
	frame, _ := memDoc(f, small)
	f.Fuzz(func(t *testing.T, mems []byte) {
		doc := state.Doc{Header: frame.Header, Sections: slices.Clone(frame.Sections)}
		for i := range doc.Sections {
			if doc.Sections[i].Tag == "MEMS" {
				doc.Sections[i].Body = mems
			}
		}
		d, err := state.NewDecoder(doc.Join())
		if err != nil {
			t.Fatal(err)
		}
		s, err := memory.New(memory.Config{StorageWords: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		if s.LoadState(d) != nil {
			return
		}
		if _, got := memDoc(t, s); !bytes.Equal(got, mems) {
			t.Fatalf("accepted MEMS section re-encodes differently:\n got %x\nwant %x", got, mems)
		}
	})
}
