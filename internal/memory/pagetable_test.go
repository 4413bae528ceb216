package memory

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dorado/internal/state"
)

// mapModel is the page map as a plain Go map with the reference semantics
// of MapSet, SetMapFlags and a flag-maintaining reference.
type mapModel map[uint32]mapEntry

func (m mapModel) get(vp uint32) (mapEntry, bool) {
	e, ok := m[vp&(VAMask/PageWords)]
	return e, ok
}

func (m mapModel) set(vp, rp uint32) {
	vp &= VAMask / PageWords
	e, ok := m[vp]
	if !ok {
		e.rp = vp
	}
	e.rp = rp
	e.flags.Vacant = false
	m[vp] = e
}

func (m mapModel) setFlags(vp uint32, f MapFlags) {
	vp &= VAMask / PageWords
	e, ok := m[vp]
	if !ok {
		e.rp = vp
	}
	e.flags = f
	m[vp] = e
}

// ref applies a reference's flag side effects and returns its fault.
func (m mapModel) ref(task int, va uint32, isStore bool) FaultKind {
	vp := (va & VAMask) / PageWords
	e, ok := m[vp]
	if !ok {
		return FaultNone
	}
	k := FaultNone
	switch {
	case e.flags.Vacant:
		k = FaultVacant
	case isStore && e.flags.WP:
		k = FaultWP
	}
	e.flags.Ref = true
	if isStore && k == FaultNone {
		e.flags.Dirty = true
	}
	m[vp] = e
	return k
}

// encode is the page-map tail of the MEMS section: the count, then the
// entries sorted by virtual page.
func (m mapModel) encode() []byte {
	vps := make([]uint32, 0, len(m))
	for vp := range m {
		vps = append(vps, vp)
	}
	slices.Sort(vps)
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(vps)))
	for _, vp := range vps {
		e := m[vp]
		b = binary.LittleEndian.AppendUint32(b, vp)
		b = binary.LittleEndian.AppendUint32(b, e.rp)
		for _, f := range []bool{e.flags.WP, e.flags.Vacant, e.flags.Ref, e.flags.Dirty} {
			if f {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	return b
}

// section returns the body of section tag in s's snapshot.
func section(t *testing.T, s *System, tag string) []byte {
	t.Helper()
	e := state.NewEncoder()
	s.SaveState(e)
	doc, err := state.Split(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range doc.Sections {
		if sec.Tag == tag {
			return sec.Body
		}
	}
	t.Fatalf("no %s section", tag)
	return nil
}

// restored snapshots s and restores the snapshot into a fresh system.
func restored(t *testing.T, s *System) *System {
	t.Helper()
	e := state.NewEncoder()
	s.SaveState(e)
	snap := e.Bytes()
	d, err := state.NewDecoder(snap)
	if err != nil {
		t.Fatal(err)
	}
	r := newSys(t, s.cfg)
	if err := r.LoadState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	e = state.NewEncoder()
	r.SaveState(e)
	if !bytes.Equal(e.Bytes(), snap) {
		t.Fatal("restore → snapshot is not byte-identical")
	}
	return r
}

// TestPageTableMatchesMapModel drives the page table and the map model
// through the same random mix of MapSet, SetMapFlags, reads, writes and
// snapshot/restore, and compares translations, flags, faults and the
// snapshot encoding after every step. The pages include vp 0, the last
// page, both sides of several leaf boundaries, random pages, and
// out-of-range page numbers (which both mask).
func TestPageTableMatchesMapModel(t *testing.T) {
	s := newSys(t, Config{StorageWords: 1 << 12})
	prefix := len(section(t, s, sectMemState)) - 4 // the MEMS fields before the page map
	model := mapModel{}
	rng := rand.New(rand.NewSource(1))
	const last = VAMask / PageWords
	pages := []uint32{0, 1, last, last - 1, leafPages - 1, leafPages, leafPages + 1,
		2*leafPages - 1, 2 * leafPages, 7 * leafPages, last - leafPages, last - leafPages + 1}
	for range 48 {
		pages = append(pages, uint32(rng.Intn(numPages)))
	}
	for range 16 {
		pages = append(pages, rng.Uint32()) // masked to 20 bits by every entry point
	}
	page := func() uint32 { return pages[rng.Intn(len(pages))] }
	now := uint64(0)
	faults := uint64(0)
	for step := range 20000 {
		vp := page()
		switch op := rng.Intn(100); {
		case op < 20:
			rp := uint32(rng.Intn(1 << 12))
			s.MapSet(vp, rp)
			model.set(vp, rp)
		case op < 40:
			f := MapFlags{WP: rng.Intn(3) == 0, Vacant: rng.Intn(4) == 0, Ref: rng.Intn(2) == 0, Dirty: rng.Intn(2) == 0}
			s.SetMapFlags(vp, f)
			model.setFlags(vp, f)
		case op < 99:
			va := vp*PageWords + uint32(rng.Intn(PageWords))
			task := rng.Intn(NumTasks)
			store := op >= 70
			now += 100 // storage pipe free, no fetch outstanding
			s.TakeFault()
			var ok bool
			if store {
				ok = s.StartWrite(task, va, uint16(step), now)
			} else {
				ok = s.StartRead(task, va, now)
				s.MD(task, now+50)
			}
			if !ok {
				t.Fatalf("step %d: reference refused", step)
			}
			want := model.ref(task, va, store)
			if want != FaultNone {
				faults++
			}
			f, faulted := s.LastFault()
			if f.Kind != want || faulted != (want != FaultNone) ||
				(faulted && (f.VA != va&VAMask || f.Task != task)) {
				t.Fatalf("step %d: fault %+v, want kind %v at %#x task %d", step, f, want, va&VAMask, task)
			}
		default:
			s = restored(t, s)
		}

		for _, p := range []uint32{vp, vp + 1, vp - 1} {
			e, ok := model.get(p)
			wantRP, wantFlags := p&(VAMask/PageWords), MapFlags{}
			if ok {
				wantRP, wantFlags = e.rp, e.flags
			}
			if got := s.MapGet(p); got != wantRP {
				t.Fatalf("step %d: MapGet(%#x) = %#x, want %#x", step, p, got, wantRP)
			}
			if got := s.MapFlagsOf(p); got != wantFlags {
				t.Fatalf("step %d: MapFlagsOf(%#x) = %+v, want %+v", step, p, got, wantFlags)
			}
		}
		if step%50 == 0 {
			if got, want := section(t, s, sectMemState)[prefix:], model.encode(); !bytes.Equal(got, want) {
				t.Fatalf("step %d: page-map encoding differs from the sorted map's (%d vs %d bytes)", step, len(got), len(want))
			}
		}
	}
	if got := s.Stats().Faults; got != faults || faults == 0 {
		t.Fatalf("faults counted: %d, want %d", got, faults)
	}
}

// memsWith returns a memory snapshot whose MEMS page-map tail is replaced
// by tail.
func memsWith(t *testing.T, s *System, tail []byte) []byte {
	t.Helper()
	e := state.NewEncoder()
	s.SaveState(e)
	doc, err := state.Split(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if s.vmap != nil {
		t.Fatal("memsWith wants a system with no page map")
	}
	for i, sec := range doc.Sections {
		if sec.Tag == sectMemState {
			prefix := len(sec.Body) - 4 // an empty page map is just its count
			doc.Sections[i].Body = append(sec.Body[:prefix:prefix], tail...)
		}
	}
	return doc.Join()
}

// TestLoadStateHostilePageMapCount feeds MEMS sections whose page-map
// count claims far more entries than follow. Nothing is sized from the
// count: each load fails with a short read, fast, allocating little.
func TestLoadStateHostilePageMapCount(t *testing.T) {
	s := newSys(t, Config{StorageWords: 1 << 12})
	for _, n := range []uint32{1 << 24, 0x7FFFFFFF} {
		snap := memsWith(t, s, binary.LittleEndian.AppendUint32(nil, n))
		r := newSys(t, s.cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		d, err := state.NewDecoder(snap)
		if err == nil {
			err = r.LoadState(d)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "short read") {
			t.Errorf("count %#x: err = %v, want a short read", n, err)
		}
		if elapsed > 500*time.Millisecond {
			t.Errorf("count %#x: load took %v", n, elapsed)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("count %#x: load allocated %d bytes", n, alloc)
		}
	}
}

// TestLoadStateRejectsBadPageMapEntries checks the page-map entry rules:
// virtual pages in range and strictly increasing.
func TestLoadStateRejectsBadPageMapEntries(t *testing.T) {
	s := newSys(t, Config{StorageWords: 1 << 12})
	entry := func(b []byte, vp uint32) []byte {
		b = binary.LittleEndian.AppendUint32(b, vp)
		b = binary.LittleEndian.AppendUint32(b, 5)
		return append(b, 0, 0, 1, 0)
	}
	tail := func(vps ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(vps)))
		for _, vp := range vps {
			b = entry(b, vp)
		}
		return b
	}
	for name, c := range map[string]struct {
		tail []byte
		err  string
	}{
		"out of range":  {tail(3, numPages), "out of range"},
		"far range":     {tail(0xFFFFFFFF), "out of range"},
		"repeated page": {tail(4, 9, 9), "out of order"},
		"decreasing":    {tail(0, 1, leafPages, 7), "out of order"},
	} {
		d, err := state.NewDecoder(memsWith(t, s, c.tail))
		if err != nil {
			t.Fatal(err)
		}
		if err := newSys(t, s.cfg).LoadState(d); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want %q", name, err, c.err)
		}
	}
	// The extremes themselves are fine.
	d, err := state.NewDecoder(memsWith(t, s, tail(0, leafPages-1, leafPages, numPages-1)))
	if err != nil {
		t.Fatal(err)
	}
	r := newSys(t, s.cfg)
	if err := r.LoadState(d); err != nil {
		t.Fatal(err)
	}
	for _, vp := range []uint32{0, leafPages - 1, leafPages, numPages - 1} {
		if r.MapGet(vp) != 5 || !r.MapFlagsOf(vp).Ref {
			t.Errorf("vp %#x: rp %d flags %+v", vp, r.MapGet(vp), r.MapFlagsOf(vp))
		}
	}
}
