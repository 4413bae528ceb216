package memory

import (
	"fmt"

	"dorado/internal/state"
)

// Snapshot sections owned by the memory system. The configuration section
// exists so a restore into a differently-sized or differently-timed memory
// fails loudly instead of continuing with divergent timing.
const (
	sectMemConfig  = "MCFG"
	sectMemState   = "MEMS"
	sectMemStorage = "MDAT"
	sectMemCache   = "MCCH"
)

// SaveState appends the memory system's complete state to a snapshot:
// configuration fingerprint, base registers, page map, per-task MD state,
// storage-pipe timing, fault latch, counters, the cache's residency/LRU
// metadata, and the full storage contents.
func (s *System) SaveState(e *state.Encoder) {
	e.Section(sectMemConfig)
	e.U32(uint32(s.cfg.CacheWords))
	e.U32(uint32(s.cfg.CacheWays))
	e.U32(uint32(s.cfg.StorageWords))
	e.U32(uint32(s.cfg.HitLatency))
	e.U32(uint32(s.cfg.MissLatency))
	e.U32(uint32(s.cfg.StorageCycle))

	e.Section(sectMemState)
	e.U64(s.storageFreeAt)
	for _, b := range s.base {
		e.U32(b)
	}
	for i := range s.md {
		md := &s.md[i]
		e.U16(md.val)
		e.U64(md.readyAt)
		e.U64(md.issueAt)
		e.Bool(md.pending)
	}
	e.U8(uint8(s.fault.Kind))
	e.U32(s.fault.VA)
	e.U8(uint8(s.fault.Task))
	e.U64(s.stats.Reads)
	e.U64(s.stats.Writes)
	e.U64(s.stats.StorageOps)
	e.U64(s.stats.FastReads)
	e.U64(s.stats.FastWrites)
	e.U64(s.stats.MapFaults)
	e.U64(s.stats.Faults)
	// The page-map overrides in ascending virtual-page order, so the
	// encoding is canonical.
	if s.vmap == nil {
		e.U32(0)
	} else {
		e.U32(uint32(s.vmap.n))
		for i, l := range s.vmap.dir {
			if l == nil {
				continue
			}
			for j := range l {
				if ent := &l[j]; ent.present {
					e.U32(uint32(i<<leafBits | j))
					e.U32(ent.rp)
					e.Bool(ent.flags.WP)
					e.Bool(ent.flags.Vacant)
					e.Bool(ent.flags.Ref)
					e.Bool(ent.flags.Dirty)
				}
			}
		}
	}

	e.Section(sectMemCache)
	e.U32(s.cache.clock)
	e.U64(s.cache.hits)
	e.U64(s.cache.misses)
	e.U64(s.cache.writebacks)
	for i := range s.cache.lines {
		l := &s.cache.lines[i]
		e.Bool(l.valid)
		e.Bool(l.dirty)
		e.U32(l.tag)
		e.U32(l.lru)
	}

	e.Section(sectMemStorage)
	e.U16s(s.data)
}

// LoadState restores the memory system from a snapshot taken by SaveState.
// The target system must have been built with the identical configuration.
func (s *System) LoadState(d *state.Decoder) error {
	if err := d.Section(sectMemConfig); err != nil {
		return err
	}
	got := Config{
		CacheWords:   int(d.U32()),
		CacheWays:    int(d.U32()),
		StorageWords: int(d.U32()),
		HitLatency:   int(d.U32()),
		MissLatency:  int(d.U32()),
		StorageCycle: int(d.U32()),
	}
	if err := d.Err(); err != nil {
		return err
	}
	if got != s.cfg {
		return fmt.Errorf("memory: snapshot config %+v, machine config %+v", got, s.cfg)
	}

	if err := d.Section(sectMemState); err != nil {
		return err
	}
	s.storageFreeAt = d.U64()
	for i := range s.base {
		s.base[i] = d.U32()
	}
	for i := range s.md {
		md := &s.md[i]
		md.val = d.U16()
		md.readyAt = d.U64()
		md.issueAt = d.U64()
		md.pending = d.Bool()
	}
	s.fault = Fault{Kind: FaultKind(d.U8()), VA: d.U32(), Task: int(d.U8())}
	s.stats.Reads = d.U64()
	s.stats.Writes = d.U64()
	s.stats.StorageOps = d.U64()
	s.stats.FastReads = d.U64()
	s.stats.FastWrites = d.U64()
	s.stats.MapFaults = d.U64()
	s.stats.Faults = d.U64()
	// The entry count is untrusted: nothing is sized from it. Entries
	// must name pages in strictly increasing order (as SaveState writes
	// them), so a hostile count runs into a short read, and a table never
	// holds more than numPages entries.
	s.vmap = nil
	n := d.U32()
	next := uint32(0) // lowest vp the next entry may name
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		vp := d.U32()
		rp := d.U32()
		flags := MapFlags{WP: d.Bool(), Vacant: d.Bool(), Ref: d.Bool(), Dirty: d.Bool()}
		if err := d.Err(); err != nil {
			return err
		}
		if vp >= numPages {
			return fmt.Errorf("memory: snapshot page-map entry %d: virtual page %#x out of range", i, vp)
		}
		if vp < next {
			return fmt.Errorf("memory: snapshot page-map entry %d: virtual page %#x out of order", i, vp)
		}
		next = vp + 1
		ent := s.entry(vp)
		ent.rp = rp
		ent.flags = flags
	}

	if err := d.Section(sectMemCache); err != nil {
		return err
	}
	s.cache.clock = d.U32()
	s.cache.hits = d.U64()
	s.cache.misses = d.U64()
	s.cache.writebacks = d.U64()
	for i := range s.cache.lines {
		l := &s.cache.lines[i]
		l.valid = d.Bool()
		l.dirty = d.Bool()
		l.tag = d.U32()
		l.lru = d.U32()
	}

	if err := d.Section(sectMemStorage); err != nil {
		return err
	}
	d.U16s(s.data)
	return d.Err()
}
