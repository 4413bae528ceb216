// Package ifu models the Dorado instruction fetch unit (described in the
// companion report: Lampson et al., "An instruction fetch unit for a
// high-performance personal computer").
//
// The IFU fetches the macroinstruction byte stream, decodes opcodes and
// operands using a writable decode table, and presents two things to the
// processor (§5.8 of the processor paper):
//
//   - the handler microaddress for the next macroinstruction, consumed by
//     the IFUJUMP NextControl: "any microinstruction can specify that it is
//     the last of a macroinstruction, in which case the successor address
//     is supplied by the IFU";
//   - operand bytes on the IFUDATA bus: "as each operand is used, the IFU
//     provides the next one on IFUDATA".
//
// When the IFU has not finished decoding (after a jump, or when its
// prefetcher falls behind), an IFUJUMP or IFUDATA use is held, exactly like
// a memory Hold (§5.7).
//
// Timing model: the IFU owns a cache port that delivers one word (two
// bytes) per cycle into a small byte buffer after a fixed startup latency.
// A macroinstruction can dispatch when all its bytes are buffered and one
// decode cycle has passed, which sustains back-to-back one-cycle simple
// opcodes (the paper's headline "executes a simple macroinstruction in one
// cycle") while charging a restart penalty after jumps.
package ifu

import (
	"fmt"

	"dorado/internal/memory"
	"dorado/internal/microcode"
)

// Entry is one decode-table row: how the IFU handles one opcode byte.
type Entry struct {
	// Valid marks the opcode as implemented; dispatching an invalid opcode
	// returns the table's Illegal handler.
	Valid bool
	// Handler is the microstore address of the opcode's emulator microcode.
	Handler microcode.Addr
	// Operands is the number of operand bytes following the opcode (0..2).
	Operands int
	// Wide presents two operand bytes as one 16-bit IFUDATA value
	// (alpha<<8 | beta) in a single read instead of two byte reads.
	Wide bool
	// LoadMemBase, when set, makes the dispatch load the processor's
	// MEMBASE register with MemBase — §6.3.3: MEMBASE "can be loaded from
	// the IFU at the start of a macroinstruction".
	LoadMemBase bool
	// MemBase is the MEMBASE value for LoadMemBase (0..31).
	MemBase uint8
	// Name labels the opcode in traces and errors.
	Name string
}

// Config sizes the IFU timing model.
type Config struct {
	// FetchLatency is the startup delay, in cycles, before the first word
	// of a refill arrives (default 2 — a cache hit).
	FetchLatency int
	// BufferBytes is the prefetch buffer capacity (default 8, enough to
	// cover decode of the longest instruction plus prefetch slack).
	BufferBytes int
	// DecodeLatency is the pipeline delay, in cycles, between the bytes of
	// an instruction arriving and its dispatch being ready (default 1).
	DecodeLatency int
}

func (c Config) withDefaults() Config {
	if c.FetchLatency == 0 {
		c.FetchLatency = 2
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 8
	}
	if c.DecodeLatency == 0 {
		c.DecodeLatency = 1
	}
	return c
}

// Stats counts IFU activity.
type Stats struct {
	Dispatches uint64 // macroinstructions dispatched
	Resets     uint64 // jumps/restarts
	BytesRead  uint64 // bytes consumed from the stream
	WordsFetch uint64 // words prefetched from memory
}

// dispatch is an opcode's decode-table row resolved for the dispatch path:
// everything DispatchReady and Dispatch need, without copying an Entry.
// need is the instruction's length in bytes (1 + operands); 0 means the
// opcode never becomes ready (invalid, with no Illegal handler).
type dispatch struct {
	handler  microcode.Addr
	need     uint8
	operands uint8
	wide     bool
	illegal  bool // dispatches to Unit.Illegal
	loadMB   bool
	memBase  uint8
}

func resolve(e *Entry) dispatch {
	return dispatch{
		handler:  e.Handler,
		need:     uint8(1 + e.Operands),
		operands: uint8(e.Operands),
		wide:     e.Wide,
		loadMB:   e.LoadMemBase,
		memBase:  e.MemBase,
	}
}

// Unit is the instruction fetch unit.
type Unit struct {
	cfg   Config
	mem   *memory.System
	table [256]Entry
	disp  [256]dispatch // table resolved (see resolveAll); the only copy Step reads
	// Illegal is the handler used for invalid opcodes (set it before
	// running; dispatching an invalid opcode without it is an error and
	// halts decode).
	Illegal microcode.Addr
	hasIll  bool

	codeBase uint32 // word VA of byte 0 of the code segment

	// The prefetch buffer is a ring: stream byte p lives at ring[p&mask],
	// and the buffered bytes are the stream positions [headPC, bytePC).
	// Its length is a power of two ≥ BufferBytes, fixed at New, so neither
	// fetching nor dispatching moves or allocates anything.
	ring    []byte
	mask    uint32
	bytePC  uint32 // byte offset of the next *unbuffered* byte (prefetch head)
	headPC  uint32 // byte offset of the next byte to dispatch
	readyAt uint64 // cycle at which buffered bytes become usable (refill/decode latency)

	// Current (dispatched) instruction's pending operands. A fixed array
	// (instructions carry at most one wide or two byte operands) so the
	// dispatch/consume cycle never allocates.
	ops    [2]uint16
	opHead uint8 // next operand to deliver
	opLen  uint8 // operands latched by the current instruction

	// The most recently dispatched entry is table[lastOp] while that row is
	// unchanged; lastOp < 0 means it is held in last instead (an ILLEGAL
	// dispatch, a restored snapshot, or a row rewritten since — see
	// pinLast). lastD is its resolved form, for DispatchMemBase.
	lastOp int16
	last   Entry
	lastD  dispatch

	running bool
	stats   Stats
}

// New builds an IFU reading code through mem.
func New(mem *memory.System, cfg Config) *Unit {
	cfg = cfg.withDefaults()
	n := 1
	for n < cfg.BufferBytes {
		n <<= 1
	}
	u := &Unit{cfg: cfg, mem: mem, ring: make([]byte, n), mask: uint32(n - 1), lastOp: -1}
	u.resolveAll()
	return u
}

// resolveAll rebuilds the dispatch rows from the decode table and the
// Illegal handler's presence. Every change to either goes through here.
func (u *Unit) resolveAll() {
	for op := range u.table {
		u.resolveOp(op)
	}
}

func (u *Unit) resolveOp(op int) {
	switch e := &u.table[op]; {
	case e.Valid:
		u.disp[op] = resolve(e)
	case u.hasIll:
		u.disp[op] = dispatch{need: 1, illegal: true}
	default:
		u.disp[op] = dispatch{}
	}
}

// pinLast copies the last dispatched entry out of the table before a table
// change, so LastEntry and snapshots keep reporting what was dispatched.
func (u *Unit) pinLast() {
	if u.lastOp >= 0 {
		u.last = u.table[u.lastOp]
		u.lastOp = -1
	}
}

// SetEntry installs a decode-table row for opcode op.
func (u *Unit) SetEntry(op uint8, e Entry) error {
	if err := checkEntry(op, &e); err != nil {
		return err
	}
	e.Valid = true
	u.pinLast()
	u.table[op] = e
	u.resolveOp(int(op))
	return nil
}

func checkEntry(op uint8, e *Entry) error {
	if e.Operands < 0 || e.Operands > 2 {
		return fmt.Errorf("ifu: opcode %#02x: %d operand bytes (max 2)", op, e.Operands)
	}
	if e.Wide && e.Operands != 2 {
		return fmt.Errorf("ifu: opcode %#02x: Wide requires 2 operand bytes", op)
	}
	return nil
}

// ResetTable clears every decode entry and the Illegal handler (rebooting
// a different emulator on the same machine).
func (u *Unit) ResetTable() {
	u.pinLast()
	u.table = [256]Entry{}
	u.hasIll = false
	u.Illegal = 0
	u.resolveAll()
}

// SetIllegal installs the handler for invalid opcodes.
func (u *Unit) SetIllegal(h microcode.Addr) {
	u.Illegal = h
	u.hasIll = true
	u.resolveAll()
}

// SetCodeBase points the IFU at the word VA holding byte 0 of the
// macroprogram. Byte n lives in the high (even n) or low (odd n) half of
// word codeBase+n/2.
func (u *Unit) SetCodeBase(va uint32) { u.codeBase = va }

// Stats returns a snapshot of the counters.
func (u *Unit) Stats() Stats { return u.stats }

// PC returns the byte offset of the next macroinstruction to dispatch.
func (u *Unit) PC() uint32 { return u.headPC }

// Running reports whether the IFU is fetching — a Reset has started it and
// nothing has stopped it since. A stopped IFU's Tick is a no-op.
func (u *Unit) Running() bool { return u.running }

// Reset restarts the IFU at byte offset pc (the FF IFUReset operation; B
// carries the 16-bit target). The buffer refills from scratch, modeling the
// macro-jump penalty.
func (u *Unit) Reset(pc uint16, now uint64) {
	u.bytePC = uint32(pc)
	u.headPC = uint32(pc)
	u.opHead, u.opLen = 0, 0
	u.readyAt = now + uint64(u.cfg.FetchLatency)
	u.running = true
	u.stats.Resets++
}

// buffered returns the number of prefetched, undispatched bytes.
func (u *Unit) buffered() uint32 { return u.bytePC - u.headPC }

// Tick advances the prefetcher one cycle: after the startup latency, one
// word (two bytes) arrives per cycle until the buffer is full.
func (u *Unit) Tick(now uint64) {
	if !u.running || int(u.buffered())+2 > u.cfg.BufferBytes || now < u.readyAt {
		return
	}
	// Fetch the word containing bytePC. Byte order within the stream is
	// high byte first.
	w := u.mem.Peek(u.codeBase + u.bytePC/2)
	if u.bytePC%2 == 0 {
		u.ring[u.bytePC&u.mask] = byte(w >> 8)
		u.ring[(u.bytePC+1)&u.mask] = byte(w)
		u.bytePC += 2
	} else {
		u.ring[u.bytePC&u.mask] = byte(w)
		u.bytePC++
	}
	u.stats.WordsFetch++
}

// next returns the resolved row of the buffered opcode when all of its
// bytes are buffered, or nil. An invalid opcode with no Illegal handler
// never becomes ready (the machine holds until its cycle limit; set an
// Illegal handler in real microcode).
func (u *Unit) next() *dispatch {
	d := &u.disp[u.ring[u.headPC&u.mask]]
	if d.need == 0 || u.buffered() < uint32(d.need) {
		return nil // need ≥ 1 also covers an empty buffer
	}
	return d
}

// DispatchReady reports whether an IFUJUMP can complete at cycle now: the
// next instruction's bytes are buffered and decoded. When false the
// processor holds.
func (u *Unit) DispatchReady(now uint64) bool {
	if !u.running || now < u.readyAt+uint64(u.cfg.DecodeLatency) {
		return false
	}
	return u.next() != nil
}

// Dispatch consumes the next macroinstruction: it returns the handler
// address and latches the instruction's operands for IFUDATA. Call only
// when DispatchReady. The full decode entry is available from LastEntry;
// DispatchMemBase gives the processor its LoadMemBase part.
func (u *Unit) Dispatch(now uint64) microcode.Addr {
	d := u.next()
	if d == nil {
		panic("ifu: Dispatch while not ready (processor must Hold)")
	}
	h := d.handler
	if d.illegal {
		h = u.Illegal
		u.last = Entry{Valid: true, Handler: h, Name: "ILLEGAL"}
		u.lastOp = -1
	} else {
		u.lastOp = int16(u.ring[u.headPC&u.mask])
	}
	u.lastD = *d
	u.opHead = 0
	if d.wide {
		u.ops[0] = uint16(u.ring[(u.headPC+1)&u.mask])<<8 | uint16(u.ring[(u.headPC+2)&u.mask])
		u.opLen = 1
	} else {
		for i := uint32(0); i < uint32(d.operands); i++ {
			u.ops[i] = uint16(u.ring[(u.headPC+1+i)&u.mask])
		}
		u.opLen = d.operands
	}
	u.headPC += uint32(d.need)
	u.stats.BytesRead += uint64(d.need)
	u.stats.Dispatches++
	return h
}

// PeekOperand returns the next operand without consuming it (the processor
// uses it during its hold phase to form a memory address it may not be able
// to issue this cycle). Call only when OperandReady.
func (u *Unit) PeekOperand() uint16 {
	if u.opHead >= u.opLen {
		panic("ifu: PeekOperand with no operand")
	}
	return u.ops[u.opHead]
}

// LastEntry returns the decode entry of the most recent Dispatch.
func (u *Unit) LastEntry() Entry {
	if u.lastOp >= 0 {
		return u.table[u.lastOp]
	}
	return u.last
}

// DispatchMemBase reports whether the most recent Dispatch loads MEMBASE
// (its entry's LoadMemBase) and the value to load — the part of LastEntry
// the processor needs on every IFUJUMP, without copying the entry.
func (u *Unit) DispatchMemBase() (mb uint8, ok bool) { return u.lastD.memBase, u.lastD.loadMB }

// OperandReady reports whether an IFUDATA read can complete: dispatch has
// latched at least one unconsumed operand. Operands are buffered with the
// instruction, so they are ready as soon as it dispatches.
func (u *Unit) OperandReady() bool { return u.opHead < u.opLen }

// Operand consumes the next operand ("as each operand is used, the IFU
// provides the next one", §6.3.2). Call only when OperandReady.
func (u *Unit) Operand() uint16 {
	if u.opHead >= u.opLen {
		panic("ifu: IFUDATA read with no operand (processor must Hold)")
	}
	v := u.ops[u.opHead]
	u.opHead++
	return v
}
