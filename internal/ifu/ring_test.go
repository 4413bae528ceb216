package ifu

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"dorado/internal/memory"
	"dorado/internal/microcode"
	"dorado/internal/state"
)

// ringTable is the decode table of the ring tests: one opcode per operand
// shape, plus 0x50, which is never installed (ILLEGAL once SetIllegal runs).
var ringTable = map[uint8]Entry{
	0x10: {Handler: 0x110, Name: "ZERO"},
	0x20: {Handler: 0x120, Operands: 1, Name: "ONE"},
	0x30: {Handler: 0x130, Operands: 2, Wide: true, Name: "WIDE"},
	0x40: {Handler: 0x140, Operands: 2, Name: "TWO"},
	0x41: {Handler: 0x141, LoadMemBase: true, MemBase: 9, Name: "MB"},
}

const ringIllegal = microcode.Addr(0x1FF)

// ringStream is a deterministic instruction stream of n instructions in
// every operand shape, so instruction boundaries land on every ring offset
// and at both byte halves of a word.
func ringStream(n int) []byte {
	ops := []uint8{0x10, 0x20, 0x30, 0x40, 0x41, 0x50}
	var bs []byte
	x := uint32(12345)
	for range n {
		x = x*1103515245 + 12345
		op := ops[(x>>16)%uint32(len(ops))]
		bs = append(bs, op)
		for range ringTable[op].Operands {
			x = x*1103515245 + 12345
			bs = append(bs, byte(x>>16))
		}
	}
	return bs
}

// decoded is one dispatch: the handler and the operands IFUDATA delivers.
type decoded struct {
	h   microcode.Addr
	ops []uint16
}

// decodeStream is the reference decode of a whole stream.
func decodeStream(bs []byte) []decoded {
	var out []decoded
	for i := 0; i < len(bs); {
		e, ok := ringTable[bs[i]]
		if !ok {
			out = append(out, decoded{h: ringIllegal})
			i++
			continue
		}
		d := decoded{h: e.Handler}
		switch {
		case e.Wide:
			d.ops = []uint16{uint16(bs[i+1])<<8 | uint16(bs[i+2])}
		default:
			for k := range e.Operands {
				d.ops = append(d.ops, uint16(bs[i+1+k]))
			}
		}
		out = append(out, d)
		i += 1 + e.Operands
	}
	return out
}

// ringUnit builds a unit with the ring table over a memory holding bs.
func ringUnit(t *testing.T, bufferBytes int, bs []byte) (*Unit, *memory.System) {
	t.Helper()
	m, err := memory.New(memory.Config{StorageWords: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	loadBytes(m, 0x1000, bs)
	u := New(m, Config{BufferBytes: bufferBytes})
	u.SetCodeBase(0x1000)
	for op, e := range ringTable {
		if err := u.SetEntry(op, e); err != nil {
			t.Fatal(err)
		}
	}
	u.SetIllegal(ringIllegal)
	return u, m
}

// ifuState is the IFUS section of u's snapshot.
func ifuState(t *testing.T, u *Unit) []byte {
	t.Helper()
	e := state.NewEncoder()
	u.SaveState(e)
	doc, err := state.Split(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range doc.Sections {
		if s.Tag == sectIFUState {
			return s.Body
		}
	}
	t.Fatal("no IFUS section")
	return nil
}

// runRing runs u over the stream until want dispatches have happened or
// the stream is exhausted, calling each (if non-nil) at the end of every
// cycle; each may return a replacement unit (a restored copy). It returns
// the dispatches seen.
func runRing(t *testing.T, u *Unit, want int, each func(now uint64, u *Unit) *Unit) []decoded {
	t.Helper()
	var got []decoded
	u.Reset(0, 0)
	for now := uint64(0); len(got) < want; now++ {
		if now > uint64(want)*20+100 {
			t.Fatalf("stalled after %d of %d dispatches", len(got), want)
		}
		u.Tick(now)
		if u.DispatchReady(now) {
			d := decoded{h: u.Dispatch(now)}
			for u.OperandReady() {
				d.ops = append(d.ops, u.Operand())
			}
			got = append(got, d)
		}
		if each != nil {
			u = each(now, u)
		}
	}
	return got
}

// TestRingDecodesLongStreams runs thousands of dispatches through rings
// that wrap hundreds of times, including BufferBytes that are not powers
// of two (5 and 6, in a ring of 8) and the smallest buffer that always
// makes progress (4: a wide instruction at an odd offset still fits).
func TestRingDecodesLongStreams(t *testing.T) {
	bs := ringStream(3000)
	want := decodeStream(bs)
	for _, n := range []int{4, 5, 6, 8, 16} {
		u, _ := ringUnit(t, n, bs)
		if len(u.ring) < n || len(u.ring)&(len(u.ring)-1) != 0 {
			t.Fatalf("BufferBytes %d: ring length %d", n, len(u.ring))
		}
		got := runRing(t, u, len(want), func(now uint64, u *Unit) *Unit {
			if b := int(u.buffered()); b > n {
				t.Fatalf("BufferBytes %d: %d bytes buffered at cycle %d", n, b, now)
			}
			return u
		})
		for i := range want {
			if got[i].h != want[i].h || !slices.Equal(got[i].ops, want[i].ops) {
				t.Fatalf("BufferBytes %d: dispatch %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
		if st := u.Stats(); st.Dispatches != uint64(len(want)) {
			t.Errorf("BufferBytes %d: %d dispatches counted, want %d", n, st.Dispatches, len(want))
		}
	}
}

// ringSnapshotHashes pins the IFUS encoding: the SHA-256 over the IFUS
// section of a snapshot taken at the end of every cycle of a 150-dispatch
// run. These are the hashes the earlier linear-buffer IFU (a slice with
// copy-down on dispatch) produced for the same run; the ring must encode
// its buffered bytes identically, in stream order.
var ringSnapshotHashes = map[int]string{
	6: "8e40cae49725a01f93d9d96be67e39219a323ed122adf813a5eca346fa6472d0",
	8: "3d9257485117584d881d9bac4590cefc023ac6f5c8f639bd6f0c49edbe26da6d",
}

// TestRingSnapshotEncoding takes a snapshot at every cycle, so at every
// ring offset and fill level, and checks three things: the buffered bytes
// are the stream bytes [headPC, bytePC) in stream order; restoring the
// snapshot into a fresh unit reproduces it byte for byte and decodes on
// correctly (the run continues on the restored unit); and the sequence of
// IFUS sections hashes to the linear buffer's.
func TestRingSnapshotEncoding(t *testing.T) {
	bs := ringStream(200)
	want := decodeStream(bs)[:150]
	for n, wantHash := range ringSnapshotHashes {
		u, m := ringUnit(t, n, bs)
		h := sha256.New()
		got := runRing(t, u, len(want), func(now uint64, u *Unit) *Unit {
			body := ifuState(t, u)
			h.Write(body)
			bytePC := binary.LittleEndian.Uint32(body[7:])
			headPC := binary.LittleEndian.Uint32(body[11:])
			nbuf := binary.LittleEndian.Uint32(body[24:])
			if headPC != u.PC() || bytePC-headPC != nbuf ||
				!bytes.Equal(body[28:28+nbuf], bs[headPC:bytePC]) {
				t.Fatalf("BufferBytes %d, cycle %d: buffer field %x (head %d, prefetch %d), stream %x",
					n, now, body[24:28+nbuf], headPC, bytePC, bs[headPC:min(int(bytePC), len(bs))])
			}
			e := state.NewEncoder()
			u.SaveState(e)
			snap := e.Bytes()
			d, err := state.NewDecoder(snap)
			if err != nil {
				t.Fatal(err)
			}
			r := New(m, Config{BufferBytes: n})
			if err := r.LoadState(d); err != nil {
				t.Fatalf("BufferBytes %d, cycle %d: restore: %v", n, now, err)
			}
			if !bytes.Equal(ifuState(t, r), body) {
				t.Fatalf("BufferBytes %d, cycle %d: restore → snapshot differs", n, now)
			}
			return r
		})
		for i := range want {
			if got[i].h != want[i].h || !slices.Equal(got[i].ops, want[i].ops) {
				t.Fatalf("BufferBytes %d: dispatch %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
		if sum := hex.EncodeToString(h.Sum(nil)); sum != wantHash {
			t.Errorf("BufferBytes %d: IFUS sequence hash %s, want %s", n, sum, wantHash)
		}
	}
}

// TestTableChangesReresolveDispatch checks that every way the decode table
// or the Illegal handler changes reaches the resolved dispatch rows, and
// that LastEntry keeps reporting what was dispatched after the row changes.
func TestTableChangesReresolveDispatch(t *testing.T) {
	// Opcode 0x60 three times; it starts out invalid.
	u := newUnit(t, []byte{0x60, 0x60, 0x60, 0x60})
	u.Reset(0, 0)
	for now := uint64(0); now < 20; now++ {
		u.Tick(now)
		if u.DispatchReady(now) {
			t.Fatal("invalid opcode ready with no Illegal handler")
		}
	}
	const now = 20

	// SetIllegal makes every invalid opcode dispatch to the handler.
	u.SetIllegal(0x77)
	if !u.DispatchReady(now) || u.Dispatch(now) != 0x77 {
		t.Fatal("SetIllegal did not reach dispatch")
	}
	if e := u.LastEntry(); e.Name != "ILLEGAL" || e.Handler != 0x77 {
		t.Fatalf("LastEntry after ILLEGAL = %+v", e)
	}

	// SetEntry takes precedence over Illegal; a later rewrite of the same
	// row changes dispatch but not the entry already dispatched.
	if err := u.SetEntry(0x60, Entry{Handler: 0x61, LoadMemBase: true, MemBase: 3, Name: "A"}); err != nil {
		t.Fatal(err)
	}
	if !u.DispatchReady(now) || u.Dispatch(now) != 0x61 {
		t.Fatal("SetEntry did not reach dispatch")
	}
	if mb, ok := u.DispatchMemBase(); !ok || mb != 3 {
		t.Fatalf("DispatchMemBase = %d, %v", mb, ok)
	}
	if err := u.SetEntry(0x60, Entry{Handler: 0x62, Operands: 1, Name: "B"}); err != nil {
		t.Fatal(err)
	}
	if e := u.LastEntry(); e.Name != "A" || !e.LoadMemBase {
		t.Fatalf("LastEntry changed with the table: %+v", e)
	}
	if !u.DispatchReady(now) || u.Dispatch(now) != 0x62 || u.Operand() != 0x60 {
		t.Fatal("rewritten row did not reach dispatch")
	}
	if _, ok := u.DispatchMemBase(); ok {
		t.Fatal("DispatchMemBase kept the previous entry's MEMBASE load")
	}

	// A snapshot taken now carries the table; after ResetTable the opcode
	// is invalid again and never ready, and LoadState brings the row back.
	u.Reset(0, now)
	e := state.NewEncoder()
	u.SaveState(e)
	snap := e.Bytes()
	u.ResetTable()
	if e := u.LastEntry(); e.Name != "B" {
		t.Fatalf("LastEntry after ResetTable = %+v", e)
	}
	for c := uint64(now); c < now+20; c++ {
		u.Tick(c)
		if u.DispatchReady(c) {
			t.Fatal("ResetTable left the opcode dispatchable")
		}
	}
	d, err := state.NewDecoder(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.LoadState(d); err != nil {
		t.Fatal(err)
	}
	c := waitReady(t, u, now, now+20)
	if u.Dispatch(c) != 0x62 {
		t.Fatal("LoadState did not re-resolve dispatch")
	}
}

// TestLoadStateRejectsBadTables checks the decode-table invariants SetEntry
// enforces also hold for a restored table, and that the buffered byte count
// must match the prefetch and dispatch positions.
func TestLoadStateRejectsBadTables(t *testing.T) {
	u := newUnit(t, []byte{0x10, 0x10})
	if err := u.SetEntry(0x10, Entry{Handler: 1, Operands: 2, Name: "X"}); err != nil {
		t.Fatal(err)
	}
	u.Reset(0, 0)
	waitReady(t, u, 0, 100)
	e := state.NewEncoder()
	u.SaveState(e)
	good := e.Bytes()
	doc, err := state.Split(good)
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	for _, s := range doc.Sections {
		if s.Tag == sectIFUState {
			body = s.Body
		}
	}
	// The table ends the section. A row is Valid, Handler, Operands, Wide,
	// LoadMemBase, MemBase and the name (1+2+1+1+1+1+4 bytes + its
	// length); row 0x10 is named "X" and the 239 rows after it are empty.
	const rowSize = 11
	row := len(body) - (256-0x11)*rowSize - (rowSize + len("X"))
	cases := map[string]func(b []byte){
		"operands": func(b []byte) { b[row+3] = 3 },
		"wide":     func(b []byte) { b[row+3] = 1; b[row+4] = 1 },
		"buffered": func(b []byte) { binary.LittleEndian.PutUint32(b[7:], binary.LittleEndian.Uint32(b[7:])+2) },
	}
	for name, corrupt := range cases {
		b := bytes.Clone(body)
		corrupt(b)
		for i := range doc.Sections {
			if doc.Sections[i].Tag == sectIFUState {
				doc.Sections[i].Body = b
			}
		}
		d, err := state.NewDecoder(doc.Join())
		if err != nil {
			t.Fatal(err)
		}
		if err := New(u.mem, Config{}).LoadState(d); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", name)
		}
	}
}
