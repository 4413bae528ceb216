package core

import (
	"testing"

	"dorado/internal/device"
	"dorado/internal/ifu"
	"dorado/internal/memory"
)

func TestRegisterAccessors(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetT(3, 0x1111)
	if m.T(3) != 0x1111 || m.T(4) != 0 {
		t.Error("T accessor")
	}
	m.SetCount(77)
	if m.Count() != 77 {
		t.Error("Count accessor")
	}
	m.SetQ(88)
	if m.Q() != 88 {
		t.Error("Q accessor")
	}
	m.SetStackPtr(0x42)
	if m.StackPtr() != 0x42 {
		t.Error("StackPtr accessor")
	}
	m.SetStack(7, 0x1234)
	if m.Stack(7) != 0x1234 {
		t.Error("Stack accessor")
	}
	m.SetRBase(5)
	if m.RBase() != 5 {
		t.Error("RBase accessor")
	}
	m.SetRBase(0x1F) // masked to 4 bits
	if m.RBase() != 0xF {
		t.Error("RBase mask")
	}
	m.SetMemBase(31)
	if m.MemBase() != 31 {
		t.Error("MemBase accessor")
	}
	m.SetShiftCtl(0x1357)
	if m.ShiftCtl() != 0x1357 {
		t.Error("ShiftCtl accessor")
	}
	m.SetCPReg(0xAAAA)
	if m.CPReg() != 0xAAAA {
		t.Error("CPReg accessor")
	}
	if m.CurTask() != 0 || m.CurPC() != 0 {
		t.Error("fresh machine position")
	}
	if m.Halted() {
		t.Error("fresh machine halted")
	}
	var st Stats
	if st.Utilization(0) != 0 {
		t.Error("zero-cycle utilization should be 0")
	}
}

func TestAttachValidation(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(&device.Nop{TaskNum: 0}); err == nil {
		t.Error("task 0 (the emulator) must not take a device")
	}
	if err := m.Attach(&device.Nop{TaskNum: 16}); err == nil {
		t.Error("task 16 out of range")
	}
	if err := m.Attach(&device.Nop{TaskNum: 5}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(&device.Nop{TaskNum: 5}); err == nil {
		t.Error("double attach must fail")
	}
}

func TestBadMemoryConfigPropagates(t *testing.T) {
	if _, err := New(Config{Memory: memory.Config{CacheWords: 100}}); err == nil {
		t.Error("invalid memory config should fail machine construction")
	}
}

// TestSmallIFUBufferRejected: a prefetch buffer that cannot hold a 3-byte
// instruction would wedge dispatch, so New refuses it; 0 (the default) and
// 4 (the smallest that always makes progress) build.
func TestSmallIFUBufferRejected(t *testing.T) {
	for _, n := range []int{3, -1} {
		if _, err := New(Config{IFU: ifu.Config{BufferBytes: n}}); err == nil {
			t.Errorf("BufferBytes %d accepted", n)
		}
	}
	for _, n := range []int{0, 4} {
		if _, err := New(Config{IFU: ifu.Config{BufferBytes: n}}); err != nil {
			t.Errorf("BufferBytes %d rejected: %v", n, err)
		}
	}
}
