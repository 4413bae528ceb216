package main

import (
	"slices"
	"testing"

	"dorado"
)

// TestDevicesKeepCallingProgramsIntact runs Mesa programs that CALL with
// the disk and display attached: a device wakeup inside a call must not
// touch the registers the emulator's call sequence uses, so the halted
// stack is the same as without devices.
func TestDevicesKeepCallingProgramsIntact(t *testing.T) {
	const recursive = `
func fib(n) {
    if n < 2 { return n; }
    return fib(n-1) + fib(n-2);
}
return fib(12);
`
	for _, tc := range []struct {
		name   string
		boot   func(*dorado.System) ([]uint16, error)
		cycles uint64
	}{
		{"calls demo", func(sys *dorado.System) ([]uint16, error) {
			a := sys.Asm()
			want, setup, err := writeDemo(dorado.Mesa, "calls", a)
			if err != nil {
				return nil, err
			}
			if err := sys.Boot(a); err != nil {
				return nil, err
			}
			setup(sys)
			return want, nil
		}, 100_000},
		{"recursive fib", func(sys *dorado.System) ([]uint16, error) {
			return []uint16{144}, sys.BootSource(recursive)
		}, 2_000_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := dorado.New(dorado.WithLanguage(dorado.Mesa))
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.boot(sys)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := attachDevices(sys); err != nil {
				t.Fatal(err)
			}
			if !sys.Run(tc.cycles) {
				t.Fatalf("did not halt within %d cycles", tc.cycles)
			}
			if got := sys.Stack(); !slices.Equal(got, want) {
				t.Errorf("halted stack = %v, want %v", got, want)
			}
			if s := sys.Machine.Stats(); s.TaskCycles[11] == 0 || s.TaskCycles[13] == 0 {
				t.Errorf("devices never ran: disk %d, display %d cycles", s.TaskCycles[11], s.TaskCycles[13])
			}
		})
	}
}
