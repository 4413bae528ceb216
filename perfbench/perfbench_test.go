package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"dorado/internal/bitblt"
)

// benchmarkFile is the part of BENCHMARK.json these tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// useTempWorkDir points the runs' files at a test directory.
func useTempWorkDir(t *testing.T) {
	old := workDir
	workDir = t.TempDir()
	t.Cleanup(func() { workDir = old })
}

// TestEveryMetricPrinted runs each workload briefly, untraced and traced,
// and checks that the result names exactly BENCHMARK.json's metrics with
// their units and that every check passed.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	useTempWorkDir(t)
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res, err := run(w.Name, 7, 300*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.Name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongExpectedValueFails corrupts one program's expected result:
// exactly that program's runs count as failures.
func TestWrongExpectedValueFails(t *testing.T) {
	in := generate(3, emuIters)
	in.Programs[1].Want++
	r, err := buildEmulator(cfgDefault, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, wantOK := range []bool{true, false, true} {
		if _, _, _, ok := r.op(j); ok != wantOK {
			t.Errorf("op %d: ok=%v, want %v", j, ok, wantOK)
		}
	}
}

// TestFlippedDestinationWordFails flips a destination bit that a Merge
// keeps (its filter bit is 0) before the blit: the check against
// bitblt.Reference must catch it.
func TestFlippedDestinationWordFails(t *testing.T) {
	in := generate(3, emuIters)
	r, err := buildBitBlt(cfgDefault, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, p := range in.Blits {
		if p.Op != bitblt.Merge || p.Filter == 0xFFFF {
			continue
		}
		bit := uint16(1)
		for p.Filter&bit != 0 {
			bit <<= 1
		}
		mem := r.machine().Mem()
		mem.Poke(p.Dst, mem.Peek(p.Dst)^bit)
		if _, _, _, ok := r.op(j); ok {
			t.Fatalf("blit %d over a flipped destination word passed its check", j)
		}
		if _, _, _, ok := r.op(j + 1); !ok {
			t.Fatalf("blit %d after the corrupted one failed", j+1)
		}
		return
	}
	t.Fatal("no Merge blit with a filter that keeps destination bits")
}

// TestDivergedConfigurationFails corrupts one configuration's memory: the
// chunk-end snapshot comparison must count it, and only it.
func TestDivergedConfigurationFails(t *testing.T) {
	in := generate(3, emuIters)
	spec := simSpec{build: buildBitBlt, opsPerChunk: 4 * bbPerOp, idents: 4 * bbPerOp}
	runners := make([]simRunner, numConfigs)
	for c := range runners {
		r, err := spec.build(c, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		runners[c] = r
	}
	runners[cfgProbed].machine().Mem().Poke(0x70000, 1)
	st := measureSim(spec, runners, time.Millisecond, nil)
	if st.chunks == 0 || st.failed != st.chunks {
		t.Fatalf("%d chunks, %d failures; want one failed comparison per chunk", st.chunks, st.failed)
	}
}

// TestServiceWrongResultFails runs a lifecycle against the fleet with the
// right and then a wrong expected value; the wrong one must fail and still
// destroy its sessions.
func TestServiceWrongResultFails(t *testing.T) {
	useTempWorkDir(t)
	s, err := startService()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	c := newClient(s.base, nil)
	p := generate(3, svcIters).Programs[0]
	if _, err := c.lifecycle(p, cfgDefault); err != nil {
		t.Fatalf("correct lifecycle: %v", err)
	}
	p.Want++
	if _, err := c.lifecycle(p, cfgDefault); err == nil {
		t.Fatal("lifecycle with a wrong expected value passed")
	}
	if n := len(s.mgr.Sessions()); n != 0 {
		t.Fatalf("%d sessions left after the failed lifecycle", n)
	}
}

// TestGeneratorIsDeterministic checks that a seed fixes every input.
func TestGeneratorIsDeterministic(t *testing.T) {
	a, b := generate(5, emuIters), generate(5, emuIters)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("the same seed generated different inputs")
	}
	if c, _ := json.Marshal(generate(6, emuIters)); string(c) == string(ja) {
		t.Fatal("different seeds generated the same inputs")
	}
}
