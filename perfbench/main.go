// Command perfbench is the repository's benchmark: it runs one workload
// from a seed, checks every output, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as one JSON line.
//
//	bash perfbench/run.sh --workload emulator --seed 1 --seconds 20 --trace 0
//
// Workloads: emulator (Mesa programs on the emulator with disk, display and
// a page map), bitblt (a BitBlt mix over a working set three times the
// cache) and service (park/revive lifecycles against the fleet over
// loopback HTTP). README.md lists the metrics and the layer each traces.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"mcps", "Mcycles/s"},
	{"mcps_translated", "Mcycles/s"},
	{"mcps_probed", "Mcycles/s"},
	{"sim_cycles_per_op", "cycles"},
	{"run_p50_ms", "ms"},
	{"run_p90_ms", "ms"},
	{"park_p50_ms", "ms"},
	{"park_p90_ms", "ms"},
	{"revive_p50_ms", "ms"},
	{"revive_p90_ms", "ms"},
}

// perLayer are the metrics a traced run prints. A count or share a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"core.hold_share", "ratio"},
	{"core.task_switches_per_kcycle", "1/kcycle"},
	{"core.self_share", "ratio"},
	{"ifu.dispatches_per_kcycle", "1/kcycle"},
	{"ifu.words_fetched_per_dispatch", "words"},
	{"ifu.dispatch_ns", "ns"},
	{"ifu.self_share", "ratio"},
	{"memory.hit_ratio", "ratio"},
	{"memory.refs_per_kcycle", "1/kcycle"},
	{"memory.storage_ops_per_kcycle", "1/kcycle"},
	{"memory.ref_ns_identity", "ns"},
	{"memory.ref_ns_mapped", "ns"},
	{"memory.self_share", "ratio"},
	{"device.task_share", "ratio"},
	{"device.self_share", "ratio"},
	{"translate.fused_share", "ratio"},
	{"translate.cycles_per_entry", "cycles"},
	{"translate.blocks_built", "count"},
	{"translate.exit_ifujump_share", "ratio"},
	{"translate.self_share", "ratio"},
	{"probe.overhead", "ratio"},
	{"probe.self_share", "ratio"},
	{"state.encode_ms", "ms"},
	{"state.decode_ms", "ms"},
	{"state.snapshot_kb", "KiB"},
	{"store.put_ms", "ms"},
	{"store.put_dedup_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.new_bytes_share", "ratio"},
	{"store.self_share", "ratio"},
	{"fleet.queue_ms.boot", "ms"},
	{"fleet.queue_ms.run", "ms"},
	{"fleet.queue_ms.state", "ms"},
	{"fleet.service_ms.boot", "ms"},
	{"fleet.service_ms.run", "ms"},
	{"fleet.service_ms.state", "ms"},
	{"fleet.build_ms", "ms"},
	{"fleet.busy_retries_per_lifecycle", "count"},
	{"http.self_ms", "ms"},
	{"http.requests_per_lifecycle", "count"},
	{"http.self_share", "ratio"},
	{"mesac.compile_ms", "ms"},
	{"masm.assemble_ms", "ms"},
	{"runtime.gc_share", "ratio"},
	{"trace.ops_per_s", "1/s"},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	setups            []float64
	e2e, layers       map[string]float64
	// traced runs the workload's follow-up measurements after the CPU
	// profile stops: its layer timers and anything else that must not
	// show in the profile. Nil for untraced runs.
	traced func() (map[string]float64, error)
}

func main() {
	workload := flag.String("workload", "", "emulator, bitblt or service")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	res, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workDir is where runs keep files (stores, traces): .bench_build under
// the directory the benchmark runs from.
var workDir = ".bench_build"

func run(workload string, seed int64, dur time.Duration, traced bool) (result, error) {
	var tr *tracer
	var prof bytes.Buffer
	if traced {
		tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
	}
	heap := startHeapSampler()
	var o outcome
	var err error
	switch workload {
	case "emulator":
		o, err = simWorkload(simSpec{build: buildEmulator, opsPerChunk: 4, idents: numPrograms, iters: emuIters}, seed, dur, tr)
	case "bitblt":
		o, err = simWorkload(simSpec{build: buildBitBlt, opsPerChunk: 4 * bbPerOp, idents: 4 * bbPerOp, iters: emuIters}, seed, dur, tr)
	case "service":
		o, err = serviceWorkload(seed, dur, svcClients, tr)
	default:
		err = fmt.Errorf("unknown workload %q (want emulator, bitblt or service)", workload)
	}
	peak := heap.stop()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	res.Correct = o.failed == 0 && o.attempted > 0
	if !traced {
		o.e2e["setup_s"] = median(o.setups)
		o.e2e["peak_heap_mb"] = peak / (1 << 20)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{o.e2e[d.name], d.unit}
		}
		return res, nil
	}

	shares, err := attribute(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("profile: %w", err)
	}
	for _, l := range []string{"core", "ifu", "memory", "device", "translate", "probe", "store", "http"} {
		o.layers[l+".self_share"] = shares[l]
	}
	o.layers["runtime.gc_share"] = shares["runtime.gc"]
	o.layers["trace.ops_per_s"] = o.e2e["ops_per_s"]
	o.layers["probe.overhead"] = o.e2e["mcps"]/o.e2e["mcps_probed"] - 1
	more, err := o.traced()
	if err != nil {
		return result{}, err
	}
	for k, v := range more {
		o.layers[k] = v
	}
	if err := os.MkdirAll(filepath.Join(workDir, "trace"), 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d", workload, seed))
	if err := tr.write(base + ".spans.json"); err != nil {
		return result{}, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{o.layers[d.name], d.unit}
	}
	return res, nil
}

// heapSampler tracks the live heap (as marked by the last garbage
// collection) while a run is in flight. The live heap depends less than the
// allocated heap on when collections happen to run. The reported peak is
// the median over one-second windows of each window's largest sample: the
// largest sample of the whole run depends on one collection happening to
// mark at the worst moment, which varies from run to run.
type heapSampler struct {
	stopC  chan struct{}
	done   sync.WaitGroup
	sample []metrics.Sample
	n      int // samples in the current window
	peak   uint64
	peaks  []float64
}

// heapEvery and heapWindow are the sampling interval and the number of
// samples in one window.
const (
	heapEvery  = 20 * time.Millisecond
	heapWindow = int(time.Second / heapEvery)
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopC: make(chan struct{}), sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			h.read()
			select {
			case <-h.stopC:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	metrics.Read(h.sample)
	h.peak = max(h.peak, h.sample[0].Value.Uint64())
	if h.n++; h.n == heapWindow {
		h.flush()
	}
}

func (h *heapSampler) flush() {
	h.peaks = append(h.peaks, float64(h.peak))
	h.n, h.peak = 0, 0
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopC)
	h.done.Wait()
	h.read()
	if h.n > 0 {
		h.flush()
	}
	return median(h.peaks)
}

// Statistics helpers.

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
