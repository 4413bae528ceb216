package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// This file is the traced run's instrumentation, all of it on the
// benchmark's side of the calls: spans around calls into the program's
// public functions, and attribution of a CPU profile to the program's
// layers by the source file of each sampled function.

// span is one timed call into a layer. Parent is the chunk or lifecycle
// the call belongs to (-1 for set-up).
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs use it; begin still reads the clock,
// so callers can time a call whether or not it is traced.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	parent int
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), parent: -1} }

type spanStart struct{ t time.Time }

func (tr *tracer) begin() spanStart { return spanStart{time.Now()} }

// end records the call begun at s under the current parent and returns its
// duration.
func (tr *tracer) end(s spanStart, name string) time.Duration {
	if tr == nil {
		return time.Since(s.t)
	}
	tr.mu.Lock()
	parent := tr.parent
	tr.mu.Unlock()
	return tr.endIn(s, name, parent)
}

// endIn is end under an explicit parent, for callers on several goroutines.
func (tr *tracer) endIn(s spanStart, name string, parent int) time.Duration {
	d := time.Since(s.t)
	if tr != nil {
		tr.mu.Lock()
		tr.spans = append(tr.spans, span{Name: name, Parent: parent,
			Start: float64(s.t.Sub(tr.t0).Nanoseconds()) / 1e3, Dur: float64(d.Nanoseconds()) / 1e3})
		tr.mu.Unlock()
	}
	return d
}

// setParent makes later end calls children of chunk or lifecycle id.
func (tr *tracer) setParent(id int) {
	if tr != nil {
		tr.mu.Lock()
		tr.parent = id
		tr.mu.Unlock()
	}
}

// write stores the spans as JSON.
func (tr *tracer) write(path string) error {
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf maps a sampled function (by its package and source file) to the
// layer that owns it; "" means no layer.
func layerOf(file, fn string) string {
	if rest, ok := strings.CutPrefix(fn, "dorado/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		base := filepath.Base(file)
		switch {
		case pkg == "core" && base == "translate.go":
			return "translate"
		case pkg == "core" && base == "prof.go", pkg == "obs", pkg == "trace":
			return "probe"
		case pkg == "state", base == "snapshot.go" && (pkg == "core" || pkg == "memory" || pkg == "ifu" || pkg == "device"):
			return "state"
		case pkg == "fleet" && (base == "server.go" || base == "sse.go"):
			return "http"
		case pkg == "core", pkg == "ifu", pkg == "memory", pkg == "device", pkg == "store",
			pkg == "fleet", pkg == "mesac", pkg == "masm":
			return pkg
		}
		return ""
	}
	if strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net.") {
		return "http"
	}
	return ""
}

// gcFrames mark a sample as garbage-collector work wherever they appear in
// its stack.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// attribute reads a gzipped CPU profile and returns each layer's share of
// all samples, plus the garbage collector's share under "runtime.gc". A
// sample belongs to the innermost frame that has a layer, so a memmove
// called from the snapshot encoder counts as state.
func attribute(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	share := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		total += float64(s.count)
		layer, gc := "", false
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				f := p.funcs[fid]
				if layer == "" {
					layer = layerOf(f.file, f.name)
				}
				for _, g := range gcFrames {
					gc = gc || f.name == g
				}
			}
		}
		if layer != "" {
			share[layer] += float64(s.count)
		}
		if gc {
			share["runtime.gc"] += float64(s.count)
		}
	}
	if total == 0 {
		return nil, errors.New("profile has no samples")
	}
	for k := range share {
		share[k] /= total
	}
	return share, nil
}

// A minimal reader for the pprof protobuf (profile.proto): just the
// fields attribution needs — samples' location ids and first value,
// locations' line function ids (innermost first), functions' name and
// file, and the string table.

type profSample struct {
	locs  []uint64
	count int64
}

type profFunc struct {
	name, file string
}

type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64
	funcs    map[uint64]profFunc
}

type pbField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

// pbFields splits one protobuf message into fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = pbVarint(b)
			if n == 0 {
				return nil, errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return nil, errors.New("pprof: unsupported wire type")
		}
		out = append(out, f)
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbInts reads a repeated integer field in either packed or unpacked form.
func pbInts(f pbField) []uint64 {
	if f.wire == 0 {
		return []uint64{f.v}
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

func parseProfile(raw []byte) (*profile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcs: map[uint64]profFunc{}}
	var strs []string
	type rawFunc struct{ id, name, file uint64 }
	var rfs []rawFunc
	for _, f := range top {
		switch f.num {
		case 2: // sample
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, sf := range fs {
				switch sf.num {
				case 1:
					s.locs = append(s.locs, pbInts(sf)...)
				case 2:
					if vs := pbInts(sf); len(vs) > 0 && s.count == 0 {
						s.count = int64(vs[0])
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var lines []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4:
					ls, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							lines = append(lines, l.v)
						}
					}
				}
			}
			p.locLines[id] = lines
		case 5: // function
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var rf rawFunc
			for _, ff := range fs {
				switch ff.num {
				case 1:
					rf.id = ff.v
				case 2:
					rf.name = ff.v
				case 4:
					rf.file = ff.v
				}
			}
			rfs = append(rfs, rf)
		case 6: // string table
			strs = append(strs, string(f.b))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, rf := range rfs {
		p.funcs[rf.id] = profFunc{name: str(rf.name), file: str(rf.file)}
	}
	return p, nil
}
