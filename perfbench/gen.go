package main

import (
	"fmt"
	"math/rand"

	"dorado/internal/bitblt"
)

// This file turns a seed into every input the workloads feed the program:
// Mesa sources with the result each must halt with, BitBlt calls, and the
// page map. The program under test sees only these generated inputs.
//
// The generators are stratified so that different seeds give inputs with
// the same cost profile: every Mesa program runs the same loop skeleton the
// same number of times, and every seed's BitBlt list holds the same multiset
// of rectangles for each operation. Seeds change values, operators, places
// and order, not the amount of work, so a metric's spread across seeds measures
// the host, not the generator.

// mesaProgram is one generated source and the value it must halt with.
type mesaProgram struct {
	Source string
	Want   uint16
}

// binOps are the mesac operators the generator draws from; apply gives
// their 16-bit machine semantics.
var binOps = []string{"+", "-", "^", "|", "&"}

func apply(op string, a, b uint16) uint16 {
	switch op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "^":
		return a ^ b
	case "|":
		return a | b
	case "&":
		return a & b
	}
	panic("perfbench: unknown operator " + op)
}

// genMesa builds one program: a counted loop that calls a two-argument
// function, branches on the accumulator, and stores a global each
// iteration. iters fixes the trip count; everything else comes from r.
// Want is computed here by evaluating the same program in Go.
func genMesa(r *rand.Rand, iters int) mesaProgram {
	opA, opB := binOps[r.Intn(len(binOps))], binOps[r.Intn(len(binOps))]
	opC, opD := binOps[r.Intn(len(binOps))], binOps[r.Intn(len(binOps))]
	ca, c0, c1, cb := uint16(r.Intn(256)), uint16(r.Intn(256)), uint16(r.Intn(256)), uint16(1+r.Intn(255))
	mask := uint16(1)<<(1+r.Intn(3)) - 1
	kv := uint16(r.Intn(int(mask) + 1))
	slot := 40 + r.Intn(40)

	src := fmt.Sprintf(`func mix(a, b) {
    return ((a %s b) %s %d);
}
var i = 0;
var acc = %d;
var k = %d;
global %d = 0;
while i < %d {
    acc = (acc %s mix(i, k));
    if (acc & %d) == %d { k = k + %d; } else { k = (k ^ acc) & 255; }
    global %d = acc;
    i = i + 1;
}
return (acc %s global %d);
`, opA, opB, ca, c0, c1, slot, iters, opC, mask, kv, cb, slot, opD, slot)

	i, acc, k, g := uint16(0), c0, c1, uint16(0)
	for int16(i-uint16(iters)) < 0 {
		acc = apply(opC, acc, apply(opB, apply(opA, i, k), ca))
		if acc&mask == kv {
			k += cb
		} else {
			k = (k ^ acc) & 255
		}
		g = acc
		i++
	}
	return mesaProgram{Source: src, Want: apply(opD, acc, g)}
}

// genMesaSet returns n programs of iters trip count each.
func genMesaSet(r *rand.Rand, n, iters int) []mesaProgram {
	out := make([]mesaProgram, n)
	for j := range out {
		out[j] = genMesa(r, iters)
	}
	return out
}

// BitBlt geometry: source and destination are 64 rows of 96 words each,
// 12 K words together, three times the 4 K-word cache, so blits stream
// misses and write-backs.
const (
	bbPitch   = 96
	bbRows    = 64
	bbSrcBase = 0x10000
	bbDstBase = 0x40000
	bbPerOp   = 32 // blits of each operation in one seed's list
)

// genBlits returns 4×bbPerOp BitBlt calls, bbPerOp of each operation in
// seed-shuffled order. Every operation gets the same fixed set of
// rectangles, widths and heights from an 8..64-word ladder; the seed
// places them and picks fill values, filters and bit offsets.
func genBlits(r *rand.Rand) []bitblt.Params {
	ladder := make([]int, bbPerOp)
	for j := range ladder {
		ladder[j] = 8 + j*56/(bbPerOp-1)
	}
	var out []bitblt.Params
	for _, op := range []bitblt.Op{bitblt.Fill, bitblt.Copy, bitblt.CopyShifted, bitblt.Merge} {
		for j := 0; j < bbPerOp; j++ {
			w, h := ladder[j], ladder[(j*13+5)%bbPerOp]
			// Column 0 is never a source origin: CopyShifted reads the
			// word before each source row.
			sx, sy := 1+r.Intn(bbPitch-w), r.Intn(bbRows-h+1)
			dx, dy := r.Intn(bbPitch-w+1), r.Intn(bbRows-h+1)
			p := bitblt.Params{
				Op:         op,
				Src:        bbSrcBase + uint32(sy*bbPitch+sx),
				Dst:        bbDstBase + uint32(dy*bbPitch+dx),
				WidthWords: w, Height: h,
				SrcPitch: bbPitch, DstPitch: bbPitch,
				FillValue: uint16(r.Uint32()),
				Filter:    uint16(r.Uint32()),
			}
			if op == bitblt.CopyShifted {
				p.BitOffset = uint8(1 + r.Intn(15))
			}
			out = append(out, p)
		}
	}
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// Page map: the virtual pages the emulator workload touches (code, frames,
// globals and the disk buffer, VA 0..0x12000) are mapped onto a
// seed-chosen permutation of the upper half of real storage, which nothing
// addresses directly, so no two virtual pages share a real page.
const (
	mapPages  = 0x12000 / 256
	mapRPBase = 2048
	mapRPSpan = 2048
)

// genPageMap returns virtual page → real page.
func genPageMap(r *rand.Rand) map[uint32]uint32 {
	perm := r.Perm(mapRPSpan)
	out := make(map[uint32]uint32, mapPages)
	for vp := 0; vp < mapPages; vp++ {
		out[uint32(vp)] = uint32(mapRPBase + perm[vp])
	}
	return out
}

// inputs is everything one seed generates. Each workload uses its own part;
// the layer timers reuse the Mesa programs and the page map everywhere.
type inputs struct {
	Programs []mesaProgram
	Blits    []bitblt.Params
	PageMap  map[uint32]uint32
	Fill     []uint16 // initial source and destination bitmap words
}

// numPrograms is how many Mesa programs a seed generates. Their trip
// counts: the emulator's programs run about 95 K cycles each, the
// service's about 190 K, so a run request is mostly simulation, not HTTP.
const (
	numPrograms = 16
	emuIters    = 600
	svcIters    = 1200
)

// generate derives a workload's inputs from seed. Every part has its own
// stream, so adding a part never changes the others.
func generate(seed int64, iters int) inputs {
	part := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + k)) }
	in := inputs{
		Programs: genMesaSet(part(1), numPrograms, iters),
		Blits:    genBlits(part(2)),
		PageMap:  genPageMap(part(3)),
	}
	fr := part(4)
	in.Fill = make([]uint16, 2*bbRows*bbPitch)
	for j := range in.Fill {
		in.Fill[j] = uint16(fr.Uint32())
	}
	return in
}
