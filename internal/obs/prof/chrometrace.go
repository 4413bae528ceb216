package prof

import (
	"io"

	"dorado/internal/obs"
)

// Chrome-trace annotation of superblock spans: each recent block execution
// renders as a complete ("X") event on a "superblocks" row, named by the
// block's symbol and tagged with its exit reason — load next to the
// scheduler trace from obs.WriteChromeTrace to see exactly which events
// cut fused runs short. Both exports share obs's trace_event encoding.

// WriteChromeTrace renders the profile's superblock spans as Chrome
// trace_event JSON: one row, one duration event per block execution, exit
// reason and fused cycle count in args. Loads in chrome://tracing and
// https://ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, p *Profile) error {
	doc := obs.TraceDoc{
		TraceEvents: []obs.TraceEvent{{
			Name: "process_name", Ph: "M", Ts: "0", Pid: 2, Tid: 0,
			Args: map[string]any{"name": "Dorado superblocks"},
		}, {
			Name: "thread_name", Ph: "M", Ts: "0", Pid: 2, Tid: 0,
			Args: map[string]any{"name": "superblocks"},
		}},
		OtherData: map[string]any{
			"cycle_ns": obs.CycleNS,
			"source":   "dorado simulator (internal/obs/prof)",
		},
	}
	if p.SpansDropped > 0 {
		doc.OtherData["spans_dropped"] = p.SpansDropped
	}
	for _, sp := range p.Spans {
		doc.TraceEvents = append(doc.TraceEvents, obs.TraceEvent{
			Name: sp.Name, Cat: "superblock", Ph: "X",
			Ts: obs.TraceTime(sp.Start), Dur: obs.TraceTime(sp.Cycles), Pid: 2, Tid: 0,
			Args: map[string]any{
				"block":  sp.Block.String(),
				"cycles": sp.Cycles,
				"exit":   sp.Reason,
			},
		})
	}
	return doc.Encode(w)
}
