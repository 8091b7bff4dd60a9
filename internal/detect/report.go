package detect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
)

// RenderText formats the report as a human-readable ranked list. top caps
// the number of warnings shown (0 = all).
func (r *Report) RenderText(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system %s: %d warnings\n", r.SystemID, len(r.Warnings))
	for _, w := range r.Warnings {
		if top > 0 && w.Rank > top {
			fmt.Fprintf(&b, "... and %d more\n", len(r.Warnings)-top)
			break
		}
		fmt.Fprintf(&b, "%3d. [%-16s] %s\n", w.Rank, w.Kind, w.Message)
	}
	return b.String()
}

// reportJSON is the serialized report shape.
type reportJSON struct {
	SystemID string        `json:"systemId"`
	Warnings []warningJSON `json:"warnings"`
}

type warningJSON struct {
	Rank    int     `json:"rank"`
	Kind    Kind    `json:"kind"`
	Attr    string  `json:"attr"`
	Value   string  `json:"value,omitempty"`
	Message string  `json:"message"`
	Score   float64 `json:"score"`
	Rule    string  `json:"rule,omitempty"`
}

// RenderJSON serializes the report for machine consumption.
func (r *Report) RenderJSON() ([]byte, error) {
	out := reportJSON{SystemID: r.SystemID}
	for _, w := range r.Warnings {
		wj := warningJSON{
			Rank: w.Rank, Kind: w.Kind, Attr: w.Attr,
			Value: w.Value, Message: w.Message, Score: w.Score,
		}
		if w.Rule != nil {
			wj.Rule = w.Rule.String()
		}
		out.Warnings = append(out.Warnings, wj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// reportScratch recycles the serialization scaffolding across AppendJSON
// calls: the warnings slice is the only per-report allocation of note,
// and reusing it makes report encoding allocation-free at steady state.
var reportScratch = sync.Pool{New: func() any { return new(reportJSON) }}

// AppendJSON writes the report's compact serialization into buf — the
// allocation-light sibling of RenderJSON for hot paths that encode into
// pooled buffers. The JSON content is identical to RenderJSON up to
// whitespace (json.Encoder re-compacts embedded RawMessages, so swapping
// one for the other never changes a response's wire bytes); a trailing
// newline terminates the document.
func (r *Report) AppendJSON(buf *bytes.Buffer) error {
	out := reportScratch.Get().(*reportJSON)
	out.SystemID = r.SystemID
	warnings := out.Warnings[:0]
	for _, w := range r.Warnings {
		wj := warningJSON{
			Rank: w.Rank, Kind: w.Kind, Attr: w.Attr,
			Value: w.Value, Message: w.Message, Score: w.Score,
		}
		if w.Rule != nil {
			wj.Rule = w.Rule.String()
		}
		warnings = append(warnings, wj)
	}
	// An empty list renders as null, as RenderJSON's nil slice does, even
	// when the pooled slice kept capacity from an earlier report.
	out.Warnings = nil
	if len(warnings) > 0 {
		out.Warnings = warnings
	}
	err := json.NewEncoder(buf).Encode(out)
	out.Warnings = warnings[:0]
	reportScratch.Put(out)
	return err
}

// CountByKind tallies warnings per kind.
func (r *Report) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, w := range r.Warnings {
		out[w.Kind]++
	}
	return out
}

// Filter returns the warnings satisfying pred, preserving rank order.
func (r *Report) Filter(pred func(*Warning) bool) []*Warning {
	var out []*Warning
	for _, w := range r.Warnings {
		if pred(w) {
			out = append(out, w)
		}
	}
	return out
}
