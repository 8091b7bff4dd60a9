// Package scan holds the shared vocabulary of a batch target scan: the
// per-image check signature, the per-image outcome (Item, ScanError), the
// batch result, and the fleet-wide Summary and bounded ErrorLog that
// aggregate it. The batch itself runs through the sharded coordinator in
// internal/fleet, which every scan path uses (the CLI, the library's
// Framework.ScanEngine, and the daemon's batch endpoint).
//
// The failure semantics a production scanner needs live in these types:
// one malformed image out of thousands must not abort the batch, so a
// failing image yields a per-image *ScanError in its Item while every
// other image still produces its report.
package scan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/detect"
	"repro/internal/sysimage"
)

// CheckFunc checks one target image against previously learned knowledge.
// encore.Framework.Check and CheckWithProfile both adapt to this shape.
type CheckFunc func(img *sysimage.Image) (*detect.Report, error)

// AlertApp derives an alert's app routing key from a flagged attribute:
// config attributes are named "app:Entry" (the assembler's canonical
// column names); environment attributes ("Sys.HostName", "OS.Version")
// fall under "system". The fleet coordinator applies it to every warning
// unless its Options.App pins one label for the whole batch.
func AlertApp(attr string) string {
	if app, _, ok := strings.Cut(attr, ":"); ok {
		return app
	}
	return "system"
}

// ScanError is the per-image failure record of a batch scan.
type ScanError struct {
	// ImageID is the failing image's ID ("" when the image could not even
	// be decoded).
	ImageID string
	// Path names the task in its fleet.Source: the file path for a
	// directory scan, the image ID for resident images.
	Path string
	// Err is the underlying assembly/check/decode error.
	Err error
}

// Error renders the failure with its image context.
func (e *ScanError) Error() string {
	switch {
	case e.ImageID != "":
		return fmt.Sprintf("scan: image %s: %v", e.ImageID, e.Err)
	case e.Path != "":
		return fmt.Sprintf("scan: %s: %v", e.Path, e.Err)
	default:
		return fmt.Sprintf("scan: %v", e.Err)
	}
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ScanError) Unwrap() error { return e.Err }

// Item is the outcome for one input image, in input order. Exactly one of
// Report and Err is set.
type Item struct {
	// ImageID identifies the image ("" if it could not be decoded).
	ImageID string
	// Report is the check result for a healthy image.
	Report *detect.Report
	// Err records why this image produced no report.
	Err *ScanError
}

// Result is the outcome of one batch scan.
type Result struct {
	// Items holds one entry per input image, in input order.
	Items []Item
}

// Reports returns the successful reports in input order.
func (r *Result) Reports() []*detect.Report {
	var out []*detect.Report
	for _, it := range r.Items {
		if it.Report != nil {
			out = append(out, it.Report)
		}
	}
	return out
}

// Errors returns the per-image failures in input order.
func (r *Result) Errors() []*ScanError {
	var out []*ScanError
	for _, it := range r.Items {
		if it.Err != nil {
			out = append(out, it.Err)
		}
	}
	return out
}

// AttrCount is one attribute with its fleet-wide warning count.
type AttrCount struct {
	Attr  string
	Count int
}

// Summary aggregates a batch scan fleet-wide. It can be built in one shot
// from a Result (Summarize) or accumulated incrementally item by item
// (Observe + Finish) — the streaming form the fleet coordinator's sinks
// use so a 100k-image walk never has to retain its items.
type Summary struct {
	// Scanned counts all input images, healthy or not.
	Scanned int
	// Flagged counts images with at least minWarnings warnings.
	Flagged int
	// Warnings is the total warning count across healthy images.
	Warnings int
	// Errors counts images that failed to scan.
	Errors int
	// ByKind tallies warnings per kind across the fleet.
	ByKind map[detect.Kind]int
	// HotAttrs ranks attributes by how often they were flagged
	// (descending count, ties by name). Populated by Finish.
	HotAttrs []AttrCount

	// attrCounts accumulates per-attribute tallies until Finish ranks them.
	attrCounts map[string]int
}

// Observe folds one item into the summary; minWarnings is the flagging
// floor for the Flagged count. Call Finish once all items are observed.
// Observe is not safe for concurrent use — concurrent sinks must lock.
func (s *Summary) Observe(it Item, minWarnings int) {
	if s.ByKind == nil {
		s.ByKind = map[detect.Kind]int{}
	}
	if s.attrCounts == nil {
		s.attrCounts = map[string]int{}
	}
	s.Scanned++
	if it.Err != nil {
		s.Errors++
		return
	}
	s.Warnings += len(it.Report.Warnings)
	for _, w := range it.Report.Warnings {
		s.ByKind[w.Kind]++
		s.attrCounts[w.Attr]++
	}
	if len(it.Report.Warnings) >= minWarnings {
		s.Flagged++
	}
}

// Finish ranks the accumulated attribute tallies into HotAttrs.
func (s *Summary) Finish() {
	s.HotAttrs = s.HotAttrs[:0]
	for attr, n := range s.attrCounts {
		s.HotAttrs = append(s.HotAttrs, AttrCount{Attr: attr, Count: n})
	}
	sort.Slice(s.HotAttrs, func(i, j int) bool {
		if s.HotAttrs[i].Count != s.HotAttrs[j].Count {
			return s.HotAttrs[i].Count > s.HotAttrs[j].Count
		}
		return s.HotAttrs[i].Attr < s.HotAttrs[j].Attr
	})
}

// Summarize aggregates the result; minWarnings is the flagging floor used
// for the Flagged count.
func (r *Result) Summarize(minWarnings int) Summary {
	var s Summary
	for _, it := range r.Items {
		s.Observe(it, minWarnings)
	}
	s.Finish()
	if s.ByKind == nil {
		s.ByKind = map[detect.Kind]int{}
	}
	return s
}
