package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// The benchmark records its own spans around calls into each layer with
// a telemetry.Recorder. Untraced runs hold a nil recorder: every
// recorder and span method is a no-op on nil, so traced and untraced
// runs execute the same code.
func newRecorder(on bool) *telemetry.Recorder {
	if !on {
		return nil
	}
	return telemetry.New()
}

// root opens a top-level span for one operation; every span under it
// carries the same request id.
func root(rec *telemetry.Recorder, name, req string) *telemetry.Span {
	return rec.StartSpan(name, telemetry.A("req", req))
}

// child opens a span under parent with parent's request id.
func child(parent *telemetry.Span, name, req string) *telemetry.Span {
	return parent.StartChild(name, telemetry.A("req", req))
}

// spanStats aggregates the completed spans of one name.
type spanStats struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by its children; overlapping
// children (concurrent workers) are merged so no instant counts twice.
func selfTimes(spans []telemetry.SpanData) map[string]spanStats {
	kids := map[int64][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.Start + s.Dur})
		}
	}
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.Dur
		st.Self += s.Dur - covered(kids[s.ID], s.Start, s.Start+s.Dur)
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// meanSelf is the mean self time per span of name, in unit.
func meanSelf(st map[string]spanStats, name string, unit time.Duration) float64 {
	s := st[name]
	if s.Count == 0 {
		return 0
	}
	return float64(s.Self) / float64(s.Count) / float64(unit)
}

// maxTraceSpans caps the Chrome trace a run writes (the earliest spans
// by start time): a fleet run records a few hundred thousand, and the
// per-layer figures come from all of them, not from the file.
const maxTraceSpans = 50000

// writeTrace writes rec's spans as a Chrome trace to
// <buildDir>/traces/<workload>.json, replacing the previous run's.
func writeTrace(rec *telemetry.Recorder, buildDir, workload string) error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := rec.Snapshot()
	if len(snap.Spans) > maxTraceSpans {
		snap.Spans = snap.Spans[:maxTraceSpans]
	}
	return snap.WriteChromeTrace(filepath.Join(dir, workload+".json"))
}
