package scan_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	encore "repro"
	"repro/internal/alert"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/inject"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// The batch scan runs through the fleet coordinator (Framework.ScanEngine);
// these tests pin the per-image semantics this package's types describe.

// testFleet returns learned knowledge plus a target fleet whose image at
// index corruptAt (if >= 0) fails assembly with a parse error.
func testFleet(t *testing.T, n, corruptAt int) (*encore.Framework, *encore.Knowledge, []*sysimage.Image) {
	t.Helper()
	training, err := corpus.Training("mysql", 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	fw := encore.New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := corpus.Training("mysql", n, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range targets {
		img.ID = fmt.Sprintf("target-%03d", i)
	}
	if corruptAt >= 0 {
		targets[corruptAt].ConfigFiles = append(targets[corruptAt].ConfigFiles, sysimage.ConfigFile{
			App: "mysql", Path: "/etc/mysql/broken.cnf", Content: "[unterminated\n",
		})
	}
	return fw, k, targets
}

// collect scans resident targets through the framework's scan engine.
func collect(t *testing.T, coord *fleet.Coordinator, targets []*sysimage.Image) *scan.Result {
	t.Helper()
	res, _, err := coord.Collect(context.Background(), &fleet.ImageSource{Images: targets})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBatchFaultIsolation is the acceptance-criterion test: a batch over a
// corpus containing one corrupt image returns findings for every other
// image plus exactly one ScanError.
func TestBatchFaultIsolation(t *testing.T) {
	fw, k, targets := testFleet(t, 6, 2)
	res := collect(t, fw.ScanEngine(fw.CompilePlan(k)), targets)
	if len(res.Items) != len(targets) {
		t.Fatalf("items = %d, want %d", len(res.Items), len(targets))
	}
	errs := res.Errors()
	if len(errs) != 1 {
		t.Fatalf("errors = %d, want exactly 1", len(errs))
	}
	if errs[0].ImageID != "target-002" {
		t.Fatalf("failed image = %q, want target-002", errs[0].ImageID)
	}
	if !strings.Contains(errs[0].Error(), "target-002") || !strings.Contains(errs[0].Error(), "broken.cnf") {
		t.Fatalf("ScanError lacks image/file context: %v", errs[0])
	}
	if got := len(res.Reports()); got != len(targets)-1 {
		t.Fatalf("reports = %d, want %d", got, len(targets)-1)
	}
	for i, it := range res.Items {
		if i == 2 {
			continue
		}
		if it.Report == nil || it.Report.SystemID != fmt.Sprintf("target-%03d", i) {
			t.Fatalf("item %d lost its report or its order", i)
		}
	}
}

// TestStrictFailFast pins the fail-fast pattern `encore scan -strict`
// builds on the coordinator: a sink that records the lowest failing index
// and cancels the run ends up holding the corrupt image's ScanError, and
// the run stops instead of reporting an error of its own.
func TestStrictFailFast(t *testing.T) {
	fw, k, targets := testFleet(t, 6, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu      sync.Mutex
		failed  *scan.ScanError
		failIdx int
	)
	_, err := fw.ScanEngine(fw.CompilePlan(k)).Run(ctx, &fleet.ImageSource{Images: targets}, func(idx int, it scan.Item) {
		mu.Lock()
		defer mu.Unlock()
		if it.Err != nil && (failed == nil || idx < failIdx) {
			failed, failIdx = it.Err, idx
			cancel()
		}
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want nil or context.Canceled", err)
	}
	if failed == nil || failed.ImageID != "target-002" || failIdx != 2 {
		t.Fatalf("first failure = %v at %d, want ScanError for target-002 at 2", failed, failIdx)
	}
}

// TestScanCleanFleet checks the no-error path across worker counts.
func TestScanCleanFleet(t *testing.T) {
	fw, k, targets := testFleet(t, 5, -1)
	plan := fw.CompilePlan(k)
	for _, workers := range []int{0, 1, 4} {
		coord := fw.ScanEngine(plan)
		coord.Opts.Workers = workers
		res := collect(t, coord, targets)
		if len(res.Errors()) != 0 || len(res.Reports()) != len(targets) {
			t.Fatalf("workers=%d: unexpected result shape", workers)
		}
	}
}

// TestScanDirIsolatesDecodeErrors checks a directory scan treats an
// undecodable image file like any other per-image failure.
func TestScanDirIsolatesDecodeErrors(t *testing.T) {
	fw, k, targets := testFleet(t, 4, -1)
	dir := t.TempDir()
	if err := sysimage.SaveDir(dir, targets); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := fleet.NewDirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := fw.ScanEngine(fw.CompilePlan(k)).Collect(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(targets)+1 {
		t.Fatalf("items = %d, want %d", len(res.Items), len(targets)+1)
	}
	errs := res.Errors()
	if len(errs) != 1 || !strings.Contains(errs[0].Path, "corrupt.json") {
		t.Fatalf("errors = %v, want one decode failure for corrupt.json", errs)
	}
	if len(res.Reports()) != len(targets) {
		t.Fatalf("reports = %d, want %d", len(res.Reports()), len(targets))
	}
}

// TestSummarize checks the fleet aggregation maths and ordering.
func TestSummarize(t *testing.T) {
	res := &scan.Result{Items: []scan.Item{
		{ImageID: "a", Report: &detect.Report{SystemID: "a", Warnings: []*detect.Warning{
			{Kind: detect.KindType, Attr: "x"},
			{Kind: detect.KindType, Attr: "y"},
		}}},
		{ImageID: "b", Report: &detect.Report{SystemID: "b", Warnings: []*detect.Warning{
			{Kind: detect.KindCorrelation, Attr: "x"},
		}}},
		{ImageID: "c", Report: &detect.Report{SystemID: "c"}},
		{Err: &scan.ScanError{ImageID: "d", Err: errors.New("boom")}},
	}}
	s := res.Summarize(2)
	if s.Scanned != 4 || s.Flagged != 1 || s.Warnings != 3 || s.Errors != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.ByKind[detect.KindType] != 2 || s.ByKind[detect.KindCorrelation] != 1 {
		t.Fatalf("byKind = %v", s.ByKind)
	}
	want := []scan.AttrCount{{Attr: "x", Count: 2}, {Attr: "y", Count: 1}}
	if len(s.HotAttrs) != 2 || s.HotAttrs[0] != want[0] || s.HotAttrs[1] != want[1] {
		t.Fatalf("hotAttrs = %v", s.HotAttrs)
	}
}

// TestScanTelemetry verifies the batch counters.
func TestScanTelemetry(t *testing.T) {
	fw, k, targets := testFleet(t, 5, 1)
	rec := telemetry.New()
	coord := fw.ScanEngine(fw.CompilePlan(k))
	coord.Opts.Telemetry = rec
	res := collect(t, coord, targets)
	if got := rec.Counter(telemetry.CounterImagesScanned); got != 5 {
		t.Fatalf("images scanned = %d, want 5", got)
	}
	if got := rec.Counter(telemetry.CounterScanErrors); got != 1 {
		t.Fatalf("scan errors = %d, want 1", got)
	}
	warnings := 0
	for _, rep := range res.Reports() {
		warnings += len(rep.Warnings)
	}
	if got := rec.Counter(telemetry.CounterFindingsEmitted); got != int64(warnings) {
		t.Fatalf("findings counter = %d, want %d", got, warnings)
	}
}

// TestScanTelemetrySpansAndHistogram verifies the batch records per-image
// scan latencies into the histogram, emits a span tree rooted at
// scan.batch with one child per worker and no per-image spans (span
// count stays O(workers) at any fleet size), and steps the progress
// reporter once per image.
func TestScanTelemetrySpansAndHistogram(t *testing.T) {
	fw, k, targets := testFleet(t, 5, -1)
	rec := telemetry.New()
	coord := fw.ScanEngine(fw.CompilePlan(k))
	coord.Opts.Telemetry = rec
	coord.Opts.Workers = 2
	var buf bytes.Buffer
	p := telemetry.NewProgress(&buf, "scan", len(targets), time.Hour)
	coord.Opts.Progress = p
	collect(t, coord, targets)
	p.Stop()
	if !strings.Contains(buf.String(), "scan: 5/5 images") {
		t.Fatalf("progress output = %q", buf.String())
	}

	snap := rec.Snapshot()
	var hist *telemetry.HistogramData
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == telemetry.HistImageScan {
			hist = &snap.Histograms[i]
		}
	}
	if hist == nil {
		t.Fatalf("no %s histogram in snapshot", telemetry.HistImageScan)
	}
	if hist.Count != 5 {
		t.Fatalf("scan latency samples = %d, want 5", hist.Count)
	}
	if hist.P50 <= 0 || hist.P99 <= 0 || hist.P99 > hist.Max {
		t.Fatalf("degenerate quantiles: p50=%v p99=%v max=%v", hist.P50, hist.P99, hist.Max)
	}

	var rootID int64
	for _, sp := range snap.Spans {
		if sp.Name == "scan.batch" {
			rootID = sp.ID
		}
	}
	if rootID == 0 {
		t.Fatalf("no scan.batch root span; spans = %+v", snap.Spans)
	}
	workers := 0
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "scan.worker":
			workers++
			if sp.Parent != rootID {
				t.Fatalf("worker span parent = %d, want %d", sp.Parent, rootID)
			}
		case "scan.batch":
		default:
			t.Fatalf("unexpected span %q: the batch records only the root and worker spans", sp.Name)
		}
	}
	if workers != 2 {
		t.Fatalf("worker spans = %d, want 2", workers)
	}
}

// TestEngineRequiresCheck pins the misuse error: a scan engine with no
// Check function refuses to run.
func TestEngineRequiresCheck(t *testing.T) {
	coord := &fleet.Coordinator{}
	if _, err := coord.Run(context.Background(), &fleet.ImageSource{}, func(int, scan.Item) {}); err == nil {
		t.Fatal("engine without Check should error")
	}
}

// memNotifier captures delivered alerts for assertions.
type memNotifier struct {
	mu  sync.Mutex
	got []alert.Alert
}

func (m *memNotifier) Name() string { return "mem" }

func (m *memNotifier) Notify(a *alert.Alert) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.got = append(m.got, *a)
	return nil
}

func (m *memNotifier) alerts() []alert.Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]alert.Alert(nil), m.got...)
}

// TestScanPublishesAlerts: every warning a batch scan emits must reach
// the alert pipeline carrying the batch request ID (generated when the
// caller supplies none) and the plan-version provenance.
func TestScanPublishesAlerts(t *testing.T) {
	fw, k, targets := testFleet(t, 3, -1)
	if _, err := inject.New(7).Inject(targets[0], "mysql", 5); err != nil {
		t.Fatal(err)
	}

	mem := &memNotifier{}
	pipe, err := alert.NewPipeline(alert.Options{Notifiers: []alert.Notifier{mem}})
	if err != nil {
		t.Fatal(err)
	}
	plan := fw.CompilePlan(k)
	coord := fw.ScanEngine(plan)
	coord.Opts.Alerts = pipe
	coord.Opts.PlanVersion = "plan:test.plan"
	res := collect(t, coord, targets)
	if err := pipe.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	warnings := 0
	for _, it := range res.Items {
		if it.Report != nil {
			warnings += len(it.Report.Warnings)
		}
	}
	if warnings == 0 {
		t.Fatal("injected fleet produced no warnings")
	}
	got := mem.alerts()
	if len(got) != warnings {
		t.Fatalf("notifier saw %d alerts, want %d", len(got), warnings)
	}
	reqID := got[0].RequestID
	if !strings.HasPrefix(reqID, "scan-") {
		t.Fatalf("generated batch request id = %q, want scan- prefix", reqID)
	}
	for _, a := range got {
		if a.RequestID != reqID {
			t.Fatalf("request id not shared across the batch: %q vs %q", a.RequestID, reqID)
		}
		if a.PlanVersion != "plan:test.plan" || a.App == "" || a.Severity == "" {
			t.Fatalf("alert provenance wrong: %+v", a)
		}
	}
	if s := pipe.Stats(); s.Published != int64(warnings) || s.Delivered != int64(warnings) {
		t.Fatalf("pipeline stats = %+v, want %d published and delivered", s, warnings)
	}

	// An explicit request ID flows through unchanged.
	mem2 := &memNotifier{}
	pipe2, err := alert.NewPipeline(alert.Options{Notifiers: []alert.Notifier{mem2}})
	if err != nil {
		t.Fatal(err)
	}
	coord2 := fw.ScanEngine(plan)
	coord2.Opts.Alerts = pipe2
	coord2.Opts.RequestID = "batch-42"
	collect(t, coord2, targets)
	if err := pipe2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, a := range mem2.alerts() {
		if a.RequestID != "batch-42" {
			t.Fatalf("explicit request id lost: %+v", a)
		}
	}
}
