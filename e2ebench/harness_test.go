package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	encore "repro"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	v, pct := tail(xs)
	// Exactly ten samples (91..100) lie above 90; 91 would have nine.
	if v != 90 || pct != "p90" {
		t.Fatalf("tail of 1..100 = %v at %s, want 90 at p90", v, pct)
	}
	v, pct = tail(xs[:11]) // 100..90
	if v != 90 || pct != "p9.091" {
		t.Fatalf("tail of 11 samples = %v at %s, want the smallest at p9.091", v, pct)
	}
	if v, pct = tail([]float64{3, 1, 2}); v != 3 || pct != "max" {
		t.Fatalf("tail of 3 samples = %v at %s, want the maximum", v, pct)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5].
	q1, m, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v", q1, m, q3)
	}
	q1, m, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || m != 2 || q3 != 3.5 {
		t.Fatalf("quartiles(3,1) = %v %v %v", q1, m, q3)
	}
}

// TestOpenLoopTimesFromDue sends a burst that a single slow connection
// must queue: each request's latency has to include the wait behind the
// ones before it, because it is timed from when it was due.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service = 5 * time.Millisecond
	jobs := make([]job, 6)
	for i := range jobs {
		jobs[i] = job{Seq: i} // all due at once
	}
	loop := &openLoop{conns: 1, send: func(_, _ int) error {
		time.Sleep(service)
		return nil
	}}
	res := loop.run(jobs)
	for i, lat := range res.Latency {
		if min := ms(time.Duration(i+1) * service); lat < min {
			t.Errorf("request %d: latency %.2f ms, want at least %.2f ms (its own service plus the queue ahead)", i, lat, min)
		}
	}
	if res.Backlog == 0 {
		t.Errorf("backlog 0 at the end of a burst on one busy connection")
	}
}

// TestOpenLoopReportsGeneratorLateness makes the generator oversleep and
// checks that the lateness is reported and charged to latency.
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	const over = 4 * time.Millisecond
	jobs := []job{{Seq: 0, Due: 2 * time.Millisecond}, {Seq: 1, Due: 30 * time.Millisecond}}
	loop := &openLoop{conns: 2,
		send:  func(_, _ int) error { return nil },
		sleep: func(d time.Duration) { time.Sleep(d + over) },
	}
	res := loop.run(jobs)
	for i := range jobs {
		if res.Late[i] < ms(over) {
			t.Errorf("job %d: lateness %.2f ms, want at least %.2f ms", i, res.Late[i], ms(over))
		}
		if res.Latency[i] < res.Late[i] {
			t.Errorf("job %d: latency %.2f ms below its lateness %.2f ms", i, res.Latency[i], res.Late[i])
		}
	}
}

func TestOpenLoopCountsFailuresAsMissingEveryLimit(t *testing.T) {
	var n atomic.Int32
	loop := &openLoop{conns: 2, send: func(_, seq int) error {
		n.Add(1)
		if seq == 1 {
			return os.ErrDeadlineExceeded
		}
		return nil
	}}
	res := loop.run([]job{{Seq: 0}, {Seq: 1}, {Seq: 2}})
	if res.Failed != 1 || !math.IsInf(res.Latency[1], 1) || n.Load() != 3 {
		t.Fatalf("failed=%d latency[1]=%v sends=%d", res.Failed, res.Latency[1], n.Load())
	}
}

// smallPlan learns a plan from a small mysql population.
func smallPlan(t *testing.T) *detect.Plan {
	t.Helper()
	imgs, err := corpus.Training("mysql", 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	fw := encore.New()
	k, err := fw.Learn(imgs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fw.LoadPlan(fw.MarshalPlan(fw.CompilePlan(k)))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// victimBody generates one injected mysql victim.
func victimBody(t *testing.T) []byte {
	t.Helper()
	vs, err := writeVictims(t.TempDir(), "mysql", Shape{Victims: 1, VictimErrors: 2}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return vs[0].Body
}

func TestCorruptedServeReportTripsCheck(t *testing.T) {
	plan := smallPlan(t)
	wire, rep, err := expectedReport(plan, victimBody(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) == 0 {
		t.Fatal("victim has no findings; the check would compare empty reports")
	}
	sm := &serveMixed{}
	sm.want[0] = map[string][][]byte{"mysql": {wire}}
	sm.want[1] = map[string][][]byte{"mysql": {wire}}
	spec := reqSpec{kind: kindScan, app: "mysql"}
	if err := sm.checkReply(spec, scanReply{PlanVersion: "v1", Report: wire}); err != nil {
		t.Fatalf("faithful reply rejected: %v", err)
	}
	corrupt := bytes.Replace(wire, []byte(`"rank":1`), []byte(`"rank":2`), 1)
	if bytes.Equal(corrupt, wire) {
		t.Fatal("corruption did not change the report")
	}
	if err := sm.checkReply(spec, scanReply{PlanVersion: "b-3", Report: corrupt}); err == nil {
		t.Fatal("corrupted report passed the check")
	}
	if err := sm.checkReply(spec, scanReply{PlanVersion: "v9", Report: wire}); err == nil {
		t.Fatal("reply claiming an unknown plan version passed the check")
	}
}

func TestCorruptedCLILineTripsCheck(t *testing.T) {
	plan := smallPlan(t)
	img, err := sysimage.LoadJSON(victimBody(t))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Check(img)
	if err != nil {
		t.Fatal(err)
	}
	// The two lines `encore scan` prints per image, then its summary.
	out := fmt.Sprintf("%-28s %3d warnings (corr 0, type 0, name 0, value 0)\n%-28s     top: %s\n\nscanned 1 images\n",
		img.ID, len(rep.Warnings), "", rep.Top().Message)
	got := parseScan([]byte(out))[img.ID]
	if msg := compareCLI(got, rep); msg != "" {
		t.Fatalf("faithful CLI output rejected: %s", msg)
	}
	got.top = "something else"
	if compareCLI(got, rep) == "" {
		t.Fatal("wrong top finding passed the check")
	}
	got.top, got.warnings = rep.Top().Message, got.warnings+1
	if compareCLI(got, rep) == "" {
		t.Fatal("wrong finding count passed the check")
	}
}

func TestDifferentPlanBytesTripCheck(t *testing.T) {
	lp := &learnPaper{res: &Result{}, ref: map[string][]byte{}}
	lp.checkPlan("php", []byte("ENCP-one"))
	lp.checkPlan("php", []byte("ENCP-one"))
	if len(lp.res.Problems) != 0 {
		t.Fatalf("identical plans flagged: %v", lp.res.Problems)
	}
	lp.checkPlan("php", []byte("ENCP-two"))
	if len(lp.res.Problems) != 1 {
		t.Fatal("differing plan bytes passed the check")
	}
}

// TestSeedChangesInputsOnly generates every input set at two seeds: the
// file names, counts and shape must be identical and the contents must
// differ; the same seed must reproduce the same bytes.
func TestSeedChangesInputsOnly(t *testing.T) {
	sh := Shape{
		Training:  map[string]int{"apache": 6, "mysql": 6, "php": 6},
		DeltaPool: 3, Victims: 3, VictimErrors: 2,
		Fleet: 20, FleetDefectEvery: 10, Changed: 2, SwapAdds: 1,
	}
	all := parts{training: true, delta: true, victims: true, fleet: true}
	gen := func(seed int64) (*Inputs, map[string][]byte) {
		dir := t.TempDir()
		in, err := generate(dir, seed, sh, all)
		if err != nil {
			t.Fatal(err)
		}
		return in, readTree(t, dir)
	}
	a, filesA := gen(1)
	b, filesB := gen(2)
	_, filesA2 := gen(1)
	if !reflect.DeepEqual(a.Shape, b.Shape) {
		t.Fatal("shape depends on the seed")
	}
	if !reflect.DeepEqual(keys(filesA), keys(filesB)) {
		t.Fatalf("file sets differ between seeds:\n%v\n%v", keys(filesA), keys(filesB))
	}
	if len(a.FleetDefects) != len(b.FleetDefects) || len(a.FleetDefects) != 3*sh.Fleet/sh.FleetDefectEvery {
		t.Fatalf("defect counts %d and %d, want %d", len(a.FleetDefects), len(b.FleetDefects), 3*sh.Fleet/sh.FleetDefectEvery)
	}
	same := 0
	for name, data := range filesA {
		if bytes.Equal(data, filesB[name]) {
			same++
		}
		if !bytes.Equal(data, filesA2[name]) {
			t.Fatalf("%s differs between two generations at one seed", name)
		}
	}
	if same > len(filesA)/10 {
		t.Fatalf("%d of %d files identical across seeds", same, len(filesA))
	}
}

func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		rel, _ := filepath.Rel(dir, p)
		out[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func keys(m map[string][]byte) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []telemetry.SpanData{
		{ID: 1, Name: "pass", Start: 0, Dur: 10 * ms},
		{ID: 2, Parent: 1, Name: "check", Start: 1 * ms, Dur: 4 * ms},
		{ID: 3, Parent: 1, Name: "check", Start: 3 * ms, Dur: 4 * ms}, // overlaps the first
		{ID: 4, Parent: 1, Name: "check", Start: 9 * ms, Dur: 3 * ms}, // runs past the parent
	}
	st := selfTimes(spans)
	// Children cover [1,7] and [9,10] inside the parent: 7 ms.
	if got := st["pass"].Self; got != 3*ms {
		t.Fatalf("pass self time %v, want 3ms", got)
	}
	if got := st["check"]; got.Count != 3 || got.Self != 11*ms {
		t.Fatalf("check stats %+v", got)
	}
}

func TestComparatorRule(t *testing.T) {
	d := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 101}
	if v := judgeMetric("w", d, parent, faster); v.Outcome != "gain" || v.Wins != 9 {
		t.Fatalf("9/10 wins by a wide margin: %+v", v)
	}
	slower := []float64{140, 141, 139, 140, 142, 138, 140, 141, 139, 140}
	if v := judgeMetric("w", d, parent, slower); v.Outcome != "regression" {
		t.Fatalf("40%% slower: %+v", v)
	}
	same := []float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}
	if v := judgeMetric("w", d, parent, same); v.Outcome != "no change within bound" {
		t.Fatalf("same figures: %+v", v)
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 55, 145, 65, 135}
	if v := judgeMetric("w", d, parent, noisy); !strings.HasPrefix(v.Outcome, "unresolved") {
		t.Fatalf("spread above the bound: %+v", v)
	}
	// Pairs are matched by (workload, seed) and every workload is its own row.
	as := []sample{{"a", 1, map[string]float64{"op_p50_ms": 10}}, {"b", 1, map[string]float64{"op_p50_ms": 20}}}
	bs := []sample{{"b", 1, map[string]float64{"op_p50_ms": 21}}, {"a", 1, map[string]float64{"op_p50_ms": 9}}}
	vs := compareSets(as, bs, []metricDef{d})
	if len(vs) != 2 || vs[0].Workload != "a" || vs[0].ChgMed != 9 || vs[1].ChgMed != 21 {
		t.Fatalf("pairing: %+v", vs)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the harness's metric catalog and
// the repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nharness        %+v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nharness        %+v", bench.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, harness runs %d workloads", names, len(workloads))
	}
	// workloads.json carries the per-workload record BENCHMARK.json has
	// no room for.
	data, err = os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var record map[string]struct {
		Why, Loop          string
		RateOrClients      string `json:"rate_or_clients"`
		Stresses, Bypasses []string
		BenchFamilies      map[string]string `json:"bench_families"`
	}
	if err := json.Unmarshal(data, &record); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		r, ok := record[name]
		if !ok || r.Why == "" || r.Loop == "" || r.RateOrClients == "" || len(r.Stresses) == 0 || len(r.Bypasses) == 0 || len(r.BenchFamilies) == 0 {
			t.Errorf("workloads.json record for %s is missing or incomplete: %+v", name, r)
		}
	}
}
