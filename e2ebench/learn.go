package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	encore "repro"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/planio"
	"repro/internal/rules"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// runLearnPaper drives learn-paper. The learner runs in a child process
// (this binary in learn-child mode) calling the root encore package, so
// its CPU and peak RSS are the learner's alone, not input generation's.
func runLearnPaper(cfg Config) (*Result, error) {
	in, err := generate(cfg.Work, cfg.Seed, defaultShape, parts{training: true, delta: true, victims: true})
	if err != nil {
		return nil, err
	}
	inputs := filepath.Join(cfg.Work, "inputs.json")
	if err := writeJSON(inputs, in); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := programCmd(self, "learn-child", "-inputs", inputs,
		"-seconds", fmt.Sprint(cfg.Seconds), "-trace", fmt.Sprint(boolInt(cfg.Trace)))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("learner: %w", err)
	}
	var res Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("learner output: %w", err)
	}
	if !cfg.Trace {
		res.Metrics["peak_rss_mb"] = single(maxRSSMB(cmd.ProcessState), "MB")
	}
	return &res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// maxRSSMB is a finished child's peak resident set in MiB.
func maxRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// learner holds one population's learned state between a learn op and
// the delta op that follows it. The Framework path keeps it in
// encore.Knowledge; the traced path calls the layers itself and keeps the
// same pieces here.
type learner struct {
	app   string
	fw    *encore.Framework
	k     *encore.Knowledge
	ds    *dataset.Dataset
	byID  map[string]*sysimage.Image
	rules []*rules.Rule
	state rules.InferState
	ids   []string // training image IDs in file order
}

// learnChild is the learner process: warm-up ops, then the measured loop
// of learn ops each followed by a delta op, then the recall probe. It
// prints a Result as JSON.
func learnChild(args []string) error {
	fset := flag.NewFlagSet("learn-child", flag.ContinueOnError)
	inputsPath := fset.String("inputs", "", "inputs.json written by the parent")
	seconds := fset.Float64("seconds", 30, "measured seconds")
	trace := fset.Int("trace", 0, "1 measures the traced layer breakdown")
	if err := fset.Parse(args); err != nil {
		return err
	}
	data, err := os.ReadFile(*inputsPath)
	if err != nil {
		return err
	}
	var in Inputs
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	res := &Result{Metrics: map[string]Summary{}}
	lp := &learnPaper{in: &in, res: res, ref: map[string][]byte{}}

	var setup []float64
	var warm map[string]*learner
	// Set-up is the untimed warm-up learn op, repeated; setup_s is the
	// median.
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		ls, err := lp.learnOp(nil, "")
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
		warm = ls
	}
	res.Metrics["setup_s"] = summarize(setup, "s")

	if *trace == 1 {
		return lp.traced(*seconds, warm)
	}
	ph := lp.measure(*seconds, nil)
	res.Metrics["op_p50_ms"] = summarize(ph.learn, "ms")
	res.Metrics["op_tail_ms"] = summarizeTail(ph.learn, "ms")
	res.Metrics["update_p50_ms"] = summarize(ph.delta, "ms")
	imgs := float64(lp.imagesPerOp())
	var rates, cpu []float64
	for i, ms := range ph.learn {
		rates = append(rates, imgs/(ms/1e3))
		cpu = append(cpu, ph.cpu[i]/imgs)
	}
	res.Metrics["items_per_s"] = summarize(rates, "1/s")
	res.Metrics["cpu_us_per_item"] = summarize(cpu, "us")
	hits, total := lp.recall(warm)
	res.Metrics["detect_recall"] = single(ratio(hits, total), "ratio")
	res.Metrics["ok_ratio"] = single(1-ratio(res.Failed, res.Attempted), "ratio")
	res.Notes = append(res.Notes,
		"learn-paper: op = learn 3 populations (learn_p50_ms/learn_tail_ms), update = delta op (delta_p50_ms)",
		fmt.Sprintf("learn-paper: %d learn ops, %d delta ops, %d training images per op, recall %d/%d injected errors",
			len(ph.learn), len(ph.delta), int(imgs), hits, total))
	return json.NewEncoder(os.Stdout).Encode(res)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type learnPaper struct {
	in  *Inputs
	res *Result
	// ref holds each population's plan bytes from the first learn; every
	// later learn of the same population must reproduce them exactly.
	ref map[string][]byte
}

func (lp *learnPaper) imagesPerOp() int {
	n := 0
	for _, app := range apps {
		n += lp.in.Shape.Training[app]
	}
	return n
}

// phase is one measured loop's samples.
type phase struct {
	learn, delta []float64 // ms
	cpu          []float64 // learn-op CPU, µs
}

// measure alternates learn and delta ops for seconds. A nil recorder runs
// the Framework path; a live one runs the traced layer path.
func (lp *learnPaper) measure(seconds float64, tr *telemetry.Recorder) phase {
	var ph phase
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for op := 0; time.Now().Before(deadline); op++ {
		req := fmt.Sprintf("op-%d", op)
		c0, t0 := cpuTime(), time.Now()
		lp.res.Attempted++
		ls, err := lp.learnOp(tr, req)
		if err != nil {
			lp.res.Failed++
			lp.res.problem("learn op %d: %v", op, err)
			continue
		}
		ph.learn = append(ph.learn, ms(time.Since(t0)))
		ph.cpu = append(ph.cpu, float64(cpuTime()-c0)/1e3)
		t1 := time.Now()
		lp.res.Attempted++
		if err := lp.deltaOp(tr, req, ls, op); err != nil {
			lp.res.Failed++
			lp.res.problem("delta op %d: %v", op, err)
			continue
		}
		ph.delta = append(ph.delta, ms(time.Since(t1)))
	}
	return ph
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// learnOp learns a plan for each population read from disk and encodes
// it. Untraced (tr == nil) it goes through Framework.Learn, CompilePlan
// and MarshalPlan; traced, it calls the same layers one by one inside
// spans. Either way the plan bytes must equal the first learn's.
func (lp *learnPaper) learnOp(tr *telemetry.Recorder, req string) (map[string]*learner, error) {
	out := map[string]*learner{}
	var op *telemetry.Span
	if tr != nil {
		op = root(tr, "learn.op", req)
		defer op.End()
	}
	for _, app := range apps {
		l := &learner{app: app, fw: encore.New()}
		var plan []byte
		var err error
		if tr == nil {
			plan, err = l.learnFramework(lp.in.TrainDir[app])
		} else {
			plan, err = l.learnTraced(op, req, lp.in.TrainDir[app])
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app, err)
		}
		lp.checkPlan(app, plan)
		out[app] = l
	}
	return out, nil
}

func (lp *learnPaper) checkPlan(app string, plan []byte) {
	if ref, ok := lp.ref[app]; !ok {
		lp.ref[app] = plan
	} else if !bytes.Equal(ref, plan) {
		lp.res.problem("%s: plan bytes differ between learns of one population (%d vs %d bytes)", app, len(ref), len(plan))
	}
}

func (l *learner) learnFramework(dir string) ([]byte, error) {
	imgs, err := sysimage.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	if l.k, err = l.fw.Learn(imgs); err != nil {
		return nil, err
	}
	l.ids = imageIDs(imgs)
	return l.fw.MarshalPlan(l.fw.CompilePlan(l.k)), nil
}

func imageIDs(imgs []*sysimage.Image) []string {
	ids := make([]string, len(imgs))
	for i, im := range imgs {
		ids[i] = im.ID
	}
	return ids
}

// learnTraced is Framework.Learn + CompilePlan + MarshalPlan spelled out
// layer by layer, each call inside its own span.
func (l *learner) learnTraced(op *telemetry.Span, req, dir string) ([]byte, error) {
	pop := child(op, "learn.population", req)
	defer pop.End()
	imgs, err := readImages(pop, req, jsonFiles(dir))
	if err != nil {
		return nil, err
	}
	sp := child(pop, "assemble.training", req)
	l.ds, err = l.fw.Assembler.AssembleTraining(imgs)
	sp.End()
	if err != nil {
		return nil, err
	}
	l.byID = make(map[string]*sysimage.Image, len(imgs))
	for _, im := range imgs {
		l.byID[im.ID] = im
	}
	l.ids = imageIDs(imgs)
	sp = child(pop, "rules.infer", req)
	l.rules = l.fw.Engine.InferWithState(l.ds, l.byID, &l.state)
	sp.End()
	return l.compileEncode(pop, req), nil
}

func (l *learner) compileEncode(parent *telemetry.Span, req string) []byte {
	sp := child(parent, "detect.compile", req)
	dt := detect.New(l.ds, l.rules)
	dt.Assembler = l.fw.Assembler
	dt.Templates = l.fw.Engine.Templates
	plan := dt.Compile()
	sp.End()
	sp = child(parent, "planio.encode", req)
	data := planio.Encode(plan.Spec())
	sp.End()
	return data
}

// readImages reads and decodes files, one span each for the read and the
// decode — what sysimage.LoadDir does in one call.
func readImages(parent *telemetry.Span, req string, files []string) ([]*sysimage.Image, error) {
	imgs := make([]*sysimage.Image, 0, len(files))
	for _, f := range files {
		sp := child(parent, "sysimage.read", req)
		data, err := os.ReadFile(f)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = child(parent, "sysimage.decode", req)
		im, err := sysimage.LoadJSON(data)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		imgs = append(imgs, im)
	}
	return imgs, nil
}

// jsonFiles lists dir's *.json files in name order (LoadDir's order).
func jsonFiles(dir string) []string {
	ents, _ := os.ReadDir(dir) // a missing directory yields no files and fails later
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out
}

// deltaOp adds two fresh images to each population learned by the
// preceding learn op, retires two of its training images, then
// recompiles and re-encodes the plan.
func (lp *learnPaper) deltaOp(tr *telemetry.Recorder, req string, ls map[string]*learner, op int) error {
	var span *telemetry.Span
	if tr != nil {
		span = root(tr, "delta.op", req)
		defer span.End()
	}
	for _, app := range apps {
		l := ls[app]
		pool := jsonFiles(lp.in.DeltaDir[app])
		if len(pool) < 2 {
			return fmt.Errorf("%s: delta pool has %d images", app, len(pool))
		}
		add := []string{pool[(2*op)%len(pool)], pool[(2*op+1)%len(pool)]}
		retire := []string{l.ids[(2*op)%len(l.ids)], l.ids[(2*op+1)%len(l.ids)]}
		var err error
		if tr == nil {
			err = l.deltaFramework(add, retire)
		} else {
			err = l.deltaTraced(span, req, add, retire)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", app, err)
		}
	}
	return nil
}

func (l *learner) deltaFramework(add, retire []string) error {
	imgs := make([]*sysimage.Image, 0, len(add))
	for _, f := range add {
		im, err := sysimage.LoadFile(f)
		if err != nil {
			return err
		}
		imgs = append(imgs, im)
	}
	if err := l.fw.AddImages(l.k, imgs...); err != nil {
		return err
	}
	if err := l.fw.RetireImages(l.k, retire...); err != nil {
		return err
	}
	l.fw.MarshalPlan(l.fw.CompilePlan(l.k))
	return nil
}

// deltaTraced is AddImages + RetireImages + CompilePlan + MarshalPlan
// spelled out layer by layer.
func (l *learner) deltaTraced(root *telemetry.Span, req string, add, retire []string) error {
	pop := child(root, "delta.population", req)
	defer pop.End()
	imgs, err := readImages(pop, req, add)
	if err != nil {
		return err
	}
	sp := child(pop, "assemble.delta", req)
	added, err := l.fw.Assembler.AssembleDeltaRows(l.ds, imgs)
	if err == nil {
		l.ds.AddRows(added...)
	}
	sp.End()
	if err != nil {
		return err
	}
	for _, im := range imgs {
		l.byID[im.ID] = im
	}
	sp = child(pop, "rules.infer_delta", req)
	l.rules = l.fw.Engine.InferDelta(l.ds, l.byID, &l.state, added, nil)
	sp.End()
	sp = child(pop, "assemble.delta", req)
	retired := l.ds.RetireRows(retire...)
	sp.End()
	sp = child(pop, "rules.infer_delta", req)
	l.rules = l.fw.Engine.InferDelta(l.ds, l.byID, &l.state, nil, retired)
	sp.End()
	for _, row := range retired {
		delete(l.byID, row.SystemID)
	}
	l.compileEncode(pop, req)
	return nil
}

// recall checks the victim pool against the plans learned in warm-up
// and counts injected errors whose attribute some warning flags.
func (lp *learnPaper) recall(ls map[string]*learner) (hits, total int) {
	for _, app := range apps {
		plan := ls[app].fw.CompilePlan(ls[app].k)
		for _, v := range lp.in.Victims[app] {
			img, err := sysimage.LoadFile(v.Path)
			if err != nil {
				lp.res.problem("recall probe: %v", err)
				continue
			}
			rep, err := plan.Check(img)
			if err != nil {
				lp.res.problem("recall probe: %v", err)
				continue
			}
			h, t := judge(v, rep)
			hits += h
			total += t
		}
	}
	return hits, total
}

// judge counts the victim's injected errors and how many of them a
// warning of rep flags.
func judge(v Victim, rep *detect.Report) (hits, total int) {
	for _, in := range v.Injections {
		total++
		for _, w := range rep.Warnings {
			if in.Matches(w.Attr) {
				hits++
				break
			}
		}
	}
	return hits, total
}

// traced runs the per-layer breakdown: half the time untraced through
// the Framework, half traced layer by layer, and reports each layer's
// self time, counts and the tracing overhead.
func (lp *learnPaper) traced(seconds float64, warm map[string]*learner) error {
	res := lp.res
	plain := lp.measure(seconds/2, nil)
	tr := newRecorder(true)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := lp.measure(seconds/2, tr)
	runtime.ReadMemStats(&m1)
	ops := float64(len(ph.learn))
	if ops == 0 {
		return fmt.Errorf("no traced learn op completed")
	}
	st := selfTimes(tr.Snapshot().Spans)
	pops := float64(st["learn.population"].Count)
	deltaPops := float64(st["delta.population"].Count)
	perPop := func(name string, n float64, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(st[name].Self) / n / float64(unit)
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = single(v, unit) }
	put("sysimage.read_us", meanSelf(st, "sysimage.read", time.Microsecond), "us")
	put("sysimage.decode_us", meanSelf(st, "sysimage.decode", time.Microsecond), "us")
	put("assemble.training_ms", perPop("assemble.training", pops, time.Millisecond), "ms")
	put("rules.infer_ms", perPop("rules.infer", pops, time.Millisecond), "ms")
	put("assemble.delta_ms", perPop("assemble.delta", deltaPops, time.Millisecond), "ms")
	put("rules.infer_delta_ms", perPop("rules.infer_delta", deltaPops, time.Millisecond), "ms")
	put("detect.compile_ms", meanSelf(st, "detect.compile", time.Millisecond), "ms")
	put("planio.encode_us", meanSelf(st, "planio.encode", time.Microsecond), "us")
	put("learn.op_self_ms", meanSelf(st, "learn.op", time.Millisecond)+perPop("learn.population", float64(st["learn.op"].Count), time.Millisecond), "ms")
	put("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC)/ops, "count/op")
	put("runtime.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/ops/(1<<20), "MB")
	put("trace.overhead_pct", overheadPct(plain.learn, ph.learn), "%")

	// Counts: the candidate search space and the rules kept, summed over
	// the three populations, and the plan size.
	var cands, kept, planBytes int
	for _, app := range apps {
		l := warm[app]
		cands += l.fw.Engine.CandidateCount(l.k.Training)
		kept += len(l.k.Rules)
		planBytes += len(lp.ref[app])
	}
	put("rules.candidates", float64(cands), "count")
	put("rules.kept", float64(kept), "count")
	put("rules.kept_ratio", ratio(kept, cands), "ratio")
	put("planio.plan_bytes", float64(planBytes)/float64(len(apps)), "bytes")

	files := jsonFiles(lp.in.TrainDir["mysql"])
	allocs, size, err := decodeAllocs(files)
	if err != nil {
		return err
	}
	put("sysimage.decode_allocs", allocs, "count")
	put("sysimage.bytes_per_image", size, "bytes")
	res.Notes = append(res.Notes,
		fmt.Sprintf("learn-paper traced: %d traced ops against %d untraced; rules.kept_ratio = %d kept / %d candidates",
			len(ph.learn), len(plain.learn), kept, cands))
	if err := writeTrace(tr, filepath.Dir(lp.in.Dir), "learn-paper"); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// overheadPct is the traced median against the untraced one, in percent.
func overheadPct(plain, traced []float64) float64 {
	p, t := median(sortedCopy(plain)), median(sortedCopy(traced))
	if p == 0 {
		return 0
	}
	return 100 * (t - p) / p
}

// decodeAllocs decodes up to 64 of files on this goroutine alone and
// returns the mean allocations per decode (runtime.MemStats deltas) and
// the mean encoded size.
func decodeAllocs(files []string) (allocs, size float64, err error) {
	if len(files) > 64 {
		files = files[:64]
	}
	bodies := make([][]byte, len(files))
	for i, f := range files {
		if bodies[i], err = os.ReadFile(f); err != nil {
			return 0, 0, err
		}
		size += float64(len(bodies[i]))
	}
	allocs, err = allocsPer(len(bodies), func(i int) error {
		_, err := sysimage.LoadJSON(bodies[i])
		return err
	})
	return allocs, size / float64(len(bodies)), err
}

// allocsPer runs fn(0..n-1) on this goroutine and returns the mean heap
// allocations per call.
func allocsPer(n int, fn func(i int) error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}
