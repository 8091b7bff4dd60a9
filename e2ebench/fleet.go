package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	encore "repro"
	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// fleetShards is the -shards value: one per core.
var fleetShards = runtime.NumCPU()

// runFleetDisk drives fleet-disk: `encore compile` builds each app's
// plan (set-up), then `encore scan -plan -targets -shards` passes over
// each app's fleet directory alternate with scans of a small batch of
// changed images until the time is up.
func runFleetDisk(cfg Config) (*Result, error) {
	in, err := generate(cfg.Work, cfg.Seed, defaultShape, parts{training: true, fleet: true})
	if err != nil {
		return nil, err
	}
	res := &Result{Metrics: map[string]Summary{}}
	fd := &fleetDisk{cfg: cfg, in: in, res: res, plans: map[string][]byte{}}
	var setup []float64
	for i := 0; i < setupReps; i++ {
		d, err := fd.compilePlans()
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
	}
	res.Metrics["setup_s"] = summarize(setup, "s")
	if cfg.Trace {
		return res, fd.traced()
	}
	return res, fd.measure()
}

type fleetDisk struct {
	cfg   Config
	in    *Inputs
	res   *Result
	plans map[string][]byte // app -> plan bytes from the first compile
}

func (fd *fleetDisk) planPath(app string) string {
	return filepath.Join(fd.cfg.Work, "plans", app+".plan")
}

// compilePlans runs `encore compile` for every app and returns the total
// wall time. Every compile of one app must produce the same bytes.
func (fd *fleetDisk) compilePlans() (time.Duration, error) {
	if err := os.MkdirAll(filepath.Join(fd.cfg.Work, "plans"), 0o755); err != nil {
		return 0, err
	}
	var total time.Duration
	for _, app := range apps {
		cmd := programCmd(fd.cfg.Encore, "compile", "-training", fd.in.TrainDir[app], "-plan-out", fd.planPath(app))
		start := time.Now()
		out, err := cmd.CombinedOutput()
		total += time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("encore compile %s: %v: %s", app, err, out)
		}
		data, err := os.ReadFile(fd.planPath(app))
		if err != nil {
			return 0, err
		}
		if ref, ok := fd.plans[app]; !ok {
			fd.plans[app] = data
		} else if !bytes.Equal(ref, data) {
			fd.res.problem("%s: encore compile wrote different plan bytes for the same training set", app)
		}
	}
	return total, nil
}

// cliRun is one finished `encore scan`.
type cliRun struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	stdout []byte
}

func (fd *fleetDisk) scan(app, dir string) (cliRun, error) {
	cmd := programCmd(fd.cfg.Encore, "scan", "-plan", fd.planPath(app), "-targets", dir,
		"-shards", strconv.Itoa(fleetShards), "-min-warnings", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(start), stdout: stdout.Bytes()}
	if err != nil {
		return r, fmt.Errorf("encore scan %s: %v: %s", dir, err, stderr.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	r.rssMB = maxRSSMB(cmd.ProcessState)
	return r, nil
}

// measure runs whole rounds — a full-fleet pass and a changed-batch scan
// per app — until the time is up, then checks the outputs.
func (fd *fleetDisk) measure() error {
	res := fd.res
	var roundMs, changedMs, rates, cpuPer, rss []float64
	first := map[string][]byte{} // each app's first pass output
	deadline := time.Now().Add(time.Duration(fd.cfg.Seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		var wall, cpu time.Duration
		round := time.Now()
		images := 0
		for _, app := range apps {
			res.Attempted++
			r, err := fd.scan(app, fd.in.FleetDir[app])
			if err != nil {
				res.Failed++
				res.problem("%v", err)
				continue
			}
			if ref, ok := first[app]; !ok {
				first[app] = r.stdout
			} else if !bytes.Equal(ref, r.stdout) {
				res.Failed++
				res.problem("%s: fleet pass output differs from the first pass", app)
			}
			rss = append(rss, r.rssMB)
			wall += r.wall
			cpu += r.cpu
			images += fd.in.Shape.Fleet

			res.Attempted++
			c, err := fd.scan(app, fd.in.ChangedDir[app])
			if err != nil {
				res.Failed++
				res.problem("%v", err)
				continue
			}
			changedMs = append(changedMs, ms(c.wall))
		}
		if images == len(apps)*fd.in.Shape.Fleet {
			roundMs = append(roundMs, ms(time.Since(round)))
			rates = append(rates, float64(images)/wall.Seconds())
			cpuPer = append(cpuPer, float64(cpu.Microseconds())/float64(images))
		}
	}
	hits, total := 0, 0
	for _, app := range apps {
		h, t, err := fd.verify(app, first[app])
		if err != nil {
			return err
		}
		hits += h
		total += t
	}
	res.Metrics["op_p50_ms"] = summarize(roundMs, "ms")
	res.Metrics["op_tail_ms"] = summarizeTail(roundMs, "ms")
	res.Metrics["update_p50_ms"] = summarize(changedMs, "ms")
	res.Metrics["items_per_s"] = summarize(rates, "1/s")
	res.Metrics["cpu_us_per_item"] = summarize(cpuPer, "us")
	res.Metrics["peak_rss_mb"] = summarize(rss, "MB")
	res.Metrics["detect_recall"] = single(ratio(hits, total), "ratio")
	res.Metrics["ok_ratio"] = single(1-ratio(res.Failed, res.Attempted), "ratio")
	res.Notes = append(res.Notes,
		fmt.Sprintf("fleet-disk: op = one round, scanning every app's fleet of %d images and then its %d changed images; update = one changed-batch scan", fd.in.Shape.Fleet, fd.in.Shape.Changed),
		fmt.Sprintf("fleet-disk: items_per_s = fleet_images_per_s, cpu_us_per_item = fleet_cpu_us_per_image, peak_rss_mb = fleet_peak_rss_mb; %d rounds, recall %d/%d injected errors", len(rates), hits, total))
	return nil
}

// cliItem is one image's line pair in `encore scan` output.
type cliItem struct {
	warnings int
	top      string
}

// parseScan reads the per-image lines of `encore scan -min-warnings 0`:
// "<id> <n> warnings (...)" optionally followed by "     top: <message>".
func parseScan(out []byte) map[string]cliItem {
	items := map[string]cliItem{}
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			break // the fleet summary follows
		}
		if i := strings.Index(line, "     top: "); i >= 0 && strings.TrimSpace(line[:i]) == "" {
			if it, ok := items[last]; ok {
				it.top = line[i+len("     top: "):]
				items[last] = it
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 3 && f[2] == "warnings" {
			n, err := strconv.Atoi(f[1])
			if err == nil {
				last = f[0]
				items[last] = cliItem{warnings: n}
			}
		}
	}
	return items
}

// verify checks a pass's CLI output against an in-process Plan.Check of
// the same files: every injected image plus every tenth clean one must
// show the same finding count and top finding. It returns recall over the
// injected images.
func (fd *fleetDisk) verify(app string, out []byte) (hits, total int, err error) {
	if out == nil {
		fd.res.problem("%s: no fleet pass completed", app)
		return 0, 0, nil
	}
	plan, err := encore.New().LoadPlan(fd.plans[app])
	if err != nil {
		return 0, 0, err
	}
	cli := parseScan(out)
	if len(cli) != fd.in.Shape.Fleet {
		fd.res.problem("%s: CLI listed %d images, fleet has %d", app, len(cli), fd.in.Shape.Fleet)
	}
	for i, path := range jsonFiles(fd.in.FleetDir[app]) {
		injs, injected := fd.in.FleetDefects[path]
		if !injected && i%10 != 0 {
			continue
		}
		img, err := sysimage.LoadFile(path)
		if err != nil {
			return 0, 0, err
		}
		rep, err := plan.Check(img)
		if err != nil {
			return 0, 0, err
		}
		if msg := compareCLI(cli[img.ID], rep); msg != "" {
			fd.res.problem("%s %s: %s", app, img.ID, msg)
		}
		if injected {
			h, t := judge(Victim{Injections: injs}, rep)
			hits += h
			total += t
		}
	}
	return hits, total, nil
}

// compareCLI reports how a CLI line pair disagrees with a report, or "".
func compareCLI(got cliItem, rep *detect.Report) string {
	want := cliItem{warnings: len(rep.Warnings)}
	if top := rep.Top(); top != nil {
		want.top = top.Message
	}
	if got != want {
		return fmt.Sprintf("CLI says %d warnings, top %q; in-process check says %d, top %q",
			got.warnings, got.top, want.warnings, want.top)
	}
	return ""
}

// traced runs the per-layer breakdown in process: the same coordinator
// the CLI drives, over the same directories, first untraced and then with
// the fleet.Source and CheckFunc wrapped in spans.
func (fd *fleetDisk) traced() error {
	res := fd.res
	fw := encore.New()
	tr := newRecorder(true)
	plans := map[string]*detect.Plan{}
	for _, app := range apps {
		for i := 0; i < 10; i++ {
			sp := root(tr, "planio.load", "load-"+app)
			p, err := fw.LoadPlan(fd.plans[app])
			sp.End()
			if err != nil {
				return err
			}
			plans[app] = p
		}
	}
	half := time.Duration(fd.cfg.Seconds / 2 * float64(time.Second))
	plain, _, err := fd.inProcess(plans, nil, half)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced, stats, err := fd.inProcess(plans, tr, half)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	res.Attempted += len(plain) + len(traced)
	st := selfTimes(tr.Snapshot().Spans)
	put := func(name string, v float64, unit string) { res.Metrics[name] = single(v, unit) }
	put("planio.load_us", meanSelf(st, "planio.load", time.Microsecond), "us")
	put("sysimage.read_us", meanSelf(st, "sysimage.read", time.Microsecond), "us")
	put("sysimage.decode_us", meanSelf(st, "sysimage.decode", time.Microsecond), "us")
	put("detect.check_us", meanSelf(st, "detect.check", time.Microsecond), "us")
	put("detect.render_us", meanSelf(st, "detect.render", time.Microsecond), "us")
	put("fleet.load_us", float64(st["fleet.load"].Total)/float64(max(st["fleet.load"].Count, 1))/1e3, "us")
	put("fleet.load_self_us", meanSelf(st, "fleet.load", time.Microsecond), "us")
	busy := st["fleet.load"].Total + st["detect.check"].Total + st["detect.render"].Total
	put("fleet.busy_ratio", float64(busy)/float64(time.Duration(stats.workers)*stats.wall), "ratio")
	put("fleet.steals", float64(stats.steals)/float64(stats.passes), "count")
	put("fleet.high_water_mb", float64(stats.highWater)/(1<<20), "MB")
	put("detect.findings_per_image", float64(stats.findings)/float64(stats.images), "count")
	put("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC)/float64(stats.passes), "count/op")
	put("runtime.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(stats.passes)/(1<<20), "MB")
	put("trace.overhead_pct", overheadPct(plain, traced), "%")

	files := jsonFiles(fd.in.FleetDir["mysql"])
	allocs, size, err := decodeAllocs(files)
	if err != nil {
		return err
	}
	put("sysimage.decode_allocs", allocs, "count")
	put("sysimage.bytes_per_image", size, "bytes")
	checkAllocs, err := checkAllocs(plans["mysql"], files)
	if err != nil {
		return err
	}
	put("detect.check_allocs", checkAllocs, "count")
	put("planio.plan_bytes", float64(len(fd.plans["apache"])+len(fd.plans["mysql"])+len(fd.plans["php"]))/3, "bytes")
	res.Notes = append(res.Notes, fmt.Sprintf("fleet-disk traced: %d traced passes against %d untraced, %d workers; op = one pass",
		len(traced), len(plain), stats.workers))
	return writeTrace(tr, filepath.Dir(fd.cfg.Work), "fleet-disk")
}

// checkAllocs decodes up to 64 files, then runs Plan.Check over them on
// this goroutine alone and returns the mean allocations per check.
func checkAllocs(plan *detect.Plan, files []string) (float64, error) {
	if len(files) > 64 {
		files = files[:64]
	}
	imgs := make([]*sysimage.Image, len(files))
	for i, f := range files {
		im, err := sysimage.LoadFile(f)
		if err != nil {
			return 0, err
		}
		imgs[i] = im
	}
	return allocsPer(len(imgs), func(i int) error {
		_, err := plan.Check(imgs[i])
		return err
	})
}

// passStats totals the coordinator runs of one phase.
type passStats struct {
	passes, images, workers int
	findings, steals        int64
	highWater               int64
	wall                    time.Duration
}

// inProcess runs coordinator passes round-robin over the apps for d and
// returns each pass's wall time in ms. A live recorder wraps the source
// and the check in spans.
func (fd *fleetDisk) inProcess(plans map[string]*detect.Plan, tr *telemetry.Recorder, d time.Duration) ([]float64, passStats, error) {
	var st passStats
	var passMs []float64
	deadline := time.Now().Add(d)
	for pass := 0; time.Now().Before(deadline); pass++ {
		app := apps[pass%len(apps)]
		src, err := fleet.NewDirSource(fd.in.FleetDir[app])
		if err != nil {
			return nil, st, err
		}
		req := fmt.Sprintf("pass-%d", pass)
		var passSpan *telemetry.Span
		var source fleet.Source = src
		check := plans[app].Check
		if tr != nil {
			passSpan = root(tr, "fleet.pass", req)
			source = &tracedSource{DirSource: src, parent: passSpan, req: req}
			check = tracedCheck(passSpan, req, check)
		}
		coord := &fleet.Coordinator{Opts: fleet.Options{Check: check, Shards: fleetShards}}
		var findings atomic.Int64 // the sink runs on every worker
		stats, err := coord.Run(context.Background(), source, func(idx int, it scan.Item) {
			if it.Report != nil {
				findings.Add(int64(len(it.Report.Warnings)))
			}
		})
		passSpan.End()
		if err != nil {
			return nil, st, err
		}
		if stats.Errors > 0 {
			fd.res.problem("%s: in-process pass failed on %d images", app, stats.Errors)
		}
		passMs = append(passMs, ms(stats.Elapsed))
		st.passes++
		st.images += int(stats.Images)
		st.workers = stats.Workers
		st.findings += findings.Load()
		st.steals += stats.Steals
		st.highWater = max(st.highWater, stats.HighWaterBytes)
		st.wall += stats.Elapsed
	}
	return passMs, st, nil
}

// tracedSource is a DirSource whose Load records a fleet.load span with
// separate read and decode children.
type tracedSource struct {
	*fleet.DirSource
	parent *telemetry.Span
	req    string
}

func (s *tracedSource) Load(i int) (*sysimage.Image, error) {
	req := s.req + "/" + strings.TrimSuffix(filepath.Base(s.Name(i)), ".json")
	load := child(s.parent, "fleet.load", req)
	defer load.End()
	imgs, err := readImages(load, req, []string{s.Name(i)})
	if err != nil {
		return nil, err
	}
	return imgs[0], nil
}

// tracedCheck wraps a check in a detect.check span, followed by a
// detect.render span for what the CLI renders per image: the per-kind
// counts and the top finding.
func tracedCheck(parent *telemetry.Span, req string, check scan.CheckFunc) scan.CheckFunc {
	return func(img *sysimage.Image) (*detect.Report, error) {
		r := req + "/" + img.ID
		sp := child(parent, "detect.check", r)
		rep, err := check(img)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = child(parent, "detect.render", r)
		_ = rep.CountByKind()
		_ = rep.Top()
		sp.End()
		return rep, nil
	}
}
