package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	encore "repro"
	"repro/internal/alert"
	"repro/internal/detect"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// The serve-mixed traffic: an open loop of independent users walking a
// fixed ladder of arrival rates over serveConns connections, with a plan
// hot-swap due every swapEvery beside the scans.
var ladder = []float64{250, 500, 1000, 2000}

const (
	refRate        = 500 // the rate whose latencies are the headline figures
	latencyLimitMs = 10  // p99 limit a ladder rate must meet to count as served
	serveConns     = 2
	swapEvery      = 100 * time.Millisecond
)

// alertPolicy routes every finding to an append-only file notifier, with
// the example policy's dedup window and no rate limit.
const alertPolicy = `version: 1
queue_size: 1024
ring_size: 128
dedup_window: 30s
rate_limit: 0
min_severity: low
notifiers:
  - name: audit
    type: file
    path: %s
rules:
  - family: "*"
    notify: [audit]
`

// variants are the two precomputed plans the swaps alternate between;
// the daemon's preloaded plan (registry version "v1") is variant a.
var variants = []string{"a", "b"}

type serveMixed struct {
	cfg Config
	in  *Inputs
	res *Result
	// plans[variant][app] is the encoded plan.
	plans [2]map[string][]byte
	// want[variant][app][i] is the report victim i must get under that
	// plan, in the reply's compact encoding; hits the injected errors it
	// flags.
	want [2]map[string][][]byte
	hits [2]map[string][]int
	// policyPath is the daemon's -alerts file.
	policyPath string
	client     *http.Client
	// cpus are the client's and the daemon's CPUs, when there are two.
	cpus []int
}

func runServeMixed(cfg Config) (*Result, error) {
	in, err := generate(cfg.Work, cfg.Seed, defaultShape, parts{training: true, delta: true, victims: true})
	if err != nil {
		return nil, err
	}
	sm := &serveMixed{cfg: cfg, in: in, res: &Result{Metrics: map[string]Summary{}}}
	if err := sm.prepare(); err != nil {
		return nil, err
	}
	// The client shares two cores with the daemon: one thread, and garbage
	// collected less often, keep it from taking time from the thing under
	// measurement. Its heap stays small (bodies, expected reports).
	debug.SetGCPercent(400)
	runtime.GOMAXPROCS(1)
	// Left to the scheduler, the two processes sometimes share one CPU and
	// sometimes not, and the scan latency of a run moved by a third with
	// it; bound to a CPU each, every run measures the same placement.
	if cpus, err := allowedCPUs(); err == nil && len(cpus) >= 2 {
		if err := pinProcess(cpus[0]); err != nil {
			return nil, fmt.Errorf("bind the client to CPU %d: %w", cpus[0], err)
		}
		sm.cpus = cpus[:2]
	}
	sm.res.Notes = append(sm.res.Notes, fmt.Sprintf("serve-mixed: client and daemon CPUs %v (none: unbound)", sm.cpus))
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	sm.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}

	// Set-up is launch to steady state: the daemon answers /readyz with
	// every plan preloaded, then serves each request body once, closed
	// loop, so its pools, caches and interner fill before timing. Only
	// the last launch serves the load; the others are killed.
	var setup, ready []float64
	var d *daemon
	var warm rungResult
	defer func() { d.kill() }()
	for i := 0; i < setupReps; i++ {
		d.kill()
		d, err = sm.launch(i)
		if err != nil {
			return nil, err
		}
		ws := sm.warmStep()
		start := time.Now()
		warm = sm.runRung(d, &ws, fmt.Sprintf("warm%d", i), &tally{}, nil)
		ready = append(ready, d.ready.Seconds())
		setup = append(setup, d.ready.Seconds()+time.Since(start).Seconds())
	}
	sm.res.Metrics["setup_s"] = summarize(setup, "s")
	sm.res.Metrics["serve_ready_s"] = summarize(ready, "s")
	return sm.res, sm.measure(d, warm.attempted)
}

// prepare learns plan a from the training set and plan b from the same
// knowledge grown by SwapAdds fresh images, writes plan a where the
// daemon preloads it, and precomputes every victim's expected report
// under both plans through the same LoadPlan path the daemon uses,
// keeping only the victims with findings under both.
func (sm *serveMixed) prepare() error {
	plansDir := filepath.Join(sm.cfg.Work, "plans")
	if err := os.MkdirAll(plansDir, 0o755); err != nil {
		return err
	}
	for v := range variants {
		sm.plans[v], sm.want[v], sm.hits[v] = map[string][]byte{}, map[string][][]byte{}, map[string][]int{}
	}
	dropped := map[string]int{}
	for _, app := range apps {
		fw := encore.New()
		imgs, err := sysimage.LoadDir(sm.in.TrainDir[app])
		if err != nil {
			return err
		}
		k, err := fw.Learn(imgs)
		if err != nil {
			return err
		}
		sm.plans[0][app] = fw.MarshalPlan(fw.CompilePlan(k))
		adds := jsonFiles(sm.in.DeltaDir[app])[:sm.in.Shape.SwapAdds]
		var fresh []*sysimage.Image
		for _, f := range adds {
			im, err := sysimage.LoadFile(f)
			if err != nil {
				return err
			}
			fresh = append(fresh, im)
		}
		if err := fw.AddImages(k, fresh...); err != nil {
			return err
		}
		sm.plans[1][app] = fw.MarshalPlan(fw.CompilePlan(k))
		if err := os.WriteFile(filepath.Join(plansDir, app+".plan"), sm.plans[0][app], 0o644); err != nil {
			return err
		}
		var plans [2]*detect.Plan
		for v := range variants {
			if plans[v], err = fw.LoadPlan(sm.plans[v][app]); err != nil {
				return err
			}
		}
		// The pool holds only victims with findings under both plans, so
		// that every request exercises render and alert publish; a victim
		// whose injected errors no plan flags is no victim of this workload.
		var kept []Victim
	victims:
		for _, vic := range sm.in.Victims[app] {
			if len(kept) == sm.in.Shape.ServeVictims {
				break
			}
			var wire [2][]byte
			var hits [2]int
			for v := range variants {
				w, rep, err := expectedReport(plans[v], vic.Body)
				if err != nil {
					return err
				}
				if len(rep.Warnings) == 0 {
					dropped[app]++
					continue victims
				}
				wire[v] = w
				hits[v], _ = judge(vic, rep)
			}
			kept = append(kept, vic)
			for v := range variants {
				sm.want[v][app] = append(sm.want[v][app], wire[v])
				sm.hits[v][app] = append(sm.hits[v][app], hits[v])
			}
		}
		if len(kept) < sm.in.Shape.ServeVictims {
			return fmt.Errorf("%s: only %d of %d victims have findings under both plans, want %d",
				app, len(kept), len(sm.in.Victims[app]), sm.in.Shape.ServeVictims)
		}
		sm.in.Victims[app] = kept
	}
	sm.res.Notes = append(sm.res.Notes, fmt.Sprintf("serve-mixed: %d victims per app, the first with findings under both plans; skipped for having none: %v",
		sm.in.Shape.ServeVictims, dropped))
	sm.policyPath = filepath.Join(sm.cfg.Work, "alerts.yaml")
	return os.WriteFile(sm.policyPath, []byte(fmt.Sprintf(alertPolicy, filepath.Join(sm.cfg.Work, "alerts.jsonl"))), 0o644)
}

// expectedReport checks body against plan and renders the report as the
// daemon's reply must carry it: Report.RenderJSON (the `check -json`
// shape, which the daemon's pooled AppendJSON promises to match), compacted
// and HTML-escaped by encoding/json as an embedded RawMessage.
func expectedReport(plan *detect.Plan, body []byte) ([]byte, *detect.Report, error) {
	img, err := sysimage.LoadJSON(body)
	if err != nil {
		return nil, nil, err
	}
	rep, err := plan.Check(img)
	if err != nil {
		return nil, nil, err
	}
	doc, err := rep.RenderJSON()
	if err != nil {
		return nil, nil, err
	}
	wire, err := json.Marshal(json.RawMessage(doc))
	return wire, rep, err
}

// daemon is one running `encore serve`.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	ready time.Duration // launch to the first /readyz 200
	log   *os.File
}

// launch starts the daemon with every plan preloaded and waits until
// /readyz answers 200.
func (sm *serveMixed) launch(n int) (*daemon, error) {
	addrFile := filepath.Join(sm.cfg.Work, fmt.Sprintf("addr-%d", n))
	logf, err := os.Create(filepath.Join(sm.cfg.Work, fmt.Sprintf("serve-%d.log", n)))
	if err != nil {
		return nil, err
	}
	cmd := programCmd(sm.cfg.Encore, "serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-plans", filepath.Join(sm.cfg.Work, "plans"), "-alerts", sm.policyPath, "-sample-every", "250ms")
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if sm.cpus != nil {
		err = startOn(cmd, sm.cpus[1], sm.cpus[0])
	} else {
		err = cmd.Start()
	}
	if err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logf}
	deadline := start.Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("encore serve not ready after 20s (log %s)", logf.Name())
		}
		if d.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.addr = strings.TrimSpace(string(b))
			}
		}
		if d.addr != "" {
			if resp, err := sm.client.Get("http://" + d.addr + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.ready = time.Since(start)
					return d, nil
				}
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the graceful drain, which must end in
// exit 0.
func (d *daemon) stop() error {
	if d.cmd.ProcessState != nil {
		return nil
	}
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("encore serve exit: %w (log %s)", err, d.log.Name())
		}
		return nil
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("encore serve did not drain within 15s")
	}
}

// kill stops a daemon that is still running, hard. Safe on nil.
func (d *daemon) kill() {
	if d == nil || d.cmd.ProcessState != nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.log.Close()
}

// reqKind tells a scheduled request's kind.
type reqKind int

const (
	kindScan reqKind = iota
	kindSwap
)

// reqSpec is one scheduled request.
type reqSpec struct {
	kind    reqKind
	app     string
	victim  int // scan: index into the app's victim pool
	variant int // swap: the plan to install
	version string
}

// step is one ladder rung's schedule and tallies.
type step struct {
	rate  float64
	specs []reqSpec
	jobs  []job
}

// buildStep draws rung's schedule: Poisson scan arrivals over a uniformly
// chosen app and victim, and a swap due every swapEvery rotating over the
// apps, each installing the variant its app is not running.
func (sm *serveMixed) buildStep(rng *rand.Rand, rate float64, d time.Duration, swaps map[string]int) step {
	type due struct {
		at   time.Duration
		spec reqSpec
	}
	var all []due
	for _, at := range poissonSchedule(rng, rate, d) {
		app := apps[rng.Intn(len(apps))]
		all = append(all, due{at, reqSpec{kind: kindScan, app: app, victim: rng.Intn(len(sm.in.Victims[app]))}})
	}
	for i, at := 0, swapEvery/2; at < d; i, at = i+1, at+swapEvery {
		app := apps[i%len(apps)]
		swaps[app]++
		v := swaps[app] % 2 // the first swap of an app installs b
		all = append(all, due{at, reqSpec{kind: kindSwap, app: app, variant: v,
			version: fmt.Sprintf("%s-%d", variants[v], swaps[app])}})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	st := step{rate: rate}
	for i, a := range all {
		st.specs = append(st.specs, a.spec)
		st.jobs = append(st.jobs, job{Seq: i, Due: a.at})
	}
	return st
}

// warmStep schedules every victim body once, all due at once: an untimed
// closed-loop pass so the daemon's pools, caches and interner fill
// before the ladder.
func (sm *serveMixed) warmStep() step {
	var st step
	for _, app := range apps {
		for i := range sm.in.Victims[app] {
			st.jobs = append(st.jobs, job{Seq: len(st.specs)})
			st.specs = append(st.specs, reqSpec{kind: kindScan, app: app, victim: i})
		}
	}
	return st
}

// variantOf maps a reply's planVersion to the plan that produced it.
func variantOf(version string) (int, bool) {
	switch {
	case version == "v1":
		return 0, true
	case strings.HasPrefix(version, "a-"):
		return 0, true
	case strings.HasPrefix(version, "b-"):
		return 1, true
	}
	return 0, false
}

// tally accumulates what the replies of one run said.
type tally struct {
	mu                 sync.Mutex
	non2xx, mismatches int
	hits, injected     int
}

// scanReply is the part of a /v1/scan reply the benchmark checks.
type scanReply struct {
	PlanVersion string          `json:"planVersion"`
	Report      json.RawMessage `json:"report"`
}

// send performs one scheduled request. A scan's report must equal the
// precomputed one for the plan version the reply claims.
func (sm *serveMixed) send(addr string, spec reqSpec, tl *tally, tr *telemetry.Recorder, reqID string) error {
	sp := root(tr, "serve.request", reqID)
	defer sp.End()
	var url string
	var body []byte
	if spec.kind == kindScan {
		url = "http://" + addr + "/v1/scan/" + spec.app
		body = sm.in.Victims[spec.app][spec.victim].Body
	} else {
		url = "http://" + addr + "/v1/profiles/" + spec.app
		body = sm.plans[spec.variant][spec.app]
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-Id", reqID)
	if spec.kind == kindSwap {
		req.Header.Set("X-Profile-Version", spec.version)
	}
	resp, err := sm.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		tl.mu.Lock()
		tl.non2xx++
		tl.mu.Unlock()
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if spec.kind == kindSwap {
		return nil
	}
	var rep scanReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if err := sm.checkReply(spec, rep); err != nil {
		tl.mu.Lock()
		tl.mismatches++
		tl.mu.Unlock()
		return err
	}
	v, _ := variantOf(rep.PlanVersion)
	tl.mu.Lock()
	tl.hits += sm.hits[v][spec.app][spec.victim]
	tl.injected += len(sm.in.Victims[spec.app][spec.victim].Injections)
	tl.mu.Unlock()
	return nil
}

// checkReply compares a reply with the precomputed report for the plan
// version it claims.
func (sm *serveMixed) checkReply(spec reqSpec, rep scanReply) error {
	v, ok := variantOf(rep.PlanVersion)
	if !ok {
		return fmt.Errorf("%s victim %d: reply claims unknown plan version %q", spec.app, spec.victim, rep.PlanVersion)
	}
	if want := sm.want[v][spec.app][spec.victim]; !bytes.Equal(rep.Report, want) {
		return fmt.Errorf("%s victim %d: report under plan %s differs from the precomputed one: %s", spec.app, spec.victim, rep.PlanVersion, firstDiff(rep.Report, want))
	}
	return nil
}

// firstDiff shows where got first departs from want, with a little
// context on each side.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(b []byte) []byte {
		lo, hi := max(i-40, 0), min(i+40, len(b))
		if lo > hi {
			lo = hi
		}
		return b[lo:hi]
	}
	return fmt.Sprintf("at byte %d got ...%s... want ...%s...", i, clip(got), clip(want))
}

// replay runs the serve-mixed bodies in process through the layers one
// daemon scan calls — sysimage.LoadJSON, Plan.Check, Report.AppendJSON
// and alert.Pipeline.Publish — each inside a span, for the per-layer
// times the daemon's own metrics do not split out.
func (sm *serveMixed) replay() error {
	res := sm.res
	fw := encore.New()
	tr := newRecorder(true)
	plans := map[string]*detect.Plan{}
	for _, app := range apps {
		for i := 0; i < 10; i++ {
			sp := root(tr, "planio.load", "load-"+app)
			p, err := fw.LoadPlan(sm.plans[0][app])
			sp.End()
			if err != nil {
				return err
			}
			plans[app] = p
		}
	}
	pol, err := alert.LoadPolicyFile(sm.policyPath)
	if err != nil {
		return err
	}
	pipe, err := alert.NewPipeline(alert.Options{Policy: pol})
	if err != nil {
		return err
	}
	// Drains on the error paths; the success path's Shutdown below runs
	// first and reports its error, and a second Shutdown is a no-op.
	defer pipe.Shutdown(context.Background())
	var buf bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	requests := 0
	for pass := 0; pass < 3; pass++ {
		for _, app := range apps {
			for i, vic := range sm.in.Victims[app] {
				req := fmt.Sprintf("replay-%d-%s-%d", pass, app, i)
				reqSpan := root(tr, "replay.request", req)
				sp := child(reqSpan, "sysimage.decode", req)
				img, err := sysimage.LoadJSON(vic.Body)
				sp.End()
				if err != nil {
					return err
				}
				sp = child(reqSpan, "detect.check", req)
				rep, err := plans[app].Check(img)
				sp.End()
				if err != nil {
					return err
				}
				sp = child(reqSpan, "detect.render", req)
				buf.Reset()
				err = rep.AppendJSON(&buf)
				sp.End()
				if err != nil {
					return err
				}
				for _, w := range rep.Warnings {
					sp = child(reqSpan, "alert.publish", req)
					pipe.Publish(alert.FromWarning(w, app, img.ID, req, "v1"))
					sp.End()
				}
				reqSpan.End()
				requests++
			}
		}
	}
	runtime.ReadMemStats(&m1)
	if err := pipe.Shutdown(context.Background()); err != nil {
		return err
	}
	st := selfTimes(tr.Snapshot().Spans)
	put := func(name string, v float64, unit string) { res.Metrics[name] = single(v, unit) }
	put("planio.load_us", meanSelf(st, "planio.load", time.Microsecond), "us")
	put("sysimage.decode_us", meanSelf(st, "sysimage.decode", time.Microsecond), "us")
	put("detect.check_us", meanSelf(st, "detect.check", time.Microsecond), "us")
	put("detect.render_us", meanSelf(st, "detect.render", time.Microsecond), "us")
	put("alert.publish_us", meanSelf(st, "alert.publish", time.Microsecond), "us")
	put("detect.findings_per_image", float64(st["alert.publish"].Count)/float64(requests), "count")
	put("runtime.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(requests)/(1<<20), "MB")
	var files []string
	for _, v := range sm.in.Victims["mysql"] {
		files = append(files, v.Path)
	}
	allocs, size, err := decodeAllocs(files)
	if err != nil {
		return err
	}
	put("sysimage.decode_allocs", allocs, "count")
	put("sysimage.bytes_per_image", size, "bytes")
	ca, err := checkAllocs(plans["mysql"], files)
	if err != nil {
		return err
	}
	put("detect.check_allocs", ca, "count")
	put("planio.plan_bytes", float64(len(sm.plans[0]["apache"])+len(sm.plans[0]["mysql"])+len(sm.plans[0]["php"]))/3, "bytes")
	return nil
}

// promDoc is a parsed /metrics scrape: plain samples by series, and the
// scan-latency histogram summed over apps.
type promDoc struct {
	samples map[string]float64 // `name{labels}` -> value
	hist    bucketCounts
}

// bucketCounts maps a histogram bucket's upper bound in seconds to the
// samples in that bucket alone (not cumulative).
type bucketCounts map[float64]float64

// scrape fetches and parses /metrics; a failed scrape yields an empty
// document (the per-layer figures then read 0).
func scrape(c *http.Client, addr string) promDoc {
	doc := promDoc{samples: map[string]float64{}, hist: bucketCounts{}}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return doc
	}
	defer resp.Body.Close()
	cum := map[string]map[float64]float64{} // app labels -> le -> cumulative
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		doc.samples[series] = v
		const bucket = "encore_serve_scan_seconds_bucket{"
		if !strings.HasPrefix(series, bucket) {
			continue
		}
		labels := strings.TrimSuffix(series[len(bucket):], "}")
		i := strings.Index(labels, `le="`)
		if i < 0 {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(labels[i+4:], `"`), 64)
		if err != nil {
			continue // ParseFloat reads "+Inf" too; anything else is skipped
		}
		key := labels[:i]
		if cum[key] == nil {
			cum[key] = map[float64]float64{}
		}
		cum[key][le] = v
	}
	for _, buckets := range cum {
		les := make([]float64, 0, len(buckets))
		for le := range buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		prev := 0.0
		for _, le := range les {
			doc.hist[le] += buckets[le] - prev
			prev = buckets[le]
		}
	}
	return doc
}

// sum adds every sample of metric name whose labels contain filter.
func (d promDoc) sum(name, filter string) float64 {
	t := 0.0
	for series, v := range d.samples {
		base, labels, _ := strings.Cut(series, "{")
		if base == name && strings.Contains(labels, filter) {
			t += v
		}
	}
	return t
}

func (b bucketCounts) plus(o bucketCounts) bucketCounts {
	out := bucketCounts{}
	for le, n := range b {
		out[le] += n
	}
	for le, n := range o {
		out[le] += n
	}
	return out
}

func (b bucketCounts) minus(o bucketCounts) bucketCounts {
	out := bucketCounts{}
	for le, n := range b {
		out[le] = n - o[le]
	}
	return out
}

// valueAtRank interpolates the sample of 0-based rank r (in ascending
// order) inside its log2 bucket, whose lower bound is half its upper.
func (b bucketCounts) valueAtRank(r float64) float64 {
	les := make([]float64, 0, len(b))
	for le := range b {
		les = append(les, le)
	}
	sort.Float64s(les)
	seen := 0.0
	for _, le := range les {
		n := b[le]
		if n <= 0 {
			continue
		}
		if r < seen+n {
			if math.IsInf(le, 1) {
				return les[max(0, len(les)-2)]
			}
			lo := le / 2
			return lo + (le-lo)*(r-seen+0.5)/n
		}
		seen += n
	}
	return 0
}

func (b bucketCounts) total() float64 {
	t := 0.0
	for _, n := range b {
		t += n
	}
	return t
}

func (b bucketCounts) quantileRank(q float64) float64 {
	return b.valueAtRank(q * (b.total() - 1))
}

// tailValue is the sample with tailBeyond samples above it.
func (b bucketCounts) tailValue() float64 {
	n := b.total()
	if n <= tailBeyond {
		return b.valueAtRank(n - 1)
	}
	return b.valueAtRank(n - tailBeyond - 1)
}

// fetchAlertStats reads the daemon's alert pipeline counters.
func fetchAlertStats(c *http.Client, addr string) alert.Stats {
	var doc struct {
		Stats alert.Stats `json:"stats"`
	}
	resp, err := c.Get("http://" + addr + "/v1/alerts?limit=0")
	if err != nil {
		return doc.Stats
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil && !errors.Is(err, io.EOF) {
		return alert.Stats{}
	}
	return doc.Stats
}
