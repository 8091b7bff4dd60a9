package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The serve-mixed run is a number of cycles, each walking the whole rate
// ladder and then saturating the daemon briefly. Every figure is the
// median over cycles, so a burst of contention on a shared machine moves
// one cycle's figure rather than the run's.
const cycles = 20

// rungShare is each ladder rung's share of a cycle, the reference rate's
// the largest; the closed-loop saturation phase gets the rest.
var rungShare = map[float64]float64{250: 0.1, 500: 0.5, 1000: 0.1, 2000: 0.1}

// tailWindow is how many consecutive reference-rate scans op_tail_ms
// takes each tail over. The run's figure is the median over windows: on
// a shared machine a stall inflates the windows it hits, not the run.
const tailWindow = 200

// swapRateMax is the highest rung whose plan swaps count in
// update_p50_ms: above it a swap mostly measures the queue of scans
// ahead of it on an overloaded connection.
const swapRateMax = 1000

// rungResult is one ladder rung's outcome.
type rungResult struct {
	rate      float64
	scans     []float64 // scan latency from due, ms (+Inf when failed)
	swaps     []float64
	late      []float64
	backlog   int
	attempted int
	failed    int
}

// runRung sends one rung's schedule and splits its latencies by kind.
func (sm *serveMixed) runRung(d *daemon, st *step, id string, tl *tally, tr *telemetry.Recorder) rungResult {
	loop := &openLoop{conns: serveConns, send: func(_, seq int) error {
		err := sm.send(d.addr, st.specs[seq], tl, tr, fmt.Sprintf("%s-%d", id, seq))
		if err != nil {
			sm.res.problem("%v", err)
		}
		return err
	}}
	out := loop.run(st.jobs)
	r := rungResult{rate: st.rate, late: out.Late, backlog: out.Backlog, attempted: len(st.jobs), failed: out.Failed}
	for i, spec := range st.specs {
		if spec.kind == kindScan {
			r.scans = append(r.scans, out.Latency[i])
		} else {
			r.swaps = append(r.swaps, out.Latency[i])
		}
	}
	return r
}

// served reports whether a rate met the latency limit: p99 over every
// cycle within the limit, and in no cycle a backlog at the end of the
// schedule worth more than the limit's worth of arrivals (a larger one
// means waiting requests already miss the limit — the queue is growing).
func served(rs []rungResult) bool {
	for _, r := range rs {
		if float64(r.backlog) > r.rate*latencyLimitMs/1e3 {
			return false
		}
	}
	scans := pooled(rs, func(r rungResult) []float64 { return r.scans })
	return len(scans) > 0 && nearestRank(scans, 0.99) <= latencyLimitMs
}

// nearestRank is the q-quantile of xs by the nearest-rank rule.
func nearestRank(xs []float64, q float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return inf
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// perCycle applies f to each cycle's rung and returns the results.
func perCycle(rs []rungResult, f func(rungResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func pooled(rs []rungResult, f func(rungResult) []float64) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, f(r)...)
	}
	return out
}

// measure runs the cycles against the warmed daemon d, then stops it and
// reads its CPU time and peak RSS. warmed is how many requests set-up
// already sent it.
func (sm *serveMixed) measure(d *daemon, warmed int) error {
	res := sm.res
	rng := rand.New(rand.NewSource(subSeed(sm.cfg.Seed, "serve/schedule")))
	cycle := time.Duration(sm.cfg.Seconds / cycles * float64(time.Second))
	satDur := cycle
	for _, rate := range ladder {
		satDur -= time.Duration(rungShare[rate] * float64(cycle))
	}
	swaps := map[string]int{}
	tl := &tally{}
	tr := newRecorder(sm.cfg.Trace)

	byRate := map[float64][]rungResult{}
	var plain []rungResult // trace runs: the reference rung again, untraced
	var sats []satResult
	attempted, failed := 0, 0
	server := bucketCounts{}
	pid := d.cmd.Process.Pid
	var cycleRSS []float64 // the daemon's peak resident set per cycle
	rssErr := resetPeakRSS(pid)
	for c := 0; c < cycles; c++ {
		for i, rate := range ladder {
			stepDur := time.Duration(rungShare[rate] * float64(cycle))
			st := sm.buildStep(rng, rate, stepDur, swaps)
			var before promDoc
			if rate == refRate {
				before = scrape(sm.client, d.addr)
			}
			r := sm.runRung(d, &st, fmt.Sprintf("c%d-r%d", c, i), tl, tr)
			if rate == refRate {
				after := scrape(sm.client, d.addr)
				server = server.plus(after.hist.minus(before.hist))
				if sm.cfg.Trace {
					st := sm.buildStep(rng, refRate, stepDur, swaps)
					plain = append(plain, sm.runRung(d, &st, fmt.Sprintf("c%d-plain", c), tl, nil))
				}
			}
			byRate[rate] = append(byRate[rate], r)
			attempted += r.attempted
			failed += r.failed
		}
		sat := sm.saturate(d, satDur, tl, c, swaps)
		sats = append(sats, sat)
		attempted += sat.attempted
		failed += sat.failed
		if rssErr == nil {
			var mb float64
			if mb, rssErr = peakRSSMB(pid); rssErr == nil {
				cycleRSS = append(cycleRSS, mb)
				rssErr = resetPeakRSS(pid)
			}
		}
	}
	final := scrape(sm.client, d.addr)
	alerts := fetchAlertStats(sm.client, d.addr)
	if err := d.stop(); err != nil {
		return err
	}

	ref := byRate[refRate]
	maxRate := 0.0
	for _, rate := range ladder {
		if served(byRate[rate]) {
			maxRate = rate
		}
	}
	var swapMs []float64
	for _, rate := range ladder {
		if rate <= swapRateMax {
			swapMs = append(swapMs, pooled(byRate[rate], func(r rungResult) []float64 { return r.swaps })...)
		}
	}
	res.Attempted, res.Failed = attempted, failed
	if tl.mismatches > 0 {
		res.problem("%d replies did not match the precomputed report for their plan version", tl.mismatches)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("serve-mixed: %d cycles of %s: the %v req/s ladder (shares %v) then closed-loop saturation for %s, %d connections",
		cycles, cycle, ladder, rungShare, satDur, serveConns))
	res.Notes = append(res.Notes, "serve-mixed: op = POST /v1/scan and update = plan hot-swap POST /v1/profiles, both timed in the saturation phases; items_per_s = saturation throughput in requests/s")
	for _, rate := range ladder {
		rs := byRate[rate]
		scans := pooled(rs, func(r rungResult) []float64 { return r.scans })
		res.Notes = append(res.Notes, fmt.Sprintf("serve-mixed %4.0f req/s: %d scans, p50 %.3f ms, p99 %.3f ms, max backlog %d, failed %d, meets the %d ms p99 limit: %v",
			rate, len(scans), nearestRank(scans, 0.5), nearestRank(scans, 0.99),
			int(maxOf(perCycle(rs, func(r rungResult) float64 { return float64(r.backlog) }))),
			int(sumOf(perCycle(rs, func(r rungResult) float64 { return float64(r.failed) }))), latencyLimitMs, served(rs)))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("serve-mixed: serve_max_rps (highest ladder rate whose p99 over all cycles meets the limit, with no growing backlog) = %.0f", maxRate))

	p50s := perCycle(ref, func(r rungResult) float64 { return median(sortedCopy(r.scans)) })
	if !sm.cfg.Trace {
		tails, pct := windowTails(ref, tailWindow)
		requests := float64(attempted + warmed) // every request the daemon's CPU paid for
		var satP50s, satRates, satSwaps []float64
		for _, s := range sats {
			satP50s = append(satP50s, median(sortedCopy(s.scans)))
			satRates = append(satRates, s.rate)
			satSwaps = append(satSwaps, s.swaps...)
		}
		// Gated: the saturation phases, where the daemon is never idle.
		// At 500 req/s most of a request's time is the two sides waking
		// from idle, which on a shared machine moves by a fifth between
		// runs; those open-loop figures are reported, not gated.
		res.Metrics["op_p50_ms"] = summarize(satP50s, "ms")
		res.Metrics["update_p50_ms"] = summarize(satSwaps, "ms")
		res.Metrics["items_per_s"] = summarize(satRates, "1/s")
		res.Metrics["serve_p50_ms"] = summarize(p50s, "ms")
		res.Metrics["serve_swap_p50_ms"] = summarize(swapMs, "ms")
		res.Metrics["op_tail_ms"] = summarize(tails, "ms")
		res.Notes = append(res.Notes, fmt.Sprintf("serve-mixed: serve_p50_ms and op_tail_ms (serve_tail_ms) are at %.0f req/s from the due time; the tail is the %s of each window of %d consecutive scans, median of %d windows",
			float64(refRate), pct, tailWindow, len(tails)))
		res.Metrics["cpu_us_per_item"] = single(float64(cpuOf(d.cmd.ProcessState).Microseconds())/requests, "us")
		// A cycle's peak resident set, median over cycles. The whole run's
		// peak, from launch through warm-up and shutdown, hangs on one
		// collection's timing and moved by a quarter between runs of one
		// seed: it is reported, not gated.
		res.Metrics["run_peak_rss_mb"] = single(maxRSSMB(d.cmd.ProcessState), "MB")
		if rssErr == nil {
			res.Metrics["peak_rss_mb"] = summarize(cycleRSS, "MB")
			res.Notes = append(res.Notes, "serve-mixed: peak_rss_mb (serve_peak_rss_mb) is the daemon's peak resident set per cycle, median over cycles; run_peak_rss_mb is the whole run's")
		} else {
			res.Metrics["peak_rss_mb"] = res.Metrics["run_peak_rss_mb"]
			res.Notes = append(res.Notes, fmt.Sprintf("serve-mixed: peak_rss_mb is the whole run's peak resident set (per-cycle peaks unavailable: %v)", rssErr))
		}
		res.Metrics["detect_recall"] = single(ratio(tl.hits, tl.injected), "ratio")
		res.Metrics["ok_ratio"] = single(1-ratio(failed, attempted), "ratio")
		return nil
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = single(v, unit) }
	put("serve.server_p50_ms", server.quantileRank(0.5)*1e3, "ms")
	put("serve.server_tail_ms", server.tailValue()*1e3, "ms")
	put("serve.client_p50_ms", median(sortedCopy(p50s)), "ms")
	put("serve.max_rps", maxRate, "1/s")
	put("serve.swap_ms", median(sortedCopy(swapMs)), "ms")
	put("serve.non2xx", float64(tl.non2xx), "count")
	put("serve.gen_late_ms", nearestRank(pooled(ref, func(r rungResult) []float64 { return r.late }), 0.99), "ms")
	for _, rate := range ladder {
		backlogs := perCycle(byRate[rate], func(r rungResult) float64 { return float64(r.backlog) })
		put(fmt.Sprintf("serve.backlog_end.r%.0f", rate), median(sortedCopy(backlogs)), "count")
	}
	put("alert.published", float64(alerts.Published), "count")
	put("alert.suppressed", final.sum("encore_alerts_suppressed_total", ""), "count")
	put("alert.dropped", final.sum("encore_alerts_dropped_total", ""), "count")
	put("alert.delivered", final.sum("encore_alerts_total", `outcome="ok"`), "count")
	put("runtime.gc_cycles", final.sum("encore_gc_cycles_total", "")/float64(max(attempted+warmed, 1)), "count/op")
	plainP50 := perCycle(plain, func(r rungResult) float64 { return median(sortedCopy(r.scans)) })
	put("trace.overhead_pct", overheadPct(plainP50, p50s), "%")
	if err := writeTrace(tr, filepath.Dir(sm.cfg.Work), "serve-mixed"); err != nil {
		return err
	}
	return sm.replay()
}

// windowTails cuts each cycle's reference-rate scans, in due order, into
// windows of n and returns every full window's tail (tailBeyond samples
// above it) with the percentile that is.
func windowTails(rs []rungResult, n int) ([]float64, string) {
	var tails []float64
	pct := "max"
	for _, r := range rs {
		for i := 0; i+n <= len(r.scans); i += n {
			var v float64
			v, pct = tail(r.scans[i : i+n])
			tails = append(tails, v)
		}
	}
	return tails, pct
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func sumOf(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// satResult is one closed-loop saturation phase's outcome.
type satResult struct {
	rate              float64
	scans, swaps      []float64 // latency per request, ms (+Inf when failed)
	attempted, failed int
}

// satSwapEvery makes every n-th request of the first connection in a
// saturation phase a plan swap.
const satSwapEvery = 10

// saturate sends requests back to back on every connection for d: the
// daemon's throughput and latencies when a request is always waiting.
// The first connection swaps a plan every satSwapEvery requests.
func (sm *serveMixed) saturate(dm *daemon, d time.Duration, tl *tally, cycle int, swaps map[string]int) satResult {
	var mu sync.Mutex
	var res satResult
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < serveConns; w++ {
		rng := rand.New(rand.NewSource(subSeed(sm.cfg.Seed, fmt.Sprintf("serve/saturate/%d/%d", cycle, w))))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				app := apps[rng.Intn(len(apps))]
				spec := reqSpec{kind: kindScan, app: app, victim: rng.Intn(len(sm.in.Victims[app]))}
				if w == 0 && i%satSwapEvery == satSwapEvery-1 {
					swaps[app]++ // only this goroutine touches swaps during the phase
					v := swaps[app] % 2
					spec = reqSpec{kind: kindSwap, app: app, variant: v, version: fmt.Sprintf("%s-%d", variants[v], swaps[app])}
				}
				t0 := time.Now()
				err := sm.send(dm.addr, spec, tl, nil, fmt.Sprintf("c%d-sat%d-%d", cycle, w, i))
				lat := ms(time.Since(t0))
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					lat = inf
					sm.res.problem("%v", err)
				}
				if spec.kind == kindSwap {
					res.swaps = append(res.swaps, lat)
				} else {
					res.scans = append(res.scans, lat)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	res.rate = float64(res.attempted-res.failed) / time.Since(start).Seconds()
	return res
}

func cpuOf(ps *os.ProcessState) time.Duration {
	return ps.UserTime() + ps.SystemTime()
}
