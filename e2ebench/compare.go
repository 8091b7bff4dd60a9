package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// The paired comparator. Given a parent and a change, it either runs the
// benchmark on both checkouts itself —
//
//	e2ebench compare -parent DIR -change DIR -workloads fleet-disk,serve-mixed -pairs 10 -seconds 30
//
// alternating which side runs first in each pair — or reads result sets
// saved earlier (the .jsonl files a run appends under .bench_build/results):
//
//	e2ebench compare -a parent.jsonl -b change.jsonl
//
// and applies the choosing-metrics rule: a gain counts only when the
// change wins at least nine tenths of the pairs (ties count for neither)
// and the medians differ by more than the parent's interquartile range; a
// metric whose run-to-run spread exceeds its bound is unresolved, unless
// every change run beats every parent run.

// sample is one run's end-to-end values, keyed for pairing.
type sample struct {
	Workload string
	Seed     int64
	Values   map[string]float64
}

func runCompare(args []string, w io.Writer) error {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	aFile := fset.String("a", "", "parent result set (.jsonl of saved runs)")
	bFile := fset.String("b", "", "change result set")
	parent := fset.String("parent", "", "parent checkout to run")
	change := fset.String("change", "", "change checkout to run")
	wls := fset.String("workloads", "learn-paper,fleet-disk,serve-mixed", "workloads to run, comma-separated")
	pairs := fset.Int("pairs", 10, "pairs per workload")
	seconds := fset.Float64("seconds", 30, "measured seconds per run")
	out := fset.String("out", "", "directory to save the run mode's result sets (parent.jsonl, change.jsonl)")
	if err := fset.Parse(args); err != nil {
		return err
	}
	var as, bs []sample
	var err error
	switch {
	case *aFile != "" && *bFile != "":
		if as, err = readSamples(*aFile); err != nil {
			return err
		}
		if bs, err = readSamples(*bFile); err != nil {
			return err
		}
	case *parent != "" && *change != "":
		as, bs, err = runPairs(*parent, *change, strings.Split(*wls, ","), *pairs, *seconds)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := saveSamples(filepath.Join(*out, "parent.jsonl"), as); err != nil {
				return err
			}
			if err := saveSamples(filepath.Join(*out, "change.jsonl"), bs); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("give -a and -b, or -parent and -change")
	}
	printVerdicts(w, compareSets(as, bs, endToEnd))
	return nil
}

// readSamples reads saved run records, skipping traced runs.
func readSamples(path string) ([]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []sample
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Conditions.Trace || !rec.Correct {
			continue
		}
		s := sample{Workload: rec.Conditions.Workload, Seed: rec.Conditions.Seed, Values: map[string]float64{}}
		for name, m := range rec.Metrics {
			s.Values[name] = m.Value
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func saveSamples(path string, ss []sample) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, s := range ss {
		rec := record{Conditions: Conditions{Workload: s.Workload, Seed: s.Seed}, Correct: true, Metrics: map[string]Summary{}}
		for name, v := range s.Values {
			rec.Metrics[name] = Summary{Value: v}
		}
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf.Write(append(data, '\n'))
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// runPairs runs the benchmark on both checkouts, pair by pair with one
// seed per pair, the parent first in even pairs and the change first in
// odd ones.
func runPairs(parent, change string, wls []string, pairs int, seconds float64) (as, bs []sample, err error) {
	for _, wl := range wls {
		for p := 0; p < pairs; p++ {
			seed := int64(1000 + p)
			order := []string{parent, change}
			if p%2 == 1 {
				order = []string{change, parent}
			}
			for _, dir := range order {
				s, err := runOnce(dir, wl, seed, seconds)
				if err != nil {
					return nil, nil, err
				}
				if dir == parent {
					as = append(as, s)
				} else {
					bs = append(bs, s)
				}
			}
		}
	}
	return as, bs, nil
}

// runOnce runs one untraced benchmark run in a checkout and reads its
// result line.
func runOnce(dir, wl string, seed int64, seconds float64) (sample, error) {
	cmd := exec.Command("bash", "e2ebench/run.sh", "--workload", wl, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("%s %s seed %d: %w", dir, wl, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return sample{}, fmt.Errorf("%s %s seed %d: result line: %w", dir, wl, seed, err)
	}
	if !res.Correct {
		return sample{}, fmt.Errorf("%s %s seed %d: outputs incorrect", dir, wl, seed)
	}
	s := sample{Workload: wl, Seed: seed, Values: map[string]float64{}}
	for name, m := range res.Metrics {
		s.Values[name] = m.Value
	}
	return s, nil
}

// verdict is one (workload, metric) row of a comparison.
type verdict struct {
	Workload, Metric  string
	Pairs, Wins       int
	ParentMed, ChgMed float64
	ParentQ1, ParentQ3,
	ChgQ1, ChgQ3 float64
	Spread  float64 // the wider side's IQR as a share of its median
	Outcome string
}

// compareSets pairs runs by (workload, seed), in order, and judges every
// metric of defs on every workload.
func compareSets(as, bs []sample, defs []metricDef) []verdict {
	type key struct {
		wl   string
		seed int64
	}
	queue := map[key][]sample{}
	for _, b := range bs {
		k := key{b.Workload, b.Seed}
		queue[k] = append(queue[k], b)
	}
	paired := map[string][][2]sample{}
	var order []string
	for _, a := range as {
		k := key{a.Workload, a.Seed}
		if len(queue[k]) == 0 {
			continue
		}
		if _, seen := paired[a.Workload]; !seen {
			order = append(order, a.Workload)
		}
		paired[a.Workload] = append(paired[a.Workload], [2]sample{a, queue[k][0]})
		queue[k] = queue[k][1:]
	}
	var out []verdict
	for _, wl := range order {
		for _, d := range defs {
			var av, bv []float64
			for _, p := range paired[wl] {
				x, okA := p[0].Values[d.Name]
				y, okB := p[1].Values[d.Name]
				if okA && okB {
					av, bv = append(av, x), append(bv, y)
				}
			}
			if len(av) > 0 {
				out = append(out, judgeMetric(wl, d, av, bv))
			}
		}
	}
	return out
}

// judgeMetric applies the pair rule to one metric's paired values.
func judgeMetric(wl string, d metricDef, av, bv []float64) verdict {
	v := verdict{Workload: wl, Metric: d.Name, Pairs: len(av)}
	v.ParentQ1, v.ParentMed, v.ParentQ3 = quartiles(av)
	v.ChgQ1, v.ChgMed, v.ChgQ3 = quartiles(bv)
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range av {
		if better(bv[i], av[i]) {
			v.Wins++
		}
	}
	v.Spread = math.Max(spread(av), spread(bv))
	allBetter := true
	for _, y := range bv {
		for _, x := range av {
			if !better(y, x) {
				allBetter = false
			}
		}
	}
	// worse is how far the change's median is worse than the parent's, as
	// a share of the parent's.
	worse := (v.ChgMed - v.ParentMed) / math.Abs(v.ParentMed)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case v.Spread > d.Bound && !allBetter:
		v.Outcome = "unresolved (spread above bound)"
	case 10*v.Wins >= 9*v.Pairs && better(v.ChgMed, v.ParentMed) &&
		math.Abs(v.ChgMed-v.ParentMed) > v.ParentQ3-v.ParentQ1:
		v.Outcome = "gain"
	case worse > d.Bound:
		v.Outcome = "regression"
	default:
		v.Outcome = "no change within bound"
	}
	return v
}

func printVerdicts(w io.Writer, vs []verdict) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tspread\tverdict")
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%.3f\t%s\n",
			v.Workload, v.Metric, v.ParentMed, v.ParentQ1, v.ParentQ3,
			v.ChgMed, v.ChgQ1, v.ChgQ3, v.Wins, v.Pairs, v.Spread, v.Outcome)
	}
	tw.Flush()
}
