// Command e2ebench is the repository benchmark: it generates one
// workload's inputs from a seed, runs the encore program on them, checks
// the program's outputs, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds the encore CLI and this harness
// from the checkout first:
//
//	bash e2ebench/run.sh --workload fleet-disk --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer breakdown. See README.md for
// the workloads and metric definitions, and compare.go for the paired
// comparator.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Config is one run's parameters.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Root is the repository checkout; Encore the CLI built from it.
	Root   string
	Encore string
	// Work holds the generated inputs; it is removed when the run ends.
	Work string
}

// Result is what a workload hands back: its metrics, its operation
// counts, and every correctness problem it found.
type Result struct {
	Metrics   map[string]Summary
	Attempted int
	Failed    int
	Problems  []string
	// Notes are human-readable lines printed before the result, such as
	// the workload's own names for the generic metrics.
	Notes []string
}

func (r *Result) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(Config) (*Result, error){
	"learn-paper": runLearnPaper,
	"fleet-disk":  runFleetDisk,
	"serve-mixed": runServeMixed,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "learn-child" {
		if err := learnChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench learn-child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload: learn-paper, fleet-disk or serve-mixed")
	seed := fset.Int64("seed", 1, "input generation seed")
	seconds := fset.Float64("seconds", 30, "measured seconds per run")
	trace := fset.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	root := fset.String("root", ".", "repository checkout holding go.mod")
	encoreBin := fset.String("encore", "", "encore CLI built from -root")
	if err := fset.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *encoreBin == "" {
		return errors.New("-encore is required")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(absRoot, "go.mod")); err != nil {
		return fmt.Errorf("-root %s is not a checkout: %w", absRoot, err)
	}
	buildDir := filepath.Join(absRoot, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := Config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Root: absRoot, Encore: *encoreBin, Work: work,
	}
	res, err := runner(cfg)
	if err != nil {
		return err
	}
	want := endToEnd
	if cfg.Trace {
		want = perLayer
	}
	for _, m := range want {
		s, ok := res.Metrics[m.Name]
		if !ok {
			if !cfg.Trace {
				return fmt.Errorf("%s did not measure %s", cfg.Workload, m.Name)
			}
			s = single(0, m.Unit) // the layer is bypassed on this workload
			res.Metrics[m.Name] = s
		}
		if s.Unit != m.Unit {
			return fmt.Errorf("%s: unit %q, catalog says %q", m.Name, s.Unit, m.Unit)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("%s measured %v", m.Name, s.Value)
		}
	}
	// Quartiles of samples that include failed requests can be infinite;
	// JSON cannot carry that, so the saved record marks them -1.
	for name, s := range res.Metrics {
		for _, f := range []*float64{&s.Value, &s.Median, &s.Q1, &s.Q3} {
			if math.IsNaN(*f) || math.IsInf(*f, 0) {
				*f = -1
			}
		}
		res.Metrics[name] = s
	}
	cond := conditions(cfg)
	rec := record{Conditions: cond, Correct: len(res.Problems) == 0,
		Attempted: res.Attempted, Failed: res.Failed, Problems: res.Problems, Metrics: res.Metrics}
	if err := appendRecord(filepath.Join(buildDir, "results", cfg.Workload+".jsonl"), rec); err != nil {
		return err
	}
	printReport(stdout, rec, want, res.Notes)
	return nil
}

// programProcs is the GOMAXPROCS every measured program process runs
// with: the encore CLI and daemon, and the learner. On the shared 2-vCPU
// recording machine, work that needs both vCPUs at once slowed by up to
// 30% between sets of runs whenever the host lent the second one out,
// while single-threaded work tracked its CPU time within 10%.
const programProcs = 1

// programCmd is exec.Command for a measured program process.
func programCmd(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", programProcs))
	return cmd
}

// Conditions are recorded with every result, so a number always says
// what produced it.
type Conditions struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// ProgramProcs is the GOMAXPROCS of the measured program processes.
	ProgramProcs int    `json:"programGomaxprocs"`
	NumCPU       int    `json:"numcpu"`
	GoVersion    string `json:"goVersion"`
	// Commit identifies the code under test. The checkout need not be a
	// git clone, so it is a digest of the program's Go sources and go.mod.
	Commit string `json:"commit"`
	Start  string `json:"start"`
}

func conditions(cfg Config) Conditions {
	return Conditions{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), ProgramProcs: programProcs, NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: sourceDigest(cfg.Root),
		Start: time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceDigest hashes every .go file and go.mod of the program (the
// benchmark's own directory and dot-directories excluded) in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && p != root && (strings.HasPrefix(name, ".") || name == "e2ebench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// record is one run's saved result: conditions, correctness and every
// metric with its median and quartiles.
type record struct {
	Conditions Conditions         `json:"conditions"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	Metrics    map[string]Summary `json:"metrics"`
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints the conditions, one line per metric and, last, the
// one-line JSON result.
func printReport(w io.Writer, rec record, want []metricDef, notes []string) {
	c := rec.Conditions
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v gomaxprocs=%d program_gomaxprocs=%d numcpu=%d go=%s commit=%s\n",
		c.Workload, c.Seed, c.Seconds, c.Trace, c.GOMAXPROCS, c.ProgramProcs, c.NumCPU, c.GoVersion, c.Commit)
	for _, n := range notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "# INCORRECT: %s\n", p)
	}
	line := func(name, suffix string) {
		s := rec.Metrics[name]
		if s.Pct != "" {
			suffix = " at " + s.Pct + suffix
		}
		fmt.Fprintf(w, "%-28s %14.6g %-6s median=%.6g q1=%.6g q3=%.6g n=%d%s\n",
			name, s.Value, s.Unit, s.Median, s.Q1, s.Q3, s.N, suffix)
	}
	gated := map[string]bool{}
	for _, m := range want {
		gated[m.Name] = true
		line(m.Name, "")
	}
	var extra []string
	for name := range rec.Metrics {
		if !gated[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		line(name, " (reported, not gated)")
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, max(rec.Attempted, 1), rec.Failed, map[string]metric{}}
	for _, m := range want {
		s := rec.Metrics[m.Name]
		out.Metrics[m.Name] = metric{Value: s.Value, Unit: s.Unit}
	}
	data, _ := json.Marshal(out) // plain floats, strings and maps always encode
	fmt.Fprintln(w, string(data))
}
