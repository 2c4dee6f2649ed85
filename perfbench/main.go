// Command perfbench is the repository's benchmark: it runs one workload of
// the register allocator for a fixed time, checks every output, and prints
// the end-to-end metrics (untraced run) or the per-layer split (traced run)
// as one JSON object on the last line of standard output. Run it from the
// repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload module-batch --seed 1 --seconds 10 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads and the metrics
// with their units; the program reads it and refuses to print a result that
// does not name exactly those metrics. See README.md for what each workload
// and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed     int64
	duration time.Duration
	traced   bool
	// traceOut is the file the traced run writes its spans to.
	traceOut string
}

// report is what a workload hands back: metric values by name, the op
// counts, and provenance or diagnostic lines printed before the result.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records n failed ops with the reason.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.notef("FAIL: "+format, args...)
}

// workloads maps each workload name to its runner. Each runner's comment
// says why the workload exists and which layer it isolates.
var workloads = map[string]func(runConfig) (*report, error){
	"module-batch":    runModuleBatch,
	"giant":           runGiant,
	"module-machine":  runModuleMachine,
	"serve-redundant": runServeRedundant,
}

// spec mirrors the parts of BENCHMARK.json the program checks itself
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured time of the run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// The benchmark runs from the repository root: the definition it checks
// itself against, and the directory its span files go to.
const (
	specPath = "BENCHMARK.json"
	traceDir = ".bench_build"
)

func run(workload string, seed int64, seconds float64, trace int) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("parsing %s: %w", specPath, err)
	}
	known := false
	for _, w := range sp.Workloads {
		known = known || w.Name == workload
	}
	runner, ok := workloads[workload]
	if !ok || !known {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be > 0 and --trace 0 or 1")
	}
	cfg := runConfig{
		seed:     seed,
		duration: time.Duration(seconds * float64(time.Second)),
		traced:   trace == 1,
	}
	if cfg.traced {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return fmt.Errorf("creating the trace directory: %w", err)
		}
		cfg.traceOut = fmt.Sprintf("%s/trace-%s-seed%d.jsonl", traceDir, workload, seed)
	}

	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d\n", workload, seed, seconds, trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rep, err := runner(cfg)
	if err != nil {
		return err
	}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}

	want := sp.EndToEnd
	if cfg.traced {
		want = sp.PerLayer
	}
	out := resultOut{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	var idle []string
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		switch {
		case !ok && !cfg.traced:
			return fmt.Errorf("workload %s did not measure metric %s", workload, m.Name)
		case !ok:
			// A layer this workload does not exercise did no work.
			idle = append(idle, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			fmt.Printf("# metric %s is %v\n", m.Name, v)
			v = -1
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		delete(rep.metrics, m.Name)
	}
	if len(idle) > 0 {
		fmt.Printf("# not exercised by this workload (0): %s\n", strings.Join(idle, " "))
	}
	if len(rep.metrics) > 0 {
		extra := make([]string, 0, len(rep.metrics))
		for name := range rep.metrics {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		return fmt.Errorf("workload %s measured metrics %s absent from %s", workload, extra, specPath)
	}
	if out.Attempted < 1 {
		out.Correct = false
		out.Attempted = 1
		out.Failed = 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
	return nil
}
