// Command perfbench is MEALib's benchmark: four workloads over the paper's
// radar applications, the multi-stack graph engine, the mealibd service and
// the out-of-core staging path. It drives each layer through its public
// functions, checks every output bit for bit against a reference computed
// at set-up, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 a separate traced run times each call into a layer and
// reports the per-layer split. See README.md for the metric table.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload radar --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// An untraced run sets its workload up at least setupReps times and until
// setupBudget has passed, at most setupMaxReps times; setup_s is the
// median. Only the last set-up is measured.
const (
	setupReps    = 3
	setupBudget  = time.Second
	setupMaxReps = 100
)

// runCfg is one invocation's settings.
type runCfg struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(runCfg) (*outcome, error){
	"radar": runRadar,
	"graph": runGraph,
	"serve": runServe,
	"ooc":   runOOC,
}

// Each workload's latency_tail_us is the highest round percentile with at
// least ten units beyond it in a run at this commit's rate, capped at p99:
// radar finishes about 85 frames in 25 s and graph about 45 solves, so
// their p99 would be the slowest unit, too unsteady to gate.
const (
	radarTail = 0.85
	graphTail = 0.75
	serveTail = 0.99
	oocTail   = 0.99
)

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output differs from the reference")

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
	// samples records how many measurements stand behind a metric.
	samples map[string]int
	// trace is the traced run's Chrome trace.
	trace []byte
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

// fail records a failed operation.
func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: radar, graph, serve or ooc")
	seed := flag.Int64("seed", 1, "workload seed; every input generator derives from it")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload radar|graph|serve|ooc, --seconds > 0 and --trace 0|1")
		return 2
	}
	cfg := runCfg{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	stamp, _ := json.Marshal(envStamp())
	fmt.Printf("env %s\n", stamp)

	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "perfbench-"+*workload+".trace.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := os.WriteFile(path, out.trace, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("trace %s (%d bytes, validated)\n", path, len(out.trace))
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := report(os.Stdout, out, defs, !cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if out.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", out.failed, out.attempted, out.firstErr)
	}
	fmt.Println(line)
	if out.failed > 0 || out.attempted == 0 {
		return 1
	}
	return 0
}

// report prints the metric table and returns the result line. With
// required set, every metric of defs must have been reported; otherwise a
// missing one reads 0, which marks a layer the workload does not call.
func report(w io.Writer, out *outcome, defs []metricDef, required bool) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(defs))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tclock\tsamples")
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && required {
			return "", fmt.Errorf("workload reported no %s", d.name)
		}
		metrics[d.name] = val{Value: v, Unit: d.unit}
		n := ""
		if c, ok := out.samples[d.name]; ok {
			n = fmt.Sprint(c)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\n", d.name, v, d.unit, d.clock, n)
	}
	fmt.Fprintf(tw, "fail_ratio\t%g\tratio\tcount\t%d\n", failRatio(out), out.attempted)
	if err := tw.Flush(); err != nil {
		return "", err
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics})
	return string(line), err
}

func failRatio(o *outcome) float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// envStamp records where a result was measured.
func envStamp() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// liveHeapMB is the Go heap still reachable after a full collection. Read
// right after set-up and warm-up, it is the set-up program's resident
// state. Unlike memory obtained from the OS it does not move with
// garbage-collector timing, and unlike a reading after the measured phase
// it does not grow with the number of units a faster program completes
// (mealibd's default tracer keeps every launch's events in memory).
func liveHeapMB() float64 {
	// The second collection empties what sync.Pools kept from the first.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of ds by nearest rank; ds is sorted in
// place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, min(i, len(ds)-1))]
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
