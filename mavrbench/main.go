// Command mavrbench is the end-to-end and per-layer benchmark of the
// MAVR reproduction. It drives the program from the outside, through
// the public API of its packages, and measures four workloads:
//
//	golden-replay     the seven built-in scenarios against testdata/golden
//	scengen-sweep     generated scenarios: Generate -> Run -> CheckAll
//	armory-provision  closed-loop HTTP clients against one armory service
//	fleet-telemetry   a free-running MAVR fleet watched over loopback UDP
//
// Usage (from the repository root, normally through mavrbench/run.sh):
//
//	mavrbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--inject <fault>]
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run. The
// lines before it describe the run environment and the details behind
// each figure (sample counts, domain-unit throughput, span table).
// --inject corrupts one output on purpose (corrupt-golden,
// forge-signature, violate-invariant) so the self-test can prove the
// correctness checks count failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	root    string
	seed    int64
	seconds time.Duration
	trace   bool
	inject  string
	procs   int
}

// outcome is what a workload hands back: the ops it attempted and
// failed, the metrics of the requested mode, and free-form details.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
	details   map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, details: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one attempted op. It failed when it has any reason;
// then it counts once, whatever the number of reasons, which go to
// stderr.
func (o *outcome) check(what string, reasons []string) {
	o.attempted++
	if len(reasons) > 0 {
		o.failed++
		fmt.Fprintf(os.Stderr, "mavrbench: FAIL: %s: %s\n", what, strings.Join(reasons, "; "))
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"golden-replay":    runGolden,
	"scengen-sweep":    runSweep,
	"armory-provision": runArmory,
	"fleet-telemetry":  runFleet,
}

var injections = map[string]string{
	"corrupt-golden":    "golden-replay",
	"violate-invariant": "scengen-sweep",
	"forge-signature":   "armory-provision",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mavrbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	inject := flag.String("inject", "", "self-test fault: corrupt-golden, forge-signature or violate-invariant")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, names)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *inject != "" && injections[*inject] != *name {
		return fmt.Errorf("--inject %q does not apply to workload %q", *inject, *name)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat("testdata/golden"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	cfg := config{
		root:    root,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		inject:  *inject,
		procs:   runtime.NumCPU(),
	}

	env := environment(root)
	env["workload"] = *name
	env["seed"] = *seed
	env["seconds"] = *seconds
	env["trace"] = *trace
	printLine("env", env)

	out, err := wl(cfg)
	if err != nil {
		return err
	}
	if out.attempted < 1 {
		return fmt.Errorf("workload attempted no operation")
	}
	failRatio := float64(out.failed) / float64(out.attempted)
	out.details["fail_ratio"] = failRatio
	if cfg.trace {
		out.set("fail_ratio", failRatio, "ratio")
	}
	printLine("details", out.details)

	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printLine writes one labelled JSON object to stdout.
func printLine(kind string, v any) {
	b, err := json.Marshal(map[string]any{kind: v})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mavrbench: encoding", kind, err)
		return
	}
	fmt.Println(string(b))
}
