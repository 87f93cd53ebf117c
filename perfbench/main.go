// Command perfbench is the simulator's benchmark: the host time the
// simulator takes to run four named workloads through core.Run, with a
// separate traced run that attributes that time to the simulator's
// layers from outside the engine. See README.md for the workloads, the
// metrics and how they relate.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload closed-steal --seed 5 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all
//
// One invocation with a named workload prints human-readable lines and,
// as its last line, one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. With --workload all it runs every
// workload, each in its own process and both ways, and prints the
// tables. It exits non-zero when any run fails its correctness check.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all: "+workloadNames())
	seed := fs.Uint64("seed", 5, "seed of the workload's inputs")
	seconds := fs.Int("seconds", defaultSeconds, "host seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	// No workload needs more than two threads (closed-steal-par2 runs
	// two shards); a fixed cap also fixes the garbage collector's worker
	// count, whatever the host's core count.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *name == "all" {
		return runAll(*seed, *seconds, stdout)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (known: %s)\n", err, workloadNames())
		return 2
	}
	var rep *report
	if *traced == 0 {
		rep, err = measureEndToEnd(w, *seed, *seconds)
	} else {
		rep, err = measureLayers(w, *seed, *seconds, profileSamples)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
	// tableOnly keeps the metric out of the result line: a host time of
	// a layer that only some workloads run reads exactly 0 on the
	// others, and the result line carries no constant times.
	tableOnly bool
}

// report is one invocation's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	metrics   []metric
	// lines are human-readable notes printed before the metrics.
	lines []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) addTableOnly(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, tableOnly: true})
}

func (r *report) note(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

// record counts one attempted run and books its failure, if any.
func (r *report) record(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

// result is the machine-readable last line of an invocation.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, l := range r.lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  fail_ratio %d/%d\n", r.failed, r.attempted)
	out := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]resultValue{},
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-28s %16s %s\n", m.name, formatValue(m.value), m.unit)
		if !m.tableOnly {
			out.Metrics[m.name] = resultValue{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or infinite value can fail to marshal: a bug.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// runAll runs every workload in its own process, untraced and traced,
// so peak_rss_mb describes one workload, and prints both tables.
func runAll(seed uint64, seconds int, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// tables[traced][i] holds workload i's metric lines.
	var tables [2][]map[string]resultValue
	status := 0
	attempted, failed := 0, 0
	for _, w := range workloads {
		for traced := 0; traced < 2; traced++ {
			fmt.Fprintf(os.Stderr, "perfbench: running %s (trace %d)\n", w.name, traced)
			cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			res, parseErr := lastResult(out)
			if runErr != nil || parseErr != nil || !res.Correct {
				fmt.Fprintf(stdout, "%s", out)
				fmt.Fprintf(stdout, "perfbench: %s --trace %d failed: %v\n", w.name, traced, errors.Join(runErr, parseErr))
				status = 1
			}
			if res != nil {
				attempted += res.Attempted
				failed += res.Failed
			}
			tables[traced] = append(tables[traced], metricLines(out))
		}
	}
	for traced, title := range []string{"end-to-end metrics (tracing off)", "per-layer metrics (traced run)"} {
		names, units := metricNames(tables[traced])
		fmt.Fprintf(stdout, "\n%s, seed %d, %d s per run\n", title, seed, seconds)
		fmt.Fprintf(stdout, "%-28s %-8s", "metric", "unit")
		for _, w := range workloads {
			fmt.Fprintf(stdout, " %18s", w.name)
		}
		fmt.Fprintln(stdout)
		for j, n := range names {
			fmt.Fprintf(stdout, "%-28s %-8s", n, units[j])
			for _, t := range tables[traced] {
				cell := "-"
				if v, ok := t[n]; ok {
					cell = formatValue(v.Value)
				}
				fmt.Fprintf(stdout, " %18s", cell)
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "\nfail_ratio %d/%d\n", failed, attempted)
	return status
}

// metricLines reads the "name value unit" lines report.print writes,
// which include the table-only metrics the result line leaves out.
func metricLines(out []byte) map[string]resultValue {
	m := map[string]resultValue{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = resultValue{v, f[2]}
		}
	}
	return m
}

// lastResult decodes the JSON object on the last line of out.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// metricNames returns the sorted union of the tables' metric names,
// with their units.
func metricNames(tables []map[string]resultValue) (names, units []string) {
	unit := map[string]string{}
	for _, t := range tables {
		for k, v := range t {
			unit[k] = v.Unit
		}
	}
	for k := range unit {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, n := range names {
		units = append(units, unit[n])
	}
	return names, units
}
