// Command ledgerbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload against the unmodified library, checks its answers
// against an oracle, and prints a report followed, on the last line, by
// one JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json;
// with --trace 1 the run measures the workload untraced and then traced
// (half the seconds each) and the metrics are the per-layer set, with the
// tracing overhead of every end-to-end metric. See README.md.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash ledgerbench/run.sh --workload read-mix --seed 1 --seconds 30 --trace 0
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
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "scratch directory for checkpoints and spans")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	var w *workload
	all := append(append([]workload{}, workloads...), manualWorkloads...)
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "ledgerbench: need --workload (one of fig1-ingest, read-mix, durable-site), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "ledgerbench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "ledgerbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs the workload once untraced, and in a traced run once more
// traced, and assembles the result.
func measure(w *workload, seed int64, dur time.Duration, traced bool, out string, report io.Writer) (*result, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	dir, err := filepath.Abs(filepath.Join(out, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	host := readHost(dir)

	in := makeInputs(seed)
	newEnv := func(d time.Duration, tr *tracer) *env {
		return &env{in: in, dur: d, dir: dir, tr: tr, shards: nproc, log: report}
	}
	fmt.Fprintf(report, "workload %s seed %d seconds %.0f trace %v\n", w.name, seed, dur.Seconds(), traced)
	fmt.Fprintf(report, "host %s\n", host)

	if !traced {
		o, err := w.run(newEnv(dur, newTracer(false)))
		if err != nil {
			return nil, err
		}
		e2e := endToEndOf(o)
		printOutcome(report, "", o, e2e)
		return assemble(o, e2e, endToEnd)
	}

	base, err := w.run(newEnv(dur/2, newTracer(false)))
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	o, err := w.run(newEnv(dur/2, tr))
	if err != nil {
		return nil, err
	}
	plain, traced2 := endToEndOf(base), endToEndOf(o)
	printOutcome(report, "untraced ", base, plain)
	printOutcome(report, "traced ", o, traced2)
	for _, d := range endToEnd {
		diff := traced2[d.Name] - plain[d.Name]
		fmt.Fprintf(report, "trace_overhead %s %+.4g %s (%+.1f%%)\n", d.Name, diff, d.Unit, 100*ratio(diff, plain[d.Name]))
		o.layers["trace_overhead."+d.Name] = ratio(diff, plain[d.Name])
	}
	printLayers(report, o.layers)
	spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeSpans(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(report, "spans %s (%d kept)\n", spans, len(tr.kept))
	res, err := assemble(o, o.layers, perLayer)
	if err != nil {
		return nil, err
	}
	res.Attempted += base.attempted
	res.Failed += base.failed
	res.Correct = res.Correct && base.failed == 0 && base.checks > 0
	return res, nil
}

// endToEndOf computes the end-to-end metrics of one run; all but setup_s
// are the best over the run's windows (see bestWindow). keys_per_s is the
// keys of one round over the median round time, the throughput of a
// typical round; the report prints the mean-based figure beside it.
func endToEndOf(o *outcome) map[string]float64 {
	keysPerRound := ratio(float64(o.keys), float64(len(o.round.ns)))
	q := func(ns []int64, p float64) float64 {
		return bestWindow(ns, false, func(w []int64) float64 { return quantile(w, p) / 1e3 })
	}
	return map[string]float64{
		"setup_s": median(o.setup),
		"keys_per_s": bestWindow(o.round.ns, true, func(w []int64) float64 {
			return ratio(keysPerRound*1e9, quantile(w, 0.5))
		}),
		"op_p50_us": q(o.op.ns, 0.5),
		"op_p95_us": q(o.op.ns, 0.95),
	}
}

// assemble builds the JSON result from the values of the catalog's
// metrics; a missing or non-finite value is an error.
func assemble(o *outcome, values map[string]float64, defs []metricDef) (*result, error) {
	res := &result{
		Correct:   o.failed == 0 && o.checks > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(o.round.ns) == 0 {
		return nil, errors.New("no round completed")
	}
	return res, nil
}

func printOutcome(w io.Writer, prefix string, o *outcome, e2e map[string]float64) {
	fmt.Fprintf(w, "%srounds %d, calls attempted %d, failed %d, oracle checks %d, loop %.2fs\n",
		prefix, len(o.round.ns), o.attempted, o.failed, o.checks, o.loopWall.Seconds())
	samples := map[string]int{"setup_s": len(o.setup), "keys_per_s": len(o.round.ns),
		"op_p50_us": len(o.op.ns), "op_p95_us": len(o.op.ns)}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%s%s %.6g %s (n=%d)\n", prefix, d.Name, e2e[d.Name], d.Unit, samples[d.Name])
	}
	for _, q := range []float64{0.5, 0.95} {
		fmt.Fprintf(w, "%sround_p%.0f_us %.6g us (n=%d, %d beyond)\n", prefix, q*100,
			quantile(o.round.ns, q)/1e3, len(o.round.ns), beyond(len(o.round.ns), q))
	}
	for _, s := range o.steps {
		unit := map[time.Duration]string{time.Microsecond: "us", time.Millisecond: "ms"}[s.unit]
		for _, q := range s.qs {
			fmt.Fprintf(w, "%s%s_p%.0f_%s %.6g %s (n=%d, %d beyond)\n", prefix, s.name, q*100, unit,
				quantile(s.s.ns, q)/float64(s.unit), unit, len(s.s.ns), beyond(len(s.s.ns), q))
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "%s%s %.6g %s\n", prefix, n.name, n.value, n.unit)
	}
}

func printLayers(w io.Writer, L map[string]float64) {
	for _, d := range perLayer {
		fmt.Fprintf(w, "layer %s %.6g %s\n", d.Name, L[d.Name], d.Unit)
	}
}
