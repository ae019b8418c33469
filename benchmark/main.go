// Command benchmark is the repository's end-to-end benchmark. One
// process runs one named workload from one seed for a fixed time and
// prints, as the last line of its standard output, a JSON object with
// the ops attempted and failed, whether every output checked out, and
// the metrics. From the repository root:
//
//	bash benchmark/run.sh --workload desktop --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the same workload runs once untraced and
// once with a span recorded around every call the benchmark makes into
// a layer, and the metrics are the per-layer ones (see LAYERS.md).
//
// The benchmark drives the program only through its exported
// functions and never edits it. run.sh builds it from source inside
// the checkout and runs it from the checkout root; every file it
// writes lives under .bench_build there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workDir holds everything a run writes: store directories and the
// span dumps of traced runs. It is relative to the checkout root.
const workDir = ".bench_build/work"

// runConfig is what every workload receives.
type runConfig struct {
	seed int64
	dir  string // private scratch directory for this run
}

// phase is the outcome of one measured pass of a workload.
type phase struct {
	attempted int64
	failed    int64
	correct   bool
	rate      float64 // ops_per_s
	metrics   map[string]float64
}

// benchWorkload runs one pass. With tr nil the pass is untraced; otherwise
// every call into a layer is wrapped in a span on tr (or on tracers
// the workload derives from it).
type benchWorkload struct {
	name string
	// run builds the system under test several times, reporting the
	// median as setup_s, then measures one pass for d, recording the
	// end-to-end metrics (untraced) or span-derived layer metrics
	// (traced) into the returned phase.
	run func(cfg runConfig, d time.Duration, tr *tracer) (*phase, error)
	// rungs measures the isolated layer rungs after the traced pass,
	// for d, given the untraced pass's metrics. Nil when the workload
	// has none.
	rungs func(d time.Duration, untraced *phase, out map[string]float64) error
}

var workloads = []benchWorkload{desktopWorkload, fleetWorkload, forensicsWorkload}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: desktop, fleet-ingest or audit-forensics")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return err
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}

	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: *seed, dir: dir}
	total := time.Duration(*seconds * float64(time.Second))

	var res result
	if *trace == 0 {
		p, err := w.run(cfg, total, nil)
		if err != nil {
			return err
		}
		res = newResult(p.attempted, p.failed, p.correct)
		p.metrics["ops_per_s"] = p.rate
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: p.metrics[m.name], Unit: m.unit}
		}
	} else {
		m, err := traced(w, cfg, total, &res)
		if err != nil {
			return err
		}
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{Value: m[l.name], Unit: l.unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// traced runs the untraced and traced passes (and the rungs) that make
// up a --trace 1 run and returns the per-layer metrics. Metrics a
// workload does not produce stay zero: that layer did no work there.
func traced(w *benchWorkload, cfg runConfig, total time.Duration, res *result) (map[string]float64, error) {
	passD := total * 2 / 5
	if w.rungs == nil {
		passD = total / 2
	}
	plain, err := w.run(cfg, passD, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tp, err := w.run(cfg, passD, tr)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(perLayer))
	for k, v := range tp.metrics {
		out[k] = v
	}
	// End-to-end numbers come from the untraced pass.
	for _, k := range fromUntraced {
		if v, ok := plain.metrics[k]; ok {
			out[k] = v
		}
	}
	if u, t := plain.rate, tp.rate; u > 0 {
		out["trace.overhead_pct"] = (u - t) / u * 100
	}
	if w.rungs != nil {
		if err := w.rungs(total-2*passD, plain, out); err != nil {
			return nil, err
		}
	}
	if err := tr.dump(filepath.Join(filepath.Dir(workDir), "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
		return nil, err
	}
	*res = newResult(plain.attempted+tp.attempted, plain.failed+tp.failed, plain.correct && tp.correct)
	return out, nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(attempted, failed int64, correct bool) result {
	return result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0: the
// ones defined on all three workloads that repeat from run to run
// (LAYERS.md says why op_p99_us and the workload-specific latencies
// are reported with the layers instead).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"heap_mb", "MB"},
}

// fromUntraced are the per-layer metrics that are end-to-end numbers
// all the same: --trace 1 reports them from its untraced pass.
var fromUntraced = []string{
	"op_p99_us", "dev_open_p50_us", "paste_p50_us", "capture_p50_us", "create_p50_us",
	"ack_p50_ms", "ack_p99_ms", "store_open_ms",
}

// perLayer are the metrics every workload reports with --trace 1.
var perLayer = []metricDef{
	{"op_p99_us", "us"},
	{"dev_open_p50_us", "us"},
	{"paste_p50_us", "us"},
	{"capture_p50_us", "us"},
	{"create_p50_us", "us"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"store_open_ms", "ms"},

	{"xserver.input_us", "us"},
	{"xserver.paste_us", "us"},
	{"xserver.capture_us", "us"},
	{"netlink.call_us", "us"},
	{"netlink.calls_per_step", "count"},
	{"monitor.decide_us", "us"},
	{"monitor.notify_us", "us"},
	{"kernel.open_us", "us"},
	{"kernel.create_us", "us"},
	{"kernel.fork_us", "us"},
	{"ipc.pipe_us", "us"},
	{"ipc.shm_write_ns", "ns"},
	{"core.glue_us", "us"},
	{"core.glue_us.input", "us"},
	{"core.glue_us.paste", "us"},
	{"core.glue_us.capture", "us"},
	{"core.glue_us.create", "us"},
	{"core.glue_us.fork_open", "us"},
	{"core.glue_us.pipe_open", "us"},
	{"core.glue_us.shm", "us"},

	{"fleet.decide_us", "us"},
	{"fleet.notify_us", "us"},
	{"auditstore.append_p50_us", "us"},
	{"auditstore.append_p99_us", "us"},
	{"auditstore.fsync_p50_us", "us"},
	{"auditstore.fsync_p99_us", "us"},
	{"auditstore.fsyncs", "count"},
	{"auditstore.records_per_commit", "count"},
	{"auditstore.compactions", "count"},
	{"auditstore.compact_stall_ms", "ms"},
	{"auditstore.write_amp", "ratio"},
	{"auditstore.segments", "count"},
	{"auditstore.disk_bytes_per_record", "B"},
	{"auditstore.heap_bytes_per_record", "B"},
	{"auditstore.scan_since_us", "us"},
	{"auditstore.scan_pid_us", "us"},
	{"auditstore.scan_deny_us", "us"},
	{"auditstore.scan_reason_us", "us"},
	{"auditstore.get_us", "us"},
	{"gen.lateness_p50_us", "us"},
	{"gen.lateness_p99_us", "us"},
	{"trace.overhead_pct", "%"},
}

// liveHeap forces a collection and returns the live heap in bytes. The
// second collection empties sync.Pool victim caches, which one
// collection leaves in place.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapMB is the live heap a system under test holds: the heap after a
// forced GC, less the baseline taken the same way before it was built.
func heapMB(base, after uint64) float64 {
	if after < base {
		return 0
	}
	return float64(after-base) / 1e6
}

// medianSeconds returns the median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return median(v)
}

// calmQuantile selects the least-disturbed tenth of a run's chunks,
// windows or cycles: a run reports the 10th percentile of their
// latencies and the 90th of their rates. On a shared 2-vCPU host the
// memory system switches every few hundred milliseconds between a calm
// state and one about 1.5 times slower, for a share of the time that
// drifts over minutes. The median chunk followed that share: desktop
// op_p50_us read 1.1 to 1.6 µs, and audit-forensics op_p50_us 8.7 to
// 12.6 µs, across runs of the same code minutes apart. A change in the
// program moves every chunk, the calm ones too.
const calmQuantile = 0.1

// calm returns the calm-tenth latency of per-chunk values v.
func calm(v []float64) float64 { return quantile(v, calmQuantile) }

// calmRate returns the calm-tenth rate of per-chunk rates v.
func calmRate(v []float64) float64 { return quantile(v, 1-calmQuantile) }

// median returns the median of v (the upper one for an even count).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v (nearest rank), or NaN for an
// empty v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}
