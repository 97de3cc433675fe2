// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the simulator's packages from outside — the
// paper's evaluation grid, record-once/replay-many fan-out, and a
// loopback simulation service — and divides every host time by an
// adjacent reference slice (refslice.go) so host speed drift cancels.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload with spans around
// each layer call, then the per-layer probes, and reports per-layer
// metrics. Every line before it is a human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Each workload sets up at least minSetups times and until setupBudget
// has passed (at most maxSetups); setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 300 * time.Millisecond
)

// minUnits is the fewest timed units a run measures, deadline or not:
// a p90 needs ten samples beyond it.
const minUnits = 100

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload.
type bench interface {
	// setup builds the workload's inputs from r.seed. It runs several
	// times (see minSetups); each call replaces the previous state.
	setup(r *run) error
	// measure runs timed units until the deadline.
	measure(r *run, deadline time.Time)
	// verify runs the untimed output checks over what measure did.
	verify(r *run)
	// probeInputs hands the per-layer probes this workload's own specs
	// and recorded stream.
	probeInputs() probeInputs
	// close releases the state of the last setup.
	close()
}

// workloadSpec names a workload and how its units run.
type workloadSpec struct {
	name string
	// unit names one op of throughput and per-op time.
	unit string
	// class is the sample class behind unit_norm_ns_*.
	class string
	// keyed workloads repeat the same inputs: their end-to-end figures
	// use each input's median, so the set of inputs a partial final pass
	// happened to reach does not move them.
	keyed bool
	make  func() bench
}

var workloadSpecs = []workloadSpec{
	{name: "paper-grid", unit: "simulated instruction", class: "cell", keyed: true,
		make: func() bench { return &paperGrid{} }},
	{name: "replay-fanout", unit: "record×config", class: "fanout",
		make: func() bench { return &replayFanout{} }},
	{name: "serve-mix", unit: "miss request", class: "miss",
		make: func() bench { return &serveMix{} }},
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-grid, replay-fanout or serve-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "measurement time")
	traced := fs.Int("trace", 0, "1 = traced run with per-layer probes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws *workloadSpec
	for i := range workloadSpecs {
		if workloadSpecs[i].name == *name {
			ws = &workloadSpecs[i]
		}
	}
	if ws == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper-grid|replay-fanout|serve-mix, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	r := newRun(*ws, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stdout)
	res, err := r.execute()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// sample is one timed unit.
type sample struct {
	class  string  // homogeneous sample class
	key    string  // the input the unit ran, for keyed workloads
	rawNs  float64 // wall time
	ops    float64 // work the unit did, in the workload's op
	ref    int     // index of the reference slice taken just before it
	traced bool    // spans were recorded around this unit
	normNs float64 // rawNs × normalizer factor; set by normalize
}

// segment is a stretch of wall time the throughput metric divides by.
// Sequential workloads have one per unit; serve-mix has one per batch.
type segment struct {
	rawNs, ops, normNs float64
	ref                int
}

// run is one benchmark invocation's state.
type run struct {
	ws     workloadSpec
	seed   uint64
	dur    time.Duration
	traced bool
	out    io.Writer
	// checkout is the working directory the benchmark was started in,
	// the repository root; temporary files live under its .bench_build.
	checkout string

	norm      *normalizer
	spanTr    *tracer // the traced run's span store; nil when untraced
	samples   []sample
	segments  []segment
	attempted int
	failed    int
	failures  []string
	// allocs is heap allocations over complete rounds of the input set
	// (deterministic for deterministic code), allocOps the ops they
	// covered.
	allocs    uint64
	allocOps  float64
	setups    []float64 // normalized seconds per setup repetition
	setupRefs []int
	rawSetup  []float64
	gcFrac    float64
	notes     []string
}

func newRun(ws workloadSpec, seed uint64, dur time.Duration, traced bool, out io.Writer) *run {
	wd, _ := os.Getwd()
	return &run{ws: ws, seed: seed, dur: dur, traced: traced, out: out, checkout: wd}
}

// fail counts one failed unit and keeps its message for the report.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tempDir returns a fresh directory under the checkout's
// .bench_build for files the workload needs on disk.
func (r *run) tempDir(tag string) (string, error) {
	base := filepath.Join(r.checkout, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, tag+"-")
}

// add records a timed unit that is also its own throughput segment.
func (r *run) add(s sample) {
	r.samples = append(r.samples, s)
	r.segments = append(r.segments, segment{rawNs: s.rawNs, ops: s.ops, ref: s.ref})
}

// unitTracer returns the tracer for unit i of pass: in a traced run
// every other unit records spans, so the untraced half measures tracing
// overhead. The parity flips from pass to pass, so an input that recurs
// at the same position in every pass runs both traced and untraced.
func (r *run) unitTracer(i, pass int) *tracer {
	if r.spanTr != nil && (i+pass)%2 == 0 {
		return r.spanTr
	}
	return nil
}

// mallocs is the process's cumulative heap allocation count. It stops
// the world to flush per-P allocation caches; without that the count
// lags by whatever the caches have not yet reported.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// execute sets up, measures, verifies and reports.
func (r *run) execute() (result, error) {
	r.norm = newNormalizer()
	var b bench
	began := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(began) < setupBudget); i++ {
		if b != nil {
			b.close()
		}
		b = r.ws.make()
		// Each repetition starts from a collected heap, so one
		// repetition's garbage is not collected on the next one's clock.
		runtime.GC()
		ref := r.norm.slice()
		t0 := time.Now()
		if err := b.setup(r); err != nil {
			b.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		raw := float64(time.Since(t0).Nanoseconds())
		r.norm.slice()
		r.rawSetup = append(r.rawSetup, raw/1e9)
		r.setups = append(r.setups, raw)
		r.setupRefs = append(r.setupRefs, ref)
	}
	defer b.close()
	for i := range r.setups {
		r.setups[i] *= r.norm.factor(r.setupRefs[i]) / 1e9
	}
	r.norm.slices = r.norm.slices[:0]

	measureFor := r.dur
	if r.traced {
		// The traced run spends part of its time on the per-layer
		// probes; units alternate traced/untraced.
		measureFor = r.dur / 2
		r.spanTr = newTracer()
	}
	// Start every measurement from a collected heap, with the
	// runtime's one-time collector set-up behind it.
	runtime.GC()
	gc0 := gcCPU()
	b.measure(r, time.Now().Add(measureFor))
	r.norm.slice()
	gc1 := gcCPU()
	if d := gc1[1] - gc0[1]; d > 0 {
		r.gcFrac = (gc1[0] - gc0[0]) / d
	}
	r.normalize()
	b.verify(r)

	var res result
	if r.traced {
		p := newProber(r, b.probeInputs())
		p.runAll()
		res = r.perLayer(p)
		r.writeSpans()
	} else {
		res = r.endToEnd()
	}
	r.printReport(res)
	return res, nil
}

// normalize applies the reference factors.
func (r *run) normalize() {
	for i := range r.samples {
		s := &r.samples[i]
		s.normNs = s.rawNs * r.norm.factor(s.ref)
	}
	for i := range r.segments {
		s := &r.segments[i]
		s.normNs = s.rawNs * r.norm.factor(s.ref)
	}
}

// perOp returns each sample's per-op time (normalized or raw) for one
// class, in ns, optionally keeping only traced or untraced units.
func (r *run) perOp(class string, norm bool, keep func(sample) bool) []float64 {
	var xs []float64
	for _, s := range r.samples {
		if s.class != class || (keep != nil && !keep(s)) {
			continue
		}
		v := s.rawNs
		if norm {
			v = s.normNs
		}
		xs = append(xs, v/s.ops)
	}
	return xs
}

// keyedPerOp is each input's median per-op time over its units.
func (r *run) keyedPerOp(norm bool) []float64 {
	by := map[string][]float64{}
	var keys []string
	for _, s := range r.samples {
		if _, ok := by[s.key]; !ok {
			keys = append(keys, s.key)
		}
		v := s.rawNs
		if norm {
			v = s.normNs
		}
		by[s.key] = append(by[s.key], v/s.ops)
	}
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = median(by[k])
	}
	return out
}

// throughput is kilo-ops per (normalized or raw) second of segment time.
// Keyed workloads count one median unit per input.
func (r *run) throughput(norm bool) float64 {
	if r.ws.keyed {
		type agg struct {
			ops float64
			ns  []float64
		}
		by := map[string]*agg{}
		for _, s := range r.samples {
			a := by[s.key]
			if a == nil {
				a = &agg{ops: s.ops}
				by[s.key] = a
			}
			if norm {
				a.ns = append(a.ns, s.normNs)
			} else {
				a.ns = append(a.ns, s.rawNs)
			}
		}
		var ops, ns float64
		for _, a := range by {
			ops += a.ops
			ns += median(a.ns)
		}
		return ops / ns * 1e9 / 1e3
	}
	var ops, ns float64
	for _, s := range r.segments {
		ops += s.ops
		if norm {
			ns += s.normNs
		} else {
			ns += s.rawNs
		}
	}
	if ns == 0 {
		return 0
	}
	return ops / ns * 1e9 / 1e3
}

// endToEnd builds the untraced run's metrics.
func (r *run) endToEnd() result {
	m := map[string]metric{}
	m["setup_s"] = metric{median(r.setups), "s"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	m["ok_frac"] = metric{r.okFrac(), "frac"}
	if r.allocOps > 0 {
		m["allocs_per_kop"] = metric{float64(r.allocs) / r.allocOps * 1e3, "count"}
	}
	m["kunits_per_norm_s"] = metric{r.throughput(true), "kop/s"}
	xs := r.perOp(r.ws.class, true, nil)
	if r.ws.keyed {
		xs = r.keyedPerOp(true)
	}
	if t, ok := percentile(xs, 0.5); ok {
		m["unit_norm_ns_p50"] = metric{t.Value, "ns"}
	}
	if t, ok := percentile(xs, 0.9); ok {
		m["unit_norm_ns_p90"] = metric{t.Value, "ns"}
	} else {
		r.fail("p90 of %s: only %d samples beyond it (need %d)", r.ws.class, t.Beyond, minBeyond)
	}
	return r.finish(m)
}

func (r *run) okFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// finish wraps metrics into the result line.
func (r *run) finish(m map[string]metric) result {
	if r.attempted == 0 {
		r.attempted = 1
		r.fail("no unit ran")
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printReport writes the human-readable lines that precede the result.
func (r *run) printReport(res result) {
	w := r.out
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%s traced=%v GOMAXPROCS=%d\n",
		r.ws.name, r.seed, r.dur, r.traced, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# setup raw s %v  normalized s %v\n", fmtList(r.rawSetup), fmtList(r.setups))
	fmt.Fprintf(w, "# reference slice ms: median %.3f  spread %.3f over %d slices\n",
		median(r.norm.slices)/1e6, quartileSpread(r.norm.slices), len(r.norm.slices))
	rawW, normW := r.windowSpreads()
	fmt.Fprintf(w, "# steadiness, per-window throughput (Q3-Q1)/median: raw %.4f  normalized %.4f  (%d windows)\n",
		rawW.spread, normW.spread, rawW.n)
	fmt.Fprintf(w, "# throughput kop/s: raw %.4f  normalized %.4f  (op = %s)\n",
		r.throughput(false), r.throughput(true), r.ws.unit)
	classes := map[string]bool{}
	for _, s := range r.samples {
		classes[s.class] = true
	}
	var names []string
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		raw, norm := r.perOp(c, false, nil), r.perOp(c, true, nil)
		line := fmt.Sprintf("# class %-7s n=%-5d per-op ns: p50 raw %.4g norm %.4g", c, len(norm), median(raw), median(norm))
		if q := highestTail(len(norm), 0.9, 0.99); q > 0 {
			line += fmt.Sprintf("  p%g raw %.4g norm %.4g (%d beyond)", q*100, quantile(raw, q), quantile(norm, q), beyond(len(norm), q))
		}
		fmt.Fprintln(w, line)
	}
	if r.ws.keyed {
		raw, norm := r.keyedPerOp(false), r.keyedPerOp(true)
		fmt.Fprintf(w, "# keyed per-op ns over %d inputs: p50 raw %.4g norm %.4g  p90 raw %.4g norm %.4g (%d beyond)\n",
			len(norm), median(raw), median(norm), quantile(raw, 0.9), quantile(norm, 0.9), beyond(len(norm), 0.9))
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# metric %-36s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

type spreadStat struct {
	spread float64
	n      int
}

// windowSpreads groups segments into consecutive ~1 s windows and
// returns the spread of per-window throughput, raw and normalized —
// the in-run evidence of what normalization buys.
func (r *run) windowSpreads() (raw, norm spreadStat) {
	var rawT, normT []float64
	var ops, rns, nns float64
	for _, s := range r.segments {
		ops += s.ops
		rns += s.rawNs
		nns += s.normNs
		if rns >= 1e9 {
			rawT = append(rawT, ops/rns)
			normT = append(normT, ops/nns)
			ops, rns, nns = 0, 0, 0
		}
	}
	return spreadStat{quartileSpread(rawT), len(rawT)}, spreadStat{quartileSpread(normT), len(normT)}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// gcCPU returns the runtime's estimates of cumulative GC CPU seconds
// and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// writeSpans stores the traced run's spans under .bench_build.
func (r *run) writeSpans() {
	if r.spanTr == nil {
		return
	}
	dir := filepath.Join(r.checkout, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.note("spans not written: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", r.ws.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		r.note("spans not written: %v", err)
		return
	}
	defer f.Close()
	if err := writeSpans(f, r.spanTr.spans); err != nil {
		r.note("spans not written: %v", err)
	}
}
