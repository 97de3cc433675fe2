package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/sim"
	"sttllc/internal/workloads"
)

// paperConfigs are the paper's Table 2 configurations; the first is the
// Fig. 8 reference.
var paperConfigs = []string{"baseline-SRAM", "baseline-STT", "C1", "C2", "C3"}

// paperSuite is the published suite-level result set paper_err compares
// against: the STT baseline and C1 speedups, C1–C3 dynamic power, and
// every configuration's total L2 power, each normalized to the SRAM
// baseline.
var paperSuite = []struct {
	metric, config string
	value          float64
}{
	{"speedup", "baseline-STT", 1.05}, {"speedup", "C1", 1.16},
	{"dynamic", "C1", 1.69}, {"dynamic", "C2", 1.67}, {"dynamic", "C3", 1.94},
	{"total", "baseline-STT", 1.19}, {"total", "C1", 0.80}, {"total", "C2", 0.365}, {"total", "C3", 0.58},
}

// fig8Titles maps each checked figure to the metric it prints.
var fig8Titles = []struct{ metric, title string }{
	{"speedup", "Figure 8a: speedup vs SRAM baseline"},
	{"dynamic", "Figure 8b: dynamic L2 power normalized to SRAM baseline"},
	{"total", "Figure 8c: total L2 power normalized to SRAM baseline"},
}

// fig8Golden is what `sttexp -exp fig8 -q` prints at scale 1: the
// per-cell ratios every grid pass must reproduce at printed precision.
//
//go:embed testdata/fig8_head.txt
var fig8Golden string

// publishedFile is the repository's committed evaluation report. The
// grid reports how many cells drift from it, without failing: it
// predates later model fixes.
const publishedFile = "experiments_full.txt"

type gridCell struct {
	spec workloads.Spec
	cfg  config.GPUConfig
}

func (c gridCell) key() string { return c.spec.Name + "/" + c.cfg.Name }

// paperGrid is the paper's Fig. 8 evaluation: every catalog benchmark
// on every Table 2 configuration at scale 1, one sim.New + Run per cell.
type paperGrid struct {
	cells    []gridCell
	expected fig8Table
	// first holds each cell's result from the first pass; dumps holds
	// the hash of its stats dump, which later passes must reproduce.
	first map[string]sim.Result
	dumps repeatCheck
	units int
}

// fig8Table is metric → benchmark → config → printed value.
type fig8Table map[string]map[string]map[string]string

func (g *paperGrid) setup(r *run) error {
	var cfgs []config.GPUConfig
	for _, name := range paperConfigs {
		cfg, ok := config.ByName(name)
		if !ok {
			return fmt.Errorf("unknown configuration %s", name)
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
	}
	g.cells = g.cells[:0]
	for _, spec := range workloads.All() {
		for _, cfg := range cfgs {
			g.cells = append(g.cells, gridCell{spec: spec, cfg: cfg})
		}
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x70617065722d6772))
	rng.Shuffle(len(g.cells), func(i, j int) { g.cells[i], g.cells[j] = g.cells[j], g.cells[i] })
	var err error
	if g.expected, err = parseFig8(strings.NewReader(fig8Golden)); err != nil {
		return err
	}
	// One small run settles lazy initialization before timing starts.
	warm, _ := workloads.ByName("bfs")
	warm = warm.Scale(0.05)
	warm.WarpsPerSM = 6
	sim.RunOne(cfgs[2], warm, sim.Options{})
	g.first = map[string]sim.Result{}
	g.dumps = repeatCheck{}
	return nil
}

// parseFig8 reads the Fig. 8a/b/c matrices from an sttexp report.
func parseFig8(f io.Reader) (fig8Table, error) {
	t := fig8Table{}
	sc := bufio.NewScanner(f)
	cur := ""
	var cols []string
	for sc.Scan() {
		line := sc.Text()
		if cur == "" {
			for _, ft := range fig8Titles {
				if line == ft.title {
					cur = ft.metric
					t[cur] = map[string]map[string]string{}
					cols = nil
				}
			}
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) > 0 && fields[0] == "Benchmark":
			cols = fields[1:]
		case strings.HasPrefix(line, "---"):
		case len(fields) == 0 || fields[0] == "Gmean" || fields[0] == "Mean":
			cur = ""
		case len(fields) >= len(cols)+1:
			row := map[string]string{}
			for i, c := range cols {
				row[c] = fields[1+i]
			}
			t[cur][fields[0]] = row
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, ft := range fig8Titles {
		if len(t[ft.metric]) == 0 {
			return nil, fmt.Errorf("%q not found", ft.title)
		}
	}
	return t, nil
}

func (g *paperGrid) measure(r *run, deadline time.Time) {
	// A traced run makes two passes at least, so every cell runs both
	// traced and untraced (see unitTracer).
	passes := 1
	if r.spanTr != nil {
		passes = 2
	}
	for i := 0; i < passes*len(g.cells) || time.Now().Before(deadline); i++ {
		c := g.cells[i%len(g.cells)]
		tr := r.unitTracer(i, i/len(g.cells))
		ref := r.norm.slice()
		run := tr.newRun()
		m0 := mallocs()
		t0 := time.Now()
		root := tr.begin("cell", -1, run)
		sp := tr.begin("sim.New", root, run)
		s := sim.New(c.cfg, c.spec, sim.Options{})
		tr.end(sp)
		sp = tr.begin("sim.Run", root, run)
		res := s.Run()
		tr.end(sp)
		tr.end(root)
		raw := float64(time.Since(t0).Nanoseconds())
		m1 := mallocs()
		r.attempted++
		r.add(sample{class: "cell", key: c.key(), rawNs: raw, ops: float64(res.Instructions), ref: ref, traced: tr != nil})
		if i < len(g.cells) {
			r.allocs += m1 - m0
			r.allocOps += float64(res.Instructions)
			g.first[c.key()] = res
		}
		if err := g.dumps.observe(c.key(), res.Dump()); err != nil {
			r.fail("%v", err)
		}
		g.units++
	}
}

// fig8Ratios returns one benchmark's Fig. 8 ratios for one configuration.
func fig8Ratios(base, r sim.Result) map[string]float64 {
	div := func(a, b float64) float64 {
		if b > 0 {
			return a / b
		}
		return 0
	}
	return map[string]float64{
		"speedup": div(r.IPC, base.IPC),
		"dynamic": div(r.DynamicPowerW, base.DynamicPowerW),
		"total":   div(r.TotalPowerW, base.TotalPowerW),
	}
}

// checkFig8 compares every benchmark × configuration ratio with the
// expected table at its printed precision and returns one message per
// mismatching cell.
func checkFig8(results map[string]sim.Result, want fig8Table) []string {
	var bad []string
	for _, spec := range workloads.All() {
		base, ok := results[spec.Name+"/"+paperConfigs[0]]
		if !ok {
			bad = append(bad, spec.Name+": no baseline result")
			continue
		}
		for _, cfg := range paperConfigs[1:] {
			res, ok := results[spec.Name+"/"+cfg]
			if !ok {
				bad = append(bad, spec.Name+"/"+cfg+": no result")
				continue
			}
			got := fig8Ratios(base, res)
			var diffs []string
			for _, ft := range fig8Titles {
				exp := want[ft.metric][spec.Name][cfg]
				if s := fmt.Sprintf("%.3f", got[ft.metric]); s != exp {
					diffs = append(diffs, fmt.Sprintf("%s %s (expected %s)", ft.metric, s, exp))
				}
			}
			if len(diffs) > 0 {
				bad = append(bad, spec.Name+"/"+cfg+": "+strings.Join(diffs, ", "))
			}
		}
	}
	return bad
}

// paperErr is the mean |measured/paper − 1| over paperSuite, with the
// suite aggregates computed the way Fig. 8 prints them (geometric mean
// of speedups, arithmetic mean of power ratios).
func paperErr(results map[string]sim.Result) float64 {
	agg := map[string]map[string][]float64{"speedup": {}, "dynamic": {}, "total": {}}
	for _, spec := range workloads.All() {
		base := results[spec.Name+"/"+paperConfigs[0]]
		for _, cfg := range paperConfigs[1:] {
			for m, v := range fig8Ratios(base, results[spec.Name+"/"+cfg]) {
				agg[m][cfg] = append(agg[m][cfg], v)
			}
		}
	}
	var sum float64
	for _, p := range paperSuite {
		xs := agg[p.metric][p.config]
		var v float64
		if p.metric == "speedup" {
			var logs float64
			for _, x := range xs {
				logs += math.Log(x)
			}
			v = math.Exp(logs / float64(len(xs)))
		} else {
			for _, x := range xs {
				v += x
			}
			v /= float64(len(xs))
		}
		sum += math.Abs(v/p.value - 1)
	}
	return sum / float64(len(paperSuite))
}

func (g *paperGrid) verify(r *run) {
	bad := checkFig8(g.first, g.expected)
	for _, b := range bad {
		r.fail("fig8: %s", b)
	}
	if len(bad) == 0 {
		r.note("fig8: all %d benchmark×configuration cells match the golden tables", len(workloads.All())*(len(paperConfigs)-1))
	}
	if f, err := os.Open(filepath.Join(r.checkout, publishedFile)); err != nil {
		r.note("%s: %v", publishedFile, err)
	} else {
		pub, err := parseFig8(f)
		f.Close()
		if err == nil {
			r.note("%s: %d cells drift from its Fig. 8 tables (informational)", publishedFile, len(checkFig8(g.first, pub)))
		}
	}
	r.note("paper_err %.6f (mean |measured/paper-1| over %d suite numbers); %d cells run, %d beyond the first pass",
		paperErr(g.first), len(paperSuite), g.units, g.units-len(g.cells))
}

func (g *paperGrid) probeInputs() probeInputs {
	var specs []workloads.Spec
	for _, s := range workloads.All() {
		specs = append(specs, s)
	}
	return probeInputs{specs: specs, cfgs: paperConfigs}
}

func (g *paperGrid) close() {}
