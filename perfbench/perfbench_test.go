package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/sim"
	"sttllc/internal/workloads"
)

func TestPercentileSampleCountRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 50.5 {
		t.Errorf("p50 of 1..100 = %v, want 50.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", got)
	}
	if p, ok := percentile(xs, 0.9); !ok || p.Beyond != 10 || p.N != 100 {
		t.Errorf("p90 over 100 samples = %+v ok=%v, want reportable with 10 beyond", p, ok)
	}
	if p, ok := percentile(xs[:99], 0.9); ok || p.Beyond != 9 {
		t.Errorf("p90 over 99 samples = %+v ok=%v, want refused with 9 beyond", p, ok)
	}
	if _, ok := percentile(xs[:3], 0.5); !ok {
		t.Error("a median needs no tail samples")
	}
	if q := highestTail(1000, 0.9, 0.99, 0.999); q != 0.99 {
		t.Errorf("highestTail(1000) = %v, want 0.99", q)
	}
	if q := highestTail(50, 0.9, 0.99); q != 0 {
		t.Errorf("highestTail(50) = %v, want none", q)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("spread of constants = %v, want 0", got)
	}
}

func TestNormalizerArithmetic(t *testing.T) {
	n := &normalizer{slices: []float64{2e6, 4e6, 1e9, 4e6, 4e6, 2e6, 4e6, 4e6}}
	// Window of slice 3 is slices 0..6; its median is 4e6, so the
	// preempted 1e9 slice does not move the factor.
	if got := n.factor(3); got != refNominalNs/4e6 {
		t.Errorf("factor(3) = %v, want %v", got, refNominalNs/4e6)
	}
	// Clipped at the start: slices 0..3 → median of {2,4,4,1000}e6 = 4e6.
	if got := windowMedian(n.slices, 0, refWindow); got != 4e6 {
		t.Errorf("windowMedian at 0 = %v, want 4e6", got)
	}
	// A unit of 10 ms next to 4 ms slices is 5 ms of normalized time.
	if got := 10e6 * n.factor(3); got != 5e6 {
		t.Errorf("normalized 10ms = %v, want 5e6", got)
	}
	// A host twice as slow doubles both unit and slices: same result.
	slow := &normalizer{slices: []float64{8e6, 8e6, 8e6}}
	if got := 20e6 * slow.factor(1); got != 5e6 {
		t.Errorf("normalized on a slow host = %v, want 5e6", got)
	}
}

func TestRefKernelRuns(t *testing.T) {
	n := newNormalizer()
	i := n.slice()
	if i != 0 || n.slices[i] <= 0 {
		t.Fatalf("slice index %d time %v, want index 0 and a positive time", i, n.slices[i])
	}
}

// planBodies draws n batches from a plan with a three-upload-batch pool.
func planBodies(seed uint64, n int) []string {
	var out []string
	p := newMixPlan(seed, 3*serveBatch*serveClients, genMiss(seed), nil)
	for i := 0; i < n; i++ {
		class := p.nextClass()
		for c, ops := range p.nextBatch(class) {
			for _, op := range ops {
				if op.class != class {
					panic(fmt.Sprintf("batch of %s holds a %s", class, op.class))
				}
				out = append(out, fmt.Sprintf("%s %d %d %s", op.class, c, op.of, op.body))
			}
		}
	}
	return out
}

func TestServeMixSequenceSeeded(t *testing.T) {
	a, b := planBodies(7, 400), planBodies(7, 400)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("equal seeds gave different request sequences")
	}
	if strings.Join(a, "\n") == strings.Join(planBodies(8, 400), "\n") {
		t.Fatal("different seeds gave the same request sequence")
	}
	classes := map[string]int{}
	for _, s := range a {
		classes[strings.Fields(s)[0]]++
	}
	if classes["miss"] == 0 || classes["hit"] == 0 || classes["upload"] != 3*serveBatch*serveClients {
		t.Errorf("class mix %v: want misses, hits and every pooled upload", classes)
	}
}

// fakeGrid builds results for every benchmark × configuration and the
// golden table they print.
func fakeGrid() (map[string]sim.Result, fig8Table) {
	res := map[string]sim.Result{}
	want := fig8Table{"speedup": {}, "dynamic": {}, "total": {}}
	for bi, spec := range workloads.All() {
		for ci, cfg := range paperConfigs {
			res[spec.Name+"/"+cfg] = sim.Result{
				IPC:           1 + float64(bi+ci)/7,
				DynamicPowerW: 2 + float64(bi*ci)/11,
				TotalPowerW:   3 + float64(ci)/3,
			}
		}
		base := res[spec.Name+"/"+paperConfigs[0]]
		for _, cfg := range paperConfigs[1:] {
			for m, v := range fig8Ratios(base, res[spec.Name+"/"+cfg]) {
				if want[m][spec.Name] == nil {
					want[m][spec.Name] = map[string]string{}
				}
				want[m][spec.Name][cfg] = fmt.Sprintf("%.3f", v)
			}
		}
	}
	return res, want
}

func TestFig8CheckFiresOnCorruptedResult(t *testing.T) {
	res, want := fakeGrid()
	if bad := checkFig8(res, want); len(bad) != 0 {
		t.Fatalf("clean grid flagged: %v", bad)
	}
	r := res["bfs/C2"]
	r.IPC *= 1.01
	res["bfs/C2"] = r
	bad := checkFig8(res, want)
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "bfs/C2: speedup") {
		t.Fatalf("corrupted bfs/C2 IPC: got %v, want one bfs/C2 speedup mismatch", bad)
	}
}

func TestGoldenTableParses(t *testing.T) {
	tab, err := parseFig8(strings.NewReader(fig8Golden))
	if err != nil {
		t.Fatal(err)
	}
	if got := tab["speedup"]["cfd"]["C1"]; got != "2.312" {
		t.Errorf("golden cfd/C1 speedup = %q", got)
	}
	for _, ft := range fig8Titles {
		if len(tab[ft.metric]) != len(workloads.All()) {
			t.Errorf("%s: %d rows, want %d", ft.metric, len(tab[ft.metric]), len(workloads.All()))
		}
	}
}

func smallSpec(name string) workloads.Spec {
	s, _ := workloads.ByName(name)
	s = s.Scale(0.02)
	s.WarpsPerSM = 4
	return s
}

func TestRepeatCheckFiresOnChangedDump(t *testing.T) {
	d := sim.RunOne(config.C1(), smallSpec("bfs"), sim.Options{}).Dump()
	c := repeatCheck{}
	if err := c.observe("bfs/C1", d); err != nil {
		t.Fatal(err)
	}
	if err := c.observe("bfs/C1", d); err != nil {
		t.Fatalf("identical repeat flagged: %v", err)
	}
	d.L2.Writes++
	if err := c.observe("bfs/C1", d); err == nil {
		t.Fatal("changed dump not flagged")
	}
}

func TestSameConfigReplayCheckFires(t *testing.T) {
	cfg := config.BaselineSRAM()
	live, rec := sim.Record(cfg, smallSpec("stencil"), sim.Options{})
	want := bankSide(live.Dump())
	rep := sim.ReplayMany(rec, []config.GPUConfig{cfg})[0]
	if err := checkSameConfig(rep, want); err != nil {
		t.Fatalf("faithful replay flagged: %v", err)
	}
	rep.Bank.DRAMWritebacks++
	if err := checkSameConfig(rep, want); err == nil {
		t.Fatal("corrupted replay dump not flagged")
	}
}

func TestMissCheckFiresOnCorruptedDump(t *testing.T) {
	req := genMiss(3)(0, newMixPlan(3, 0, genMiss(3), nil).clients[0].rng)
	d, err := localRun(req)
	if err != nil {
		t.Fatal(err)
	}
	good := mustJSON(d)
	if err := checkMiss(req, sha256.Sum256(good)); err != nil {
		t.Fatalf("faithful dump flagged: %v", err)
	}
	bad := bytes.Replace(good, []byte(`"reads":`), []byte(`"reads":1`), 1)
	if bytes.Equal(bad, good) {
		t.Fatal("corruption did not apply")
	}
	if err := checkMiss(req, sha256.Sum256(bad)); err == nil {
		t.Fatal("corrupted dump not flagged")
	}
}

func TestSpanOverheadPairsInputs(t *testing.T) {
	r := &run{ws: workloadSpec{class: "cell"}}
	// Input a costs 1 ns per op, b 10; tracing adds 2% to each. Only
	// a's traced and b's untraced runs outnumber the others, which a
	// comparison of the two halves would read as a large speed-up.
	add := func(key string, ns float64, traced bool, n int) {
		for i := 0; i < n; i++ {
			r.samples = append(r.samples, sample{class: "cell", key: key, normNs: ns, ops: 1, traced: traced})
		}
	}
	add("a", 1.02, true, 5)
	add("a", 1, false, 1)
	add("b", 10.2, true, 1)
	add("b", 10, false, 5)
	if got := r.spanOverhead(); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("overhead = %v, want 0.02", got)
	}
}
