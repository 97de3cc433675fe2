package main

import (
	"bytes"
	"math/rand/v2"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// replayBenches span the write mix: stencil is write-heavy, mum
// read-heavy, bfs the longest stream, lud in between.
var replayBenches = []string{"stencil", "mum", "bfs", "lud"}

// sweepEight is the eight-configuration set `sttbench` fans a recording
// into: the five paper configurations, the two stacked-L3 hierarchies,
// and one C1 write-threshold variant.
func sweepEight() []config.GPUConfig {
	th7 := config.C1()
	th7.Name = "C1-TH7"
	th7.L2.WriteThreshold = 7
	c1l3, _ := config.ByName("C1-L3")
	c2l3, _ := config.ByName("C2-L3")
	return []config.GPUConfig{
		config.BaselineSRAM(), config.BaselineSTT(),
		config.C1(), config.C2(), config.C3(),
		c1l3, c2l3, th7,
	}
}

// recordedInput is one encoded recording and what its replay must
// reproduce.
type recordedInput struct {
	name    string
	blob    []byte // trace.WriteRecording output
	records int
	// bankSide is the recording run's bank-side dump; the same-config
	// replay must reproduce it byte for byte.
	bankSide []byte
	spec     workloads.Spec
}

// replayFanout is the `stttrace -replay` path: decode one recording and
// replay it into eight configurations.
type replayFanout struct {
	inputs []recordedInput
	cfgs   []config.GPUConfig
	order  []int // seeded unit order, rounds of every input once
}

func (f *replayFanout) setup(r *run) error {
	f.cfgs = sweepEight()
	f.inputs = f.inputs[:0]
	for _, name := range replayBenches {
		spec, _ := workloads.ByName(name)
		res, rec := sim.Record(f.cfgs[0], spec, sim.Options{})
		var buf bytes.Buffer
		if err := trace.WriteRecording(&buf, rec); err != nil {
			return err
		}
		f.inputs = append(f.inputs, recordedInput{name: name, blob: buf.Bytes(),
			records: len(rec.Records), bankSide: bankSide(res.Dump()), spec: spec})
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x7265706c61792d66))
	f.order = f.order[:0]
	// 4096 rounds are far more units than any run reaches.
	for round := 0; round < 4096; round++ {
		for _, i := range rng.Perm(len(f.inputs)) {
			f.order = append(f.order, i)
		}
	}
	return nil
}

func (f *replayFanout) measure(r *run, deadline time.Time) {
	n := len(f.inputs)
	// The loop ends only on a round boundary (minUnits and len(f.order)
	// are multiples of n), so every run weighs the four recordings
	// equally and allocations cover complete rounds.
	for i := 0; i < len(f.order) && (i < minUnits || i%n != 0 || time.Now().Before(deadline)); i++ {
		in := &f.inputs[f.order[i]]
		tr := r.unitTracer(i, 0)
		ref := r.norm.slice()
		run := tr.newRun()
		m0 := mallocs()
		t0 := time.Now()
		root := tr.begin("fanout", -1, run)
		sp := tr.begin("trace.ReadRecording", root, run)
		rec, err := trace.ReadRecording(bytes.NewReader(in.blob))
		tr.end(sp)
		var results []sim.Result
		if err == nil {
			sp = tr.begin("sim.ReplayMany", root, run)
			results = sim.ReplayMany(rec, f.cfgs)
			tr.end(sp)
		}
		tr.end(root)
		raw := float64(time.Since(t0).Nanoseconds())
		m1 := mallocs()
		r.attempted++
		ops := float64(in.records * len(f.cfgs))
		r.add(sample{class: "fanout", key: in.name, rawNs: raw, ops: ops, ref: ref, traced: tr != nil})
		switch {
		case err != nil:
			r.fail("%s: decode: %v", in.name, err)
		default:
			if err := checkSameConfig(results[0], in.bankSide); err != nil {
				r.fail("%s: %v", in.name, err)
			}
		}
		r.allocs += m1 - m0
		r.allocOps += ops
	}
}

func (f *replayFanout) verify(r *run) {
	r.note("same-config replay (%s) checked byte-identical to the recording run on every unit", f.cfgs[0].Name)
}

func (f *replayFanout) probeInputs() probeInputs {
	p := probeInputs{cfgs: []string{"baseline-SRAM", "C1", "C2"}}
	for _, in := range f.inputs {
		p.specs = append(p.specs, in.spec)
	}
	return p
}

func (f *replayFanout) close() {}
