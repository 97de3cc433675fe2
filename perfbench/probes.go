package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
	"time"

	"sttllc/internal/cache"
	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/dram"
	"sttllc/internal/engine"
	"sttllc/internal/gpu"
	"sttllc/internal/ingest"
	"sttllc/internal/interconnect"
	"sttllc/internal/metrics"
	"sttllc/internal/server"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// probeScale shrinks catalog specs for the per-layer probes, so the
// whole probe set fits in a few seconds.
const probeScale = 0.25

// probeInputs are a workload's own specs and configurations; the probes
// record their stream from the first spec.
type probeInputs struct {
	specs []workloads.Spec // at the workload's own scale
	cfgs  []string
	// gen marks serve-mix's generated specs: already small, so probed
	// unscaled, and the server probe sends generated misses instead of
	// catalog benchmarks.
	gen bool
}

// prober runs the per-layer probes of a traced run.
type prober struct {
	r       *run
	in      probeInputs
	specs   []workloads.Spec // scaled by probeScale
	cfg     config.GPUConfig // the two-part configuration probed
	rec     *trace.Recording
	m       map[string]metric
	timerNs float64 // cost of one time.Now pair, subtracted from per-call timings
}

func newProber(r *run, in probeInputs) *prober {
	p := &prober{r: r, in: in, m: map[string]metric{}}
	for _, s := range in.specs {
		if !in.gen {
			s = s.Scale(probeScale)
		}
		p.specs = append(p.specs, s)
	}
	p.cfg = config.C1()
	for _, name := range in.cfgs {
		if c, ok := config.ByName(name); ok && c.L2.LRBytes > 0 {
			p.cfg = c
			break
		}
	}
	return p
}

// set records a probe metric; one that came out NaN or infinite fails
// the run and reads 0.
func (p *prober) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		p.r.fail("%s could not be measured", name)
		v = 0
	}
	p.m[name] = metric{v, unit}
}

// since returns the ns elapsed since t0 (time.Since with a float).
func since(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) }

// runAll runs every probe. Each one times calls into one layer's public
// functions, fed by the workload's specs and recorded stream.
func (p *prober) runAll() {
	p.calibrateTimer()
	_, p.rec = sim.Record(p.cfg, p.specs[0], sim.Options{})
	for _, f := range []func(){
		p.workloadsProbe, p.gpuProbe, p.engineProbe, p.cacheProbe, p.coreProbe,
		p.dramNoCProbe, p.simProbe, p.traceProbe, p.ingestProbe, p.serverProbe,
	} {
		f()
	}
}

// calibrateTimer measures what an empty timed region reads as.
func (p *prober) calibrateTimer() {
	const n = 200000
	var acc float64
	for i := 0; i < n; i++ {
		acc += since(time.Now())
	}
	p.timerNs = acc / n
}

// workloadsProbe drains warp streams: the instruction generator alone.
func (p *prober) workloadsProbe() {
	var n uint64
	t0 := time.Now()
	for _, s := range p.specs {
		m := s.Model()
		for w := 0; w < 16; w++ {
			st := m.NewWarp(w)
			for {
				if _, ok := st.Next(); !ok {
					break
				}
				n++
			}
		}
	}
	p.set("workloads.stream_ns_per_instr", "ns", since(t0)/float64(n))
}

// fixedLatency is a MemSystem stub: every access completes a fixed
// number of cycles later, so only the SM's own work is timed.
type fixedLatency int64

func (f fixedLatency) Access(now int64, _ int, _ uint64, _ bool) int64 { return now + int64(f) }

// gpuProbe steps one SM to completion against the stub.
func (p *prober) gpuProbe() {
	var instr, hits, acc uint64
	var ns float64
	for _, s := range p.specs {
		resident := gpu.ResidentWarps(p.cfg.SM, s.RegsPerThread, s.ThreadsPerBlock)
		sm := gpu.NewSM(0, p.cfg.SM, s.Model(), fixedLatency(300), resident, 0, s.WarpsPerSM)
		t0 := time.Now()
		for now := int64(0); !sm.Done(); {
			if sm.Step(now) {
				now++
				continue
			}
			w := sm.NextWake(now)
			if w == math.MaxInt64 {
				break
			}
			now = max(w, now+1)
		}
		ns += since(t0)
		instr += sm.Stats().Instructions
		l1 := sm.L1Stats()
		hits += l1.Hits()
		acc += l1.Accesses()
	}
	p.set("gpu.sm_step_ns_per_instr", "ns", ns/float64(instr))
	p.set("gpu.l1_hit_rate", "frac", float64(hits)/float64(max(acc, 1)))
}

// engineProbe schedules and fires events in windows the way the
// simulator's timer engine does, and reads events per instruction from
// a real run's metrics dump.
func (p *prober) engineProbe() {
	e := engine.New(0)
	fired := 0
	fn := func(int64) { fired++ }
	rng := rand.New(rand.NewPCG(p.r.seed, 1))
	const rounds, per = 400, 512
	offs := make([]int64, per)
	for i := range offs {
		offs[i] = 1 + rng.Int64N(700)
	}
	t0 := time.Now()
	now := int64(0)
	for r := 0; r < rounds; r++ {
		for _, o := range offs {
			e.Schedule(now+o, fn)
		}
		now += 1024
		e.Advance(now)
	}
	p.set("engine.event_ns", "ns", since(t0)/float64(fired))

	reg := metrics.NewRegistry(true)
	res := sim.RunOne(p.cfg, p.specs[0], sim.Options{Metrics: reg})
	ev := reg.Map()["engine.events_fired"]
	p.set("engine.events_per_kinstr", "count", float64(ev)/float64(res.Instructions)*1e3)
}

// cacheProbe fills an L2-bank-sized array from the recorded stream and
// probes the lines that stayed resident.
func (p *prober) cacheProbe() {
	c := cache.New(p.cfg.L2.HRBytes/p.cfg.NumBanks, p.cfg.L2.HRWays, p.cfg.LineBytes)
	addrs := make([]uint64, len(p.rec.Records))
	for i, r := range p.rec.Records {
		addrs[i] = r.Addr
	}
	t0 := time.Now()
	for i, a := range addrs {
		c.Fill(a, p.rec.Records[i].Write, int64(i))
	}
	p.set("cache.fill_ns", "ns", since(t0)/float64(len(addrs)))
	var resident []uint64
	for _, a := range addrs {
		if _, _, hit := c.Probe(a); hit {
			resident = append(resident, a)
		}
	}
	const reps = 8
	t0 = time.Now()
	hits := 0
	for k := 0; k < reps; k++ {
		for _, a := range resident {
			if _, _, hit := c.Probe(a); hit {
				hits++
			}
		}
	}
	p.set("cache.probe_hit_ns", "ns", since(t0)/float64(reps*len(resident)))
}

// route is the simulator's line interleaving: bank = line mod banks,
// bank-local line = line / banks.
func route(addr uint64, lineShift uint, banks int) (int, uint64) {
	line := addr >> lineShift
	return int(line % uint64(banks)), (line / uint64(banks)) << lineShift
}

// coreProbe drives fresh two-part banks (config-built TwoPartBank tier
// chains over their DRAM channels) with the recorded stream, ticking
// retention at each bank's period, timing every access.
func (p *prober) coreProbe() {
	n := p.cfg.NumBanks
	banks := make([]core.Bank, n)
	mcs := make([]*dram.Controller, n)
	next := make([]int64, n)
	for i := range banks {
		mcs[i] = p.cfg.NewDRAM()
		chain, err := p.cfg.NewTiers(mcs[i])
		if err != nil {
			p.r.fail("core probe: %v", err)
			return
		}
		banks[i] = chain[0]
		next[i] = banks[i].TickPeriod()
	}
	if _, ok := banks[0].(*core.TwoPartBank); !ok {
		p.r.note("core probe: %s's L2 is not a two-part bank", p.cfg.Name)
	}
	shift := uint(bits.TrailingZeros(uint(p.cfg.LineBytes)))
	var readNs, writeNs float64
	var reads, writes int
	for _, r := range p.rec.Records {
		b, local := route(r.Addr, shift, n)
		bank := banks[b]
		if per := bank.TickPeriod(); per > 0 {
			for next[b] <= r.Cycle {
				bank.Tick(next[b])
				next[b] += per
			}
		}
		t0 := time.Now()
		bank.Access(r.Cycle, local, r.Write)
		dt := since(t0) - p.timerNs
		if r.Write {
			writeNs += dt
			writes++
		} else {
			readNs += dt
			reads++
		}
	}
	p.set("core.twopart_read_ns", "ns", readNs/float64(max(reads, 1)))
	p.set("core.twopart_write_ns", "ns", writeNs/float64(max(writes, 1)))
	var st core.BankStats
	var rowHits, dramAcc uint64
	for i, b := range banks {
		s := b.Stats()
		st.Reads += s.Reads
		st.Writes += s.Writes
		st.ReadHits += s.ReadHits
		st.WriteHits += s.WriteHits
		st.LRWriteHits += s.LRWriteHits
		st.LRWriteFills += s.LRWriteFills
		st.HRWriteHits += s.HRWriteHits
		st.HRWriteKept += s.HRWriteKept
		st.HRWriteFills += s.HRWriteFills
		st.MigrationsToLR += s.MigrationsToLR
		st.OverflowWritebacks += s.OverflowWritebacks
		st.HRExpiries += s.HRExpiries
		rowHits += mcs[i].Stats.RowHits
		dramAcc += mcs[i].Stats.Accesses()
	}
	kacc := float64(st.Reads+st.Writes) / 1e3
	p.set("core.l2_hit_rate", "frac", st.HitRate())
	p.set("core.lr_write_share", "frac", st.LRWriteShare())
	p.set("core.migrations_per_kacc", "count", float64(st.MigrationsToLR)/kacc)
	p.set("core.swap_overflow_per_kacc", "count", float64(st.OverflowWritebacks)/kacc)
	p.set("core.hr_expiries_per_kacc", "count", float64(st.HRExpiries)/kacc)
	p.set("dram.row_hit_rate", "frac", float64(rowHits)/float64(max(dramAcc, 1)))
}

// dramNoCProbe times DRAM channel accesses and request-network
// deliveries over the recorded stream's addresses and cycles.
func (p *prober) dramNoCProbe() {
	mc := p.cfg.NewDRAM()
	t0 := time.Now()
	for _, r := range p.rec.Records {
		mc.Access(r.Cycle, r.Addr, r.Write)
	}
	p.set("dram.access_ns", "ns", since(t0)/float64(len(p.rec.Records)))
	net := interconnect.New(p.cfg.NumSMs, p.cfg.NumBanks, p.cfg.NoCStageCycles)
	shift := uint(bits.TrailingZeros(uint(p.cfg.LineBytes)))
	t0 = time.Now()
	for _, r := range p.rec.Records {
		b, _ := route(r.Addr, shift, p.cfg.NumBanks)
		net.Deliver(r.Cycle, b)
	}
	p.set("interconnect.deliver_ns", "ns", since(t0)/float64(len(p.rec.Records)))
}

// simProbe times construction, a plain run, a recording run, and a
// replay fan-out.
func (p *prober) simProbe() {
	full := p.in.specs[0]
	var news []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		sim.New(p.cfg, full, sim.Options{})
		news = append(news, since(t0))
	}
	p.set("sim.new_ms", "ms", median(news)/1e6)
	var ratios, perInstr []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		res := sim.RunOne(p.cfg, p.specs[0], sim.Options{})
		run := since(t0)
		t0 = time.Now()
		sim.Record(p.cfg, p.specs[0], sim.Options{})
		ratios = append(ratios, since(t0)/run)
		perInstr = append(perInstr, run/float64(res.Instructions))
	}
	p.set("sim.run_ns_per_instr", "ns", median(perInstr))
	p.set("sim.record_overhead", "ratio", median(ratios))
	cfgs := sweepEight()[:3]
	t0 := time.Now()
	sim.ReplayMany(p.rec, cfgs)
	p.set("sim.replay_ns_per_rec_cfg", "ns", since(t0)/float64(len(p.rec.Records)*len(cfgs)))
}

// traceProbe times the recording wire format both ways.
func (p *prober) traceProbe() {
	n := float64(len(p.rec.Records))
	var buf bytes.Buffer
	t0 := time.Now()
	if err := trace.WriteRecording(&buf, p.rec); err != nil {
		p.r.fail("trace probe: %v", err)
		return
	}
	p.set("trace.encode_ns_per_rec", "ns", since(t0)/n)
	p.set("trace.bytes_per_rec", "B", float64(buf.Len())/n)
	blob := buf.Bytes()
	var ds []float64
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		if _, err := trace.ReadRecording(bytes.NewReader(blob)); err != nil {
			p.r.fail("trace probe: %v", err)
			return
		}
		ds = append(ds, since(t0)/n)
	}
	p.set("trace.decode_ns_per_rec", "ns", median(ds))
}

// ingestProbe imports the recorded stream from NDJSON.
func (p *prober) ingestProbe() {
	var buf bytes.Buffer
	if err := ingest.WriteNDJSON(&buf, p.rec); err != nil {
		p.r.fail("ingest probe: %v", err)
		return
	}
	n := float64(len(p.rec.Records))
	m0 := mallocs()
	t0 := time.Now()
	_, err := ingest.Import(bytes.NewReader(buf.Bytes()), ingest.Options{})
	dt := since(t0)
	m1 := mallocs()
	if err != nil {
		p.r.fail("ingest probe: %v", err)
		return
	}
	p.set("ingest.ndjson_ns_per_rec", "ns", dt/n)
	p.set("ingest.allocs_per_rec", "count", float64(m1-m0)/n)
}

// probeSchedule is the server probe's fixed sequence of batch classes:
// every class, replays included, whatever the seed. Its one upload
// batch sends the whole probe pool.
var probeSchedule = []string{"miss", "miss", "hit", "replay", "upload", "miss", "hit", "replay", "miss", "hit", "replay", "miss"}

// serverProbe runs a short mix against an in-process server with
// the workload's own requests (plus replay submissions, which exercise
// the shared recording cache) and reads /metrics deltas.
func (p *prober) serverProbe() {
	newMiss := genMiss(p.r.seed)
	if !p.in.gen {
		// Misses enumerate spec × configuration × scale from k, so no
		// two are the same request.
		newMiss = func(k int, rng *rand.Rand) server.SimulationRequest {
			ns, nc := len(p.in.specs), len(paperConfigs)
			return server.SimulationRequest{Config: paperConfigs[k/ns%nc], Bench: p.in.specs[k%ns].Name,
				Scale: 0.02 + 0.001*float64(k/(ns*nc)), Warps: 4}
		}
	}
	// Replay submissions name catalog benchmarks (the server replays
	// only those): the workload's first two, or two fixed ones for
	// serve-mix. Two benchmarks over five configurations make most
	// replays hit the shared recording cache.
	benches := []string{"bfs", "mum"}
	if !p.in.gen {
		benches = benches[:0]
		for _, s := range p.in.specs[:min(2, len(p.in.specs))] {
			benches = append(benches, s.Name)
		}
	}
	newReplay := func(rng *rand.Rand) server.SimulationRequest {
		return server.SimulationRequest{Config: paperConfigs[rng.IntN(len(paperConfigs))],
			Bench: benches[rng.IntN(len(benches))], Scale: 0.02, Warps: 4, Replay: true}
	}
	pool, err := genUploads(p.r.seed^0x5eed, serveBatch*serveClients)
	if err != nil {
		p.r.fail("server probe: %v", err)
		return
	}
	sess, err := startHarness(p.r, pool, newMixPlan(p.r.seed^0x5eed, len(pool), newMiss, newReplay))
	if err != nil {
		p.r.fail("server probe: %v", err)
		return
	}
	defer sess.close()
	before, err := sess.scrape()
	if err != nil {
		p.r.fail("server probe: %v", err)
		return
	}
	// The probe's requests are not the workload's units: count its
	// failures, but keep its samples out of the workload's statistics.
	saved := len(p.r.samples)
	for _, class := range probeSchedule {
		sess.batch(p.r, nil, class)
	}
	p.r.samples = p.r.samples[:saved]
	after, err := sess.scrape()
	if err != nil {
		p.r.fail("server probe: %v", err)
		return
	}
	self := sess.verifyMisses(p.r)
	lat := map[string][]float64{}
	for _, res := range sess.results {
		lat[res.op.class] = append(lat[res.op.class], res.latency/1e6)
	}
	d := func(name string) float64 { return after[name] - before[name] }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	p.set("server.miss_self_ms", "ms", median(self)/1e6)
	p.set("server.hit_ms_p50", "ms", median(lat["hit"]))
	p.set("server.upload_ms_p50", "ms", median(lat["upload"]))
	p.set("server.cache_hit_ratio", "frac", ratio(d("server_cache_hits_total"), d("server_cache_misses_total")))
	p.set("server.recording_hit_ratio", "frac", ratio(d("server_recording_hits_total"), d("server_recording_misses_total")))
	p.set("server.store_writes", "count", d("server_store_writes_total"))
	var classes []string
	for c := range lat {
		classes = append(classes, fmt.Sprintf("%s=%d", c, len(lat[c])))
	}
	sort.Strings(classes)
	p.r.note("server probe requests: %v", classes)
}

// perLayer assembles the traced run's metrics: probes, host, raw twins
// of the end-to-end timings, and tracing overhead.
func (r *run) perLayer(p *prober) result {
	m := p.m
	m["host.ref_ms"] = metric{median(r.norm.slices) / 1e6, "ms"}
	m["host.gc_cpu_frac"] = metric{r.gcFrac, "frac"}
	m["raw.kunits_per_s"] = metric{r.throughput(false), "kop/s"}
	m["raw.setup_s"] = metric{median(r.rawSetup), "s"}
	raw := r.perOp(r.ws.class, false, nil)
	if r.ws.keyed {
		raw = r.keyedPerOp(false)
	}
	m["raw.unit_ns_p50"] = metric{quantile(raw, 0.5), "ns"}
	m["raw.unit_ns_p90"] = metric{quantile(raw, 0.9), "ns"}
	p.set("span.overhead_frac", "frac", r.spanOverhead())
	rows := selfTimes(r.spanTr.spans)
	for _, row := range rows {
		r.note("self time %-22s n=%-6d total %9.1f ms  self %9.1f ms", row.Name, row.Count, float64(row.TotalNs)/1e6, float64(row.SelfNs)/1e6)
	}
	return r.finish(m)
}

// spanOverhead is the tracing overhead: for every input that ran both
// traced and untraced, the ratio of its traced to its untraced median
// normalized per-op time; the median of those ratios, minus one. Each
// input is compared with itself, so inputs of different cost do not
// move the figure. Unkeyed samples form one input.
func (r *run) spanOverhead() float64 {
	traced, plain := map[string][]float64{}, map[string][]float64{}
	for _, s := range r.samples {
		if s.class != r.ws.class {
			continue
		}
		if s.traced {
			traced[s.key] = append(traced[s.key], s.normNs/s.ops)
		} else {
			plain[s.key] = append(plain[s.key], s.normNs/s.ops)
		}
	}
	var ratios []float64
	for k, t := range traced {
		if p := plain[k]; len(p) > 0 {
			ratios = append(ratios, median(t)/median(p))
		}
	}
	r.note("tracing overhead over %d inputs run both traced and untraced", len(ratios))
	return median(ratios) - 1
}
