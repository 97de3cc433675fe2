package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/ingest"
	"sttllc/internal/metrics"
	"sttllc/internal/server"
	"sttllc/internal/sim"
	"sttllc/internal/workloads"
	"sttllc/internal/workloads/gen"
)

const (
	// serveClients closed-loop clients share one process.
	serveClients = 2
	// serveBatch is how many requests each client sends per batch. All
	// requests of a batch are of one class, and a reference slice
	// precedes each batch.
	serveBatch = 4
	// Class shares of the seeded batch sequence: uploads, then hits; the
	// rest are misses. The repository holds no record of real traffic
	// (BENCH_serve.json is a saturation run at 99.99% hits), so each
	// share is set by the samples its class must yield in a 25 s run,
	// and the end-to-end metrics come from miss batches alone, so the
	// shares do not move them:
	//   - misses, the end-to-end class, stay the majority (58%), which
	//     puts hundreds of samples beyond their p90;
	//   - hits (40%) get thousands of samples for their p50 and keep the
	//     result cache read throughout the run;
	//   - uploads (2%) each need a fresh trace built in setup; 2% of the
	//     ~1600 batches of a run is ~250 uploads, most of the
	//     uploadsPerClient pool, enough for their p50 and p90 without
	//     growing setup further.
	uploadShare = 0.02
	hitShare    = 0.40
	// hitWindow is how far back a hit reaches: it resubmits one of the
	// client's last hitWindow misses, which the server's default result
	// cache still holds.
	hitWindow = 64
	// uploadsPerClient bounds each client's fresh-trace pool; once it is
	// spent, draws that would have uploaded become hits.
	uploadsPerClient = 192
)

// Size knobs of the generated workloads: the inline-gen request shape
// of the repository's CI smoke job (200 instructions per warp, 4 warps
// per SM), fixed so every miss costs about the same; write fraction and
// write working set are drawn. An upload is the trace of one job of
// that shape.
const (
	genInstrPerWarp = 200
	genWarpsPerSM   = 4
)

func fixedDist(v float64) gen.Dist { return gen.Dist{Fixed: &v} }

// serveOp is one request of a client's sequence.
type serveOp struct {
	class string // "miss", "hit", "upload" or "replay"
	path  string
	body  []byte
	req   server.SimulationRequest // miss, hit and replay
	of    int                      // hit: index of the resubmitted miss; upload: pool index
}

// mixPlan draws serve-mix's seeded request stream: the class of each
// batch, then each client's requests of that class. Equal seeds give
// identical streams.
type mixPlan struct {
	rng     *rand.Rand // batch classes
	clients []*clientSeq
}

// clientSeq is one client's requests.
type clientSeq struct {
	rng     *rand.Rand
	client  int
	misses  []serveOp
	uploads []int
	newMiss func(k int, rng *rand.Rand) server.SimulationRequest
	// newReplay draws replay submissions; only the server probe sends
	// them.
	newReplay func(rng *rand.Rand) server.SimulationRequest
}

// newMixPlan deals the upload pool's indices out to the clients in turn.
func newMixPlan(seed uint64, pool int,
	newMiss func(k int, rng *rand.Rand) server.SimulationRequest,
	newReplay func(rng *rand.Rand) server.SimulationRequest) *mixPlan {
	p := &mixPlan{rng: rand.New(rand.NewPCG(seed, 0x73657276))}
	for c := 0; c < serveClients; c++ {
		q := &clientSeq{
			rng:       rand.New(rand.NewPCG(seed, 0x73657276<<8|uint64(c))),
			client:    c,
			newMiss:   newMiss,
			newReplay: newReplay,
		}
		for i := c; i < pool; i += serveClients {
			q.uploads = append(q.uploads, i)
		}
		p.clients = append(p.clients, q)
	}
	return p
}

// nextClass draws the next batch's class. Uploads become hits once a
// client's pool cannot fill a batch, and hits become misses until every
// client has a miss to resubmit.
func (p *mixPlan) nextClass() string {
	uploadsLeft, haveMisses := true, true
	for _, q := range p.clients {
		uploadsLeft = uploadsLeft && len(q.uploads) >= serveBatch
		haveMisses = haveMisses && len(q.misses) > 0
	}
	u := p.rng.Float64()
	switch {
	case u < uploadShare && uploadsLeft:
		return "upload"
	case u < uploadShare+hitShare && haveMisses:
		return "hit"
	}
	return "miss"
}

// nextBatch draws serveBatch requests of class for every client.
func (p *mixPlan) nextBatch(class string) [][]serveOp {
	out := make([][]serveOp, len(p.clients))
	for c, q := range p.clients {
		for k := 0; k < serveBatch; k++ {
			out[c] = append(out[c], q.next(class))
		}
	}
	return out
}

// next draws one request of class; an upload with the pool spent or a
// hit with no miss yet becomes a miss.
func (q *clientSeq) next(class string) serveOp {
	switch {
	case class == "upload" && len(q.uploads) > 0:
		i := q.uploads[0]
		q.uploads = q.uploads[1:]
		return serveOp{class: "upload", path: "/v1/traces", of: i}
	case class == "hit" && len(q.misses) > 0:
		recent := q.misses[max(0, len(q.misses)-hitWindow):]
		op := recent[q.rng.IntN(len(recent))]
		op.class = "hit"
		return op
	case class == "replay" && q.newReplay != nil:
		req := q.newReplay(q.rng)
		return serveOp{class: "replay", path: "/v1/simulations?wait=true", req: req, body: mustJSON(req)}
	}
	req := q.newMiss(q.client+serveClients*len(q.misses), q.rng)
	op := serveOp{class: "miss", path: "/v1/simulations?wait=true", req: req, body: mustJSON(req), of: len(q.misses)}
	q.misses = append(q.misses, op)
	return op
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// genMiss draws serve-mix's miss requests: a fresh generated one-kernel
// workload with fixed size knobs and drawn write fraction and write
// working set, on a drawn paper configuration.
func genMiss(seed uint64) func(k int, rng *rand.Rand) server.SimulationRequest {
	return func(k int, rng *rand.Rand) server.SimulationRequest {
		cfg := paperConfigs[rng.IntN(len(paperConfigs))]
		wf := 0.03 + 0.47*rng.Float64()
		wws := math.Exp(math.Log(32) + (math.Log(512)-math.Log(32))*rng.Float64())
		return server.SimulationRequest{Config: cfg, Gen: &gen.AppSpec{
			Name: "mix", Seed: seed, Index: k,
			Kernels:      fixedDist(1),
			InstrPerWarp: fixedDist(genInstrPerWarp),
			WarpsPerSM:   fixedDist(genWarpsPerSM),
			WriteFrac:    fixedDist(wf),
			WWSKB:        fixedDist(wws),
		}}
	}
}

// uploadBlob is one fresh NDJSON trace and its record count.
type uploadBlob struct {
	ndjson  []byte
	records int
}

// genUploads records n small generated applications and encodes each as
// sttllc-trace/v1 NDJSON.
func genUploads(seed uint64, n int) ([]uploadBlob, error) {
	out := make([]uploadBlob, n)
	for i := range out {
		app, err := gen.AppSpec{Name: "up", Seed: seed, Index: i, Kernels: fixedDist(1),
			InstrPerWarp: fixedDist(genInstrPerWarp), WarpsPerSM: fixedDist(genWarpsPerSM)}.App()
		if err != nil {
			return nil, err
		}
		_, rec := sim.RecordApp(config.C1(), app, sim.Options{})
		var buf bytes.Buffer
		if err := ingest.WriteNDJSON(&buf, rec); err != nil {
			return nil, err
		}
		out[i] = uploadBlob{ndjson: buf.Bytes(), records: len(rec.Records)}
	}
	return out, nil
}

// opResult is one completed request.
type opResult struct {
	op      serveOp
	latency float64  // raw ns
	dump    [32]byte // hash of the miss/hit/replay result dump
	ok      bool
}

// serveHarness is an in-process sttserve behind a loopback listener
// with closed-loop clients.
type serveHarness struct {
	srv    *server.Server
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
	dir    string
	pool   []uploadBlob
	plan   *mixPlan
	// missDumps[c][i] hashes client c's i-th miss result.
	missDumps [][][32]byte
	results   []opResult
}

// startHarness boots the server on a fresh store directory.
func startHarness(r *run, pool []uploadBlob, plan *mixPlan) (*serveHarness, error) {
	dir, err := r.tempDir("serve")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Workers:    min(serveClients, runtime.GOMAXPROCS(0)),
		QueueDepth: 64,
		StoreDir:   dir,
		MaxTraces:  len(pool) + 8,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// Nothing was served; the listen error is the one to report.
		_ = srv.Shutdown(context.Background())
		_ = os.RemoveAll(dir)
		return nil, err
	}
	s := &serveHarness{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}),
		base: "http://" + ln.Addr().String(), dir: dir, pool: pool, plan: plan,
		client:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients * 2}},
		missDumps: make([][][32]byte, len(plan.clients)),
	}
	go func() {
		// Serve returns http.ErrServerClosed once close shuts it down.
		_ = s.hs.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// close stops the listener, drains the server and removes the store.
func (s *serveHarness) close() {
	if s == nil {
		return
	}
	// Teardown at the end of a run: a failure leaves nothing to retry,
	// and srv.Shutdown waits for its workers even past the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.done
	_ = s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
	_ = os.RemoveAll(s.dir)
}

// do sends one request and checks its response shape.
func (s *serveHarness) do(c int, op serveOp) (opResult, string) {
	res := opResult{op: op}
	body := op.body
	if op.class == "upload" {
		body = s.pool[op.of].ndjson
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.base+op.path, "application/json", bytes.NewReader(body))
	var payload []byte
	if err == nil {
		payload, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	res.latency = float64(time.Since(t0).Nanoseconds())
	if err != nil {
		return res, fmt.Sprintf("%s: %v", op.class, err)
	}
	switch op.class {
	case "upload":
		var st server.TraceStatus
		if resp.StatusCode != http.StatusCreated || json.Unmarshal(payload, &st) != nil {
			return res, fmt.Sprintf("upload %d: status %d: %.200s", op.of, resp.StatusCode, payload)
		}
		if st.Records != s.pool[op.of].records {
			return res, fmt.Sprintf("upload %d: %d records registered, %d sent", op.of, st.Records, s.pool[op.of].records)
		}
	default:
		var st server.JobStatus
		if resp.StatusCode != http.StatusOK || json.Unmarshal(payload, &st) != nil || st.State != "done" || st.Result == nil {
			return res, fmt.Sprintf("%s: status %d: %.200s", op.class, resp.StatusCode, payload)
		}
		res.dump = dumpHash(*st.Result)
		switch op.class {
		case "miss":
			if st.Cached {
				return res, "miss answered from the cache"
			}
		case "hit":
			if !st.Cached {
				return res, "resubmission was not a cache hit"
			}
			if res.dump != s.missDumps[c][op.of] {
				return res, "cache hit returned a different dump than the original run"
			}
		}
	}
	res.ok = true
	return res, ""
}

// batch runs one batch of class: serveBatch requests on every client
// concurrently, after a reference slice. It records every request as a
// sample and returns the batch as a throughput segment with the heap
// allocations made during it.
func (s *serveHarness) batch(r *run, tr *tracer, class string) (segment, uint64) {
	ops := s.plan.nextBatch(class)
	ref := r.norm.slice()
	m0 := mallocs()
	t0 := time.Now()
	out := make([][]opResult, len(ops))
	msgs := make([][]string, len(ops))
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, op := range ops[c] {
				run := tr.newRun()
				sp := tr.begin("request."+op.class, -1, run)
				res, msg := s.do(c, op)
				tr.end(sp)
				if op.class == "miss" {
					s.missDumps[c] = append(s.missDumps[c], res.dump)
				}
				out[c] = append(out[c], res)
				msgs[c] = append(msgs[c], msg)
			}
		}(c)
	}
	wg.Wait()
	raw := float64(time.Since(t0).Nanoseconds())
	allocs := mallocs() - m0
	n := 0
	for c := range out {
		for k, res := range out[c] {
			n++
			r.attempted++
			r.samples = append(r.samples, sample{class: res.op.class, rawNs: res.latency, ops: 1, ref: ref, traced: tr != nil})
			if msgs[c][k] != "" {
				r.fail("client %d: %s", c, msgs[c][k])
			}
			s.results = append(s.results, res)
		}
	}
	return segment{rawNs: raw, ops: float64(n), ref: ref}, allocs
}

// verifyMisses re-runs every miss locally (untimed, serveClients at a
// time) and requires a byte-identical dump. It returns each miss's
// latency minus its direct run time: the server's own share.
func (s *serveHarness) verifyMisses(r *run) []float64 {
	var misses []opResult
	for _, res := range s.results {
		if res.op.class == "miss" && res.ok {
			misses = append(misses, res)
		}
	}
	self := make([]float64, len(misses))
	bad := make([]string, len(misses))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(misses) {
					return
				}
				t0 := time.Now()
				if err := checkMiss(misses[k].op.req, misses[k].dump); err != nil {
					bad[k] = err.Error()
				}
				self[k] = misses[k].latency - float64(time.Since(t0).Nanoseconds())
			}
		}()
	}
	wg.Wait()
	for k, b := range bad {
		if b != "" {
			r.fail("miss %d: %s", k, b)
		}
	}
	return self
}

// localRun executes a request the way the server's job runner does, for
// comparison: same spec resolution and an enabled metrics registry.
func localRun(req server.SimulationRequest) (*sim.StatsDump, error) {
	cfg, ok := config.ByName(req.Config)
	if !ok {
		return nil, fmt.Errorf("unknown config %q", req.Config)
	}
	reg := metrics.NewRegistry(true)
	opts := sim.Options{Metrics: reg}
	if req.Gen != nil {
		app, err := req.Gen.App()
		if err != nil {
			return nil, err
		}
		ar, err := sim.RunAppContext(context.Background(), cfg, app, opts)
		if err != nil {
			return nil, err
		}
		d := sim.DumpStats(ar.Final, reg)
		return &d, nil
	}
	spec, ok := workloads.ByName(req.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", req.Bench)
	}
	if req.Scale > 0 && req.Scale != 1 {
		spec = spec.Scale(req.Scale)
	}
	if req.Warps > 0 {
		spec.WarpsPerSM = req.Warps
	}
	d := sim.DumpStats(sim.RunOne(cfg, spec, opts), reg)
	return &d, nil
}

// scrape reads the server's /metrics counters by registry name.
func (s *serveHarness) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[strings.TrimPrefix(f[0], "sttllc_")] = v
		}
	}
	return out, nil
}

// serveMix is the simulation service under a seeded closed-loop mix of
// trace uploads, fresh generated simulations and cache-hit
// resubmissions.
type serveMix struct {
	sess *serveHarness
	self []float64
}

func (m *serveMix) setup(r *run) error {
	pool, err := genUploads(r.seed, uploadsPerClient*serveClients)
	if err != nil {
		return err
	}
	m.sess, err = startHarness(r, pool, newMixPlan(r.seed, len(pool), genMiss(r.seed), nil))
	return err
}

// measure runs batches until the deadline. Throughput and allocations
// count miss batches only, so the class shares do not move them.
func (m *serveMix) measure(r *run, deadline time.Time) {
	for i := 0; time.Now().Before(deadline); i++ {
		class := m.sess.plan.nextClass()
		seg, allocs := m.sess.batch(r, r.unitTracer(i, 0), class)
		if class == r.ws.class {
			r.segments = append(r.segments, seg)
			r.allocs += allocs
			r.allocOps += seg.ops
		}
	}
}

func (m *serveMix) verify(r *run) {
	m.self = m.sess.verifyMisses(r)
	counts := map[string]int{}
	for _, res := range m.sess.results {
		counts[res.op.class]++
	}
	r.note("requests: %d miss, %d hit, %d upload; every miss dump checked against a local run",
		counts["miss"], counts["hit"], counts["upload"])
}

func (m *serveMix) probeInputs() probeInputs {
	p := probeInputs{cfgs: []string{"C1"}, gen: true}
	for _, op := range m.sess.plan.clients[0].misses {
		if app, err := op.req.Gen.App(); err == nil {
			p.specs = append(p.specs, app.Kernels...)
		}
		if len(p.specs) >= 4 {
			break
		}
	}
	return p
}

func (m *serveMix) close() { m.sess.close() }
