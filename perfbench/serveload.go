package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"micrograd/internal/cloning"
	"micrograd/internal/evalcache"
	"micrograd/internal/experiments"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/report"
	"micrograd/internal/serve"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
)

// serveBench drives an in-process mgserve daemon (serve.Server behind its
// Handler on a loopback listener, one job worker, no per-job fan-out)
// from one client over HTTP. Its jobs are two cloning suites that share
// gcc at the same suite position, so gcc's generation seed (suite seed +
// 101 x position) and therefore its cache keys coincide across the jobs:
// the job that runs second finds gcc's candidates in the cache.
type serveBench struct {
	o    options
	jobs [2]serve.JobRequest
	slot *slot

	// ref holds the reference results: those of the first unit, which
	// every later unit must reproduce.
	ref [2]serve.JobResult
}

// serveLoopSize is the kernel size of the daemon's cloning runs (the full
// budget's).
const serveLoopSize = 500

func newServeCold(o options) bench {
	instr, epochs := 20000, 30
	if o.tiny {
		instr, epochs = 3000, 3
	}
	job := func(bms ...string) serve.JobRequest {
		return serve.JobRequest{Kind: "cloning", Core: "large", Instructions: instr, Epochs: epochs,
			Seed: o.programSeed, Parallel: 1, Benchmarks: bms}
	}
	return &serveBench{o: o, jobs: [2]serve.JobRequest{job("gcc", "mcf"), job("gcc", "hmmer")}}
}

// daemon is a serve.Server listening on loopback, and its client.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

func startDaemon(cache evalcache.Cache) (*daemon, error) {
	// One worker: in interleaved runs on a 2-CPU shared host, two workers
	// followed the host's other load with about twice the run-to-run range
	// of unit time that one worker has.
	srv := serve.New(serve.Config{Cache: cache, Workers: 1, Parallel: 1, Now: time.Now})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	var ok bytes.Buffer
	if err := d.get("/healthz", &ok); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the listener, waits for it, and shuts the daemon down.
func (d *daemon) close() {
	_ = d.hs.Close()
	<-d.done
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// get fetches path into out (a *bytes.Buffer, or a value to decode JSON
// into).
func (d *daemon) get(path string, out any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		_, err = buf.ReadFrom(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (d *daemon) submit(req serve.JobRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /jobs: %s", resp.Status)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// streamed is what a client saw of one job's NDJSON stream.
type streamed struct {
	rows     []experiments.ProgressRow
	firstRow time.Time
	end      time.Time
}

// stream reads a job's progression stream to its terminal line.
func (d *daemon) stream(id string) (streamed, error) {
	var s streamed
	resp, err := d.client.Get(d.base + "/jobs/" + id + "/stream")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			experiments.ProgressRow
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return s, fmt.Errorf("stream %s: %w", id, err)
		}
		if line.State != "" {
			s.end = time.Now()
			if line.State != string(serve.StateDone) {
				return s, fmt.Errorf("job %s ended %s: %s", id, line.State, line.Error)
			}
			return s, nil
		}
		if len(s.rows) == 0 {
			s.firstRow = time.Now()
		}
		s.rows = append(s.rows, line.ProgressRow)
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	return s, fmt.Errorf("stream %s ended without a terminal line", id)
}

// jobRun is one finished job as the client saw it.
type jobRun struct {
	streamed
	submitted time.Time
	result    serve.JobResult
	// status is read in process: its timestamps keep the monotonic clock.
	status serve.JobStatus
}

// runJob submits a job, streams it to the end and fetches its result.
func (d *daemon) runJob(req serve.JobRequest) (jobRun, error) {
	r := jobRun{submitted: time.Now()}
	id, err := d.submit(req)
	if err != nil {
		return r, err
	}
	err = d.finish(id, &r)
	return r, err
}

// finish streams a submitted job to its end and fetches its result.
func (d *daemon) finish(id string, r *jobRun) error {
	var err error
	if r.streamed, err = d.stream(id); err != nil {
		return err
	}
	if err := d.get("/jobs/"+id+"/result", &r.result); err != nil {
		return err
	}
	r.status, _ = d.srv.Status(id)
	if !sameRows(r.rows, r.result.Series) {
		return fmt.Errorf("job %s: streamed rows differ from the result's series", id)
	}
	return nil
}

// runPair submits both jobs, first the one order selects, then streams
// both: the daemon's worker runs one while the other waits in its queue.
func (d *daemon) runPair(jobs [2]serve.JobRequest, first int) ([2]jobRun, error) {
	var runs [2]jobRun
	var ids [2]string
	for _, k := range [2]int{first, 1 - first} {
		runs[k].submitted = time.Now()
		var err error
		if ids[k], err = d.submit(jobs[k]); err != nil {
			return runs, err
		}
	}
	var errs [2]error
	var wg sync.WaitGroup
	for k := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = d.finish(ids[k], &runs[k])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return runs, err
		}
	}
	return runs, nil
}

func (b *serveBench) setup() error {
	b.slot = &slot{}
	b.slot.Store(newProbe(false))
	cache := newCache(b.slot, b.o.trace)
	d, err := startDaemon(cache)
	if err != nil {
		return err
	}
	// Every unit starts a fresh daemon; set-up measures starting one and
	// completing a one-epoch warm-up job on it.
	defer d.close()
	req := b.jobs[0]
	req.Benchmarks, req.Epochs = []string{"mcf"}, 1
	_, err = d.runJob(req)
	return err
}

// run executes one unit: both jobs on a fresh daemon.
func (b *serveBench) run(i int, pr *probe) (unit, error) {
	b.slot.Store(pr)
	d, err := startDaemon(newCache(b.slot, pr.tracing))
	if err != nil {
		return unit{}, err
	}
	defer d.close()
	var before serve.Stats
	if err := d.get("/stats", &before); err != nil {
		return unit{}, err
	}
	start := time.Now()
	runs, err := d.runPair(b.jobs, order(b.o.seed, i))
	if err != nil {
		return unit{}, err
	}
	var u unit
	var after serve.Stats
	if err := d.get("/stats", &after); err != nil {
		return unit{}, err
	}
	var dg digest
	var outputs []string
	refEvals, rows := 0, 0
	var firstRow, end time.Time
	if b.ref[0].Output == "" {
		for k := range runs {
			b.ref[k] = runs[k].result
		}
	}
	for k, r := range runs {
		if r.result.Output != b.ref[k].Output || !sameRows(r.result.Series, b.ref[k].Series) {
			u.problem = fmt.Sprintf("job %d's report differs from the reference run's", k)
		}
		dg.add(r.result.Output)
		for _, row := range r.rows {
			dg.add(row.Series, row.X, row.Y)
		}
		outputs = append(outputs, r.result.Output)
		refEvals += len(b.jobs[k].Benchmarks)
		rows += len(r.rows)
		u.jobs = append(u.jobs, r.end.Sub(r.submitted).Seconds())
		u.queueWait = append(u.queueWait, r.status.Started.Sub(r.status.Created).Seconds())
		if firstRow.IsZero() || r.firstRow.Before(firstRow) {
			firstRow = r.firstRow
		}
		if r.end.After(end) {
			end = r.end
		}
	}
	u.wall = end.Sub(start).Seconds()
	u.firstRow = firstRow.Sub(start).Seconds()
	u.covered = busySpan(runs)
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	// Every miss simulates one candidate and every suite benchmark one
	// reference measurement, each over the job's full window; the traced
	// run's replay checks this count against the simulator.
	simInstrs := int64(misses+uint64(refEvals)) * int64(b.jobs[0].Instructions)
	u.counts = counts{
		Lookups: hits + misses, Hits: hits, Misses: misses, Entries: after.CacheEntries,
		Proposed: int(hits + misses), Epochs: rows, SimInstrs: simInstrs, Rows: rows,
	}
	u.counts.addTo(&dg)
	u.digest = dg.String()
	acc, err := cloneAccuracyPct(outputs)
	if err != nil {
		return unit{}, err
	}
	u.quality = map[string]float64{"clone_accuracy_pct": acc}
	return u, nil
}

// busySpan is the time the daemon spent executing the jobs: the union of
// their started-to-finished intervals.
func busySpan(runs [2]jobRun) float64 {
	a, b := runs[0].status, runs[1].status
	if b.Started.Before(a.Started) {
		a, b = b, a
	}
	total := a.Finished.Sub(a.Started)
	if b.Started.Before(a.Finished) {
		if b.Finished.After(a.Finished) {
			total += b.Finished.Sub(a.Finished)
		}
	} else {
		total += b.Finished.Sub(b.Started)
	}
	return total.Seconds()
}

func sameRows(a, b []experiments.ProgressRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Series != b[i].Series || math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// cloneAccuracyPct reads the per-metric clone/target ratios the cloning
// reports print (three decimals) and returns 100 x (1 - mean |ratio - 1|)
// over every benchmark row. The targets are the repository's synthetic
// SPEC-like references, not hardware measurements.
func cloneAccuracyPct(outputs []string) (float64, error) {
	n := len(metrics.CloningMetricNames())
	var accs []float64
	for _, out := range outputs {
		lines := strings.Split(out, "\n")
		body := false
		for _, line := range lines {
			f := strings.Fields(line)
			if strings.HasPrefix(line, "---") {
				body = true
				continue
			}
			if !body || len(f) != n+3 {
				continue
			}
			errSum, k := 0.0, 0
			for _, cell := range f[1 : n+1] {
				if cell == "-" {
					continue
				}
				r, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return 0, fmt.Errorf("clone report cell %q: %w", cell, err)
				}
				errSum += math.Abs(r - 1)
				k++
			}
			if k > 0 {
				accs = append(accs, 100*(1-errSum/float64(k)))
			}
		}
	}
	if len(accs) == 0 {
		return 0, fmt.Errorf("no clone accuracy rows in the job reports")
	}
	total := 0.0
	for _, a := range accs {
		total += a
	}
	return total / float64(len(accs)), nil
}

// layers runs the daemon's jobs again in process — the same cloning calls
// the daemon makes, through probed platforms and tuners — checks that they
// reproduce the daemon's reports bit for bit, and takes the layers the
// daemon gives no interface for from them.
func (b *serveBench) layers(traced []unit, m map[string]float64) error {
	s := &slot{}
	calls := newProbe(true)
	s.Store(calls)
	group := evalcache.NewGroup(newCache(s, true))
	start := time.Now()
	run, err := b.mirror(group, s)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	if err := b.matchesDaemon(run); err != nil {
		return err
	}
	mirrored := unit{wall: wall, probe: calls, counts: counts{
		SynthHits: run.synthHits, SynthMisses: run.synthMisses, Proposed: run.proposed, Epochs: run.epochs,
	}}
	spanLayers([]unit{mirrored}, m)
	rp, err := newReplayer(platform.Large(), nil)
	if err != nil {
		return err
	}
	sim, err := platform.NewSimPlatform(platform.Large())
	if err != nil {
		return err
	}
	if err := replayLayers(rp, platform.EvalIdentityOf(sim), calls, m); err != nil {
		return err
	}
	if got, want := calls.instrs.Load(), traced[0].counts.SimInstrs; got != want {
		return fmt.Errorf("in-process run simulated %d instructions, the daemon's count is %d", got, want)
	}
	return nil
}

// mirrorRun is the outcome of running the daemon's jobs in process.
type mirrorRun struct {
	outputs                [2]string
	rows                   [2][]experiments.ProgressRow
	proposed, epochs       int
	synthHits, synthMisses uint64
}

// matchesDaemon checks an in-process run against the daemon's reports.
func (b *serveBench) matchesDaemon(run mirrorRun) error {
	for k, want := range b.ref {
		if run.outputs[k] != want.Output || !sameRows(run.rows[k], want.Series) {
			return fmt.Errorf("in-process run of job %d differs from the daemon's", k)
		}
	}
	return nil
}

// mirror runs both jobs, one after the other, the way the daemon's
// cloning experiment does (experiments.RunFig2 with one worker): per suite
// benchmark i a fresh Large-core platform, gradient descent, generation
// seed = suite seed + 101 i, and the shared cache group.
func (b *serveBench) mirror(group *evalcache.Group, s *slot) (mirrorRun, error) {
	var out mirrorRun
	for k, req := range b.jobs {
		reports := make(map[string]cloning.Report, len(req.Benchmarks))
		var rows []experiments.ProgressRow
		totalErr, totalEvals := 0.0, 0
		for i, name := range req.Benchmarks {
			bm, err := workloads.ByName(name)
			if err != nil {
				return out, err
			}
			csyn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: serveLoopSize, Seed: req.Seed + int64(i)*101})
			sim, err := platform.NewSimPlatform(platform.Large())
			if err != nil {
				return out, err
			}
			rep, err := cloning.CloneBenchmark(context.Background(), bm, cloning.Options{
				Tuner:       s.Load().wrapTuner(tuner.NewGradientDescent(tuner.GDParams{})),
				Platform:    &simProbe{SimPlatform: sim, slot: s, synth: csyn.Options()},
				EvalOptions: platform.EvalOptions{DynamicInstructions: req.Instructions, Seed: req.Seed},
				LoopSize:    serveLoopSize,
				Seed:        req.Seed + int64(i)*101,
				MaxEpochs:   req.Epochs,
				Parallel:    1,
				Memo:        group,
				Synth:       csyn,
				OnEpoch: func(rec tuner.EpochRecord) {
					rows = append(rows, experiments.ProgressRow{Series: bm.Name, X: float64(rec.Epoch), Y: rec.BestLoss})
				},
			})
			if err != nil {
				return out, err
			}
			reports[bm.Name] = rep
			totalErr += report.MeanAbsError(rep.Accuracy)
			totalEvals += rep.Evaluations
			sh, sm := csyn.Stats()
			out.proposed += rep.TunerResult.TotalEvaluations
			out.epochs += len(rep.TunerResult.Epochs)
			out.synthHits += sh
			out.synthMisses += sm
		}
		res := experiments.CloningResult{
			Figure: "fig2", Core: platform.Large().Kind, Tuner: "gradient-descent",
			Reports: reports, MeanError: totalErr / float64(len(req.Benchmarks)), TotalEvaluations: totalEvals,
		}
		out.outputs[k] = res.Render()
		out.rows[k] = rows
	}
	return out, nil
}
