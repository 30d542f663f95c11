package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/errmodel"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/store"
	"dedc/internal/tpg"
)

// service is a closed loop of clients, each submitting .bench text to one
// dedcd over a durable store and waiting for the result before sending its
// next job. Two of every three jobs are stuck-at jobs on a few shared
// designs, each with a different failing device, so the design's parse and
// ATPG are cache hits after its first job; the third is a repair job on a
// distinct random netlist, which runs cold.
type service struct {
	clients int
	dedcd   string // daemon binary

	seed    int64
	designs []*svcDesign
	pre     []*svcJob // the first preOps jobs, built in setup
	dir     string
	d       *daemon
	boots   int
}

const (
	svcDesigns = 4
	// svcJobWorkers is dedcd's job worker count. With one worker and
	// NumCPU clients, jobs queue behind each other and the daemon keeps one
	// CPU busy, which leaves the run less exposed to other load on the host.
	svcJobWorkers = 1
	svcRandom     = 1024       // random patterns per job; dedcd adds PODEM tests
	svcCacheBytes = 4 << 20    // dedcd -cache-bytes
	svcSeed       = vectorSeed // vector seed of every job
)

// svcDesign is a shared stuck-at design with its random vector prefix.
type svcDesign struct {
	text  string
	c     *circuit.Circuit
	row   *specRow
	sites []fault.Site
}

// svcJob is one job: its request body and what the checker needs.
type svcJob struct {
	index  int
	kind   string // "stuckat" or "repair"
	k      int
	body   []byte
	impl   string
	ref    string
	design *svcDesign       // stuck-at jobs
	device *circuit.Circuit // stuck-at jobs
	spec   *circuit.Circuit // repair jobs

	// Filled by the client.
	t0, t3 time.Time
	cpuAt  time.Duration // dedcd's CPU clock when the client had the result
	cpuErr error
	cpu    time.Duration // dedcd's CPU since the previous completion
	res    *svcResult
	tl     []store.TimelineEvent
	err    error
}

// svcResult is the part of dedcd's job result the benchmark reads.
type svcResult struct {
	Mode        string         `json:"mode"`
	Status      string         `json:"status"`
	Solved      bool           `json:"solved"`
	Corrections []string       `json:"corrections"`
	Tuples      [][]string     `json:"tuples"`
	Repaired    string         `json:"repaired"`
	Verified    int            `json:"verified"`
	Stats       diagnose.Stats `json:"stats"`
}

func (w *service) name() string { return "service-mix" }
func (w *service) load() loadInfo {
	return loadInfo{Clients: w.clients, Workers: svcJobWorkers, SimWorkers: 1}
}

func (w *service) setup(seed int64) error {
	w.seed = seed
	w.designs = nil
	for d := 0; d < svcDesigns; d++ {
		// The shared designs are fixed, like the suite circuits of the
		// library workloads; the seed draws each job's faults or netlist.
		c := gen.Random(gen.RandomOptions{PIs: 20, Gates: 300, Seed: int64(1000 + d)})
		row, err := specRowOf(fmt.Sprintf("design%d", d), c, svcRandom)
		if err != nil {
			return err
		}
		text, err := bench.WriteString(row.spec)
		if err != nil {
			return err
		}
		w.designs = append(w.designs, &svcDesign{text: text, c: row.spec, row: row, sites: fault.Sites(row.spec)})
	}
	w.pre = make([]*svcJob, preOps)
	for i := range w.pre {
		j, err := w.job(i)
		if err != nil {
			return fmt.Errorf("job %d inputs: %w", i, err)
		}
		w.pre[i] = j
	}
	w.boots++
	w.dir = filepath.Join(benchDir(), fmt.Sprintf("svc-%d-%d", os.Getpid(), w.boots))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	d, err := startDaemon(w.dedcd, w.dir, svcJobWorkers)
	if err != nil {
		return err
	}
	w.d = d
	return nil
}

// daemonCPU is the CPU the daemon of the last set-up has used so far: its
// boot, when called right after set-up.
func (w *service) daemonCPU() (time.Duration, error) { return procCPU(w.d.cmd.Process.Pid) }

// close stops the daemon and removes its store.
func (w *service) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// job builds job i from the seed. Stuck-at jobs have one or two faults;
// repair jobs have one design error. With two, one repair in about fifty
// took seconds instead of milliseconds, and with one job worker every job
// queued behind it waited as long.
func (w *service) job(i int) (*svcJob, error) {
	seed := opSeed(w.seed, i)
	k := 1 + (i/3)%2
	if i%3 == 2 {
		k = 1
	}
	j := &svcJob{index: i, k: k}
	var req map[string]any
	if i%3 != 2 {
		d := w.designs[(i/3*2+i%3)%len(w.designs)]
		fs, err := observableFaults(d.row, d.sites, k, seed)
		if err != nil {
			return nil, err
		}
		j.kind, j.design, j.device = "stuckat", d, fault.Inject(d.c, fs...)
		dev, err := bench.WriteString(j.device)
		if err != nil {
			return nil, err
		}
		j.impl, j.ref = d.text, dev
		req = map[string]any{"impl": d.text, "device": dev}
	} else {
		c := gen.Random(gen.RandomOptions{PIs: 16, Gates: 200, Seed: seed})
		row, err := specRowOf("repair", c, svcRandom)
		if err != nil {
			return nil, err
		}
		bad, _, err := errmodel.Inject(row.spec, k, errmodel.InjectOptions{Seed: seed, CheckPatterns: row.v.PI, N: row.v.N})
		if err != nil {
			return nil, err
		}
		spec, err := bench.WriteString(row.spec)
		if err != nil {
			return nil, err
		}
		impl, err := bench.WriteString(bad)
		if err != nil {
			return nil, err
		}
		j.kind, j.spec, j.impl, j.ref = "repair", row.spec, impl, spec
		req = map[string]any{"impl": impl, "spec": spec}
	}
	req["random"], req["seed"], req["max_errors"] = svcRandom, svcSeed, k
	var err error
	j.body, err = json.Marshal(req)
	return j, err
}

func (w *service) run(ctx context.Context, env *runEnv) ([]*opRec, window, error) {
	var win window
	cl := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.clients}}
	base := "http://" + w.d.addr
	cache0, err := cacheStats(cl, base)
	if err != nil {
		return nil, win, err
	}
	cpu0, err := procCPU(w.d.cmd.Process.Pid)
	if err != nil {
		return nil, win, err
	}

	var next atomic.Int64
	var mu sync.Mutex
	var jobs []*svcJob
	var genErr error
	var rss []float64
	// The speed probe runs on its own goroutine, as the clients only wait.
	stopProbe, probeDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(probeDone)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-stopProbe:
				return
			case <-t.C:
				env.probe.sample()
			}
		}
	}()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				el := time.Since(start)
				if (el >= env.seconds && i >= minOps) || el >= hardStop {
					return
				}
				var j *svcJob
				var err error
				if i < len(w.pre) {
					j = w.pre[i]
				} else {
					j, err = w.job(i)
				}
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				w.submit(ctx, cl, base, j, env.tr.on)
				mu.Lock()
				j.cpuAt, j.cpuErr = procCPU(w.d.cmd.Process.Pid)
				jobs = append(jobs, j)
				if len(jobs) <= minOps {
					if r, err := procRSS(w.d.cmd.Process.Pid, "VmRSS:"); err == nil {
						rss = append(rss, float64(r))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stopProbe)
	<-probeDone
	if genErr != nil {
		return nil, win, genErr
	}
	// jobs is in completion order here. dedcd's one job worker runs one job
	// at a time, so the daemon's CPU between two completions is the later
	// job's, give or take what the next job ran before its client read the
	// clock.
	prev := cpu0
	for _, j := range jobs {
		if j.cpuErr != nil {
			return nil, win, j.cpuErr
		}
		j.cpu, prev = j.cpuAt-prev, j.cpuAt
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].index < jobs[b].index })
	// The daemon's resident set, sampled as each of the first minOps jobs
	// completes: its p90 follows the peak without hanging on one
	// garbage-collector cycle. The store keeps every job it has run, so
	// the resident set grows with the jobs done; every run holds the first
	// minOps, while how many more it holds depends on the host's speed.
	if len(rss) == 0 {
		return nil, win, fmt.Errorf("no resident-set samples of dedcd")
	}
	win.peakRSS = int64(quantile(rss, 0.9))
	cache1, err := cacheStats(cl, base)
	if err != nil {
		return nil, win, err
	}

	// Everything below runs after the measured window: the traced replay of
	// each job's library calls, and the checker.
	checkV := map[*svcDesign]patterns{}
	vs := map[string]*tpg.Result{} // V per impl text, from the replay or the checker
	var ops []*opRec
	for _, j := range jobs {
		o := &opRec{Index: j.index, Label: j.kind, Wall: j.t3.Sub(j.t0), CPU: j.cpu}
		ops = append(ops, o)
		if j.err != nil {
			o.Failed, o.Reason = true, j.err.Error()
			continue
		}
		r := j.res
		o.Nodes, o.Trials, o.Candidates, o.Screened = int64(r.Stats.Nodes), int64(r.Stats.Trials), r.Stats.Candidates, int64(r.Stats.Screened)
		o.Simulations, o.Verified = r.Stats.Simulations, int64(r.Stats.Verified)
		if env.tr.on {
			if err := w.replay(ctx, env.tr, j, o, vs); err != nil {
				o.Failed, o.Reason = true, "replay: "+err.Error()
				continue
			}
		}
		solved, err := w.check(j, o, checkV, vs)
		if err != nil {
			o.Failed, o.Reason = true, "checker: "+err.Error()
			continue
		}
		o.Solved = solved
	}
	if env.tr.on && len(ops) > 0 {
		// The cache counters are daemon-wide; charge the window's delta to
		// the first op so the per-op mean is the window's hit ratio.
		ops[0].lay.cacheHits = cache1.Hits - cache0.Hits
		ops[0].lay.cacheMisses = cache1.Misses - cache0.Misses
	}
	return ops, win, nil
}

// submit runs one job through the HTTP API: POST it, wait on its event
// stream for the terminal transition, then fetch the result. A traced run
// also fetches the job's timeline.
func (w *service) submit(ctx context.Context, cl *http.Client, base string, j *svcJob, traced bool) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	j.t0 = time.Now()
	defer func() {
		if j.t3.IsZero() {
			j.t3 = time.Now()
		}
	}()
	var sub struct {
		ID string `json:"id"`
	}
	if j.err = doJSON(ctx, cl, "POST", base+"/v1/jobs", j.body, http.StatusAccepted, &sub); j.err != nil {
		return
	}
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/v1/jobs/"+sub.ID+"/events", nil)
	resp, err := cl.Do(req)
	if err != nil {
		j.err = err
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var res svcResult
	if j.err = doJSON(ctx, cl, "GET", base+"/v1/jobs/"+sub.ID+"/result", nil, http.StatusOK, &res); j.err != nil {
		if ctx.Err() != nil {
			j.err = fmt.Errorf("hang guard: job exceeded %v", opTimeout)
		}
		return
	}
	j.t3 = time.Now()
	j.res = &res
	if traced {
		var view struct {
			Timeline []store.TimelineEvent `json:"timeline"`
		}
		if j.err = doJSON(ctx, cl, "GET", base+"/v1/jobs/"+sub.ID, nil, http.StatusOK, &view); j.err == nil {
			j.tl = view.Timeline
		}
	}
}

func doJSON(ctx context.Context, cl *http.Client, method, url string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}

// replay re-runs a job's library calls in-process on the same inputs and
// splits its latency: client submit, queue wait and result fetch from the
// job timeline, the attempt from the replayed bench/tpg/sim/diagnose calls.
// The attempt time the replay does not cover is left unattributed. Like the
// daemon's cache, the replay parses a shared design and builds its vectors
// only on the design's first job.
func (w *service) replay(ctx context.Context, tr *tracer, j *svcJob, o *opRec, seen map[string]*tpg.Result) error {
	var sub, claim, done time.Time
	for _, ev := range j.tl {
		switch ev.Type {
		case store.TLSubmitted:
			sub = ev.TS
		case store.TLClaimed:
			claim = ev.TS
		case store.TLCompleted:
			done = ev.TS
		}
	}
	if sub.IsZero() || claim.IsZero() || done.IsZero() {
		return fmt.Errorf("incomplete timeline %v", j.tl)
	}
	t0, t3 := j.t0.Round(0), j.t3.Round(0)
	root := tr.add(j.index, "op", -1, t0, t3)
	tr.add(j.index, "dedcd.submit", root, t0, sub)
	tr.add(j.index, "dedcd.queue_wait", root, sub, claim)
	att := tr.add(j.index, "dedcd.attempt", root, claim, done)
	tr.add(j.index, "dedcd.result", root, done, t3)
	o.lay.submit, o.lay.queue, o.lay.attempt, o.lay.wait = sub.Sub(t0), claim.Sub(sub), done.Sub(claim), t3.Sub(done)

	var impl, ref *circuit.Circuit
	var err error
	v, cached := seen[j.impl]
	if !cached {
		o.lay.parse += tr.call(j.index, "bench.ReadString", att, func() { impl, err = bench.ReadString(j.impl) })
	} else {
		impl, err = bench.ReadString(j.impl)
	}
	if err != nil {
		return err
	}
	o.lay.parse += tr.call(j.index, "bench.ReadString", att, func() { ref, err = bench.ReadString(j.ref) })
	if err != nil {
		return err
	}
	if !cached {
		o.lay.vectors = tr.call(j.index, "tpg.BuildVectors", att, func() {
			v = tpg.BuildVectors(impl, tpg.Options{Random: svcRandom, Seed: svcSeed, Deterministic: true})
		})
		o.lay.tpgCalls, o.lay.backtracks, o.lay.generated = 1, v.Backtracks, int64(v.Generated)
		o.lay.coverage, o.lay.patterns = v.Coverage, int64(v.N)
		seen[j.impl] = v // for the design's later jobs and for the checker
	}
	var refOut [][]uint64
	o.lay.device = tr.call(j.index, "diagnose.DeviceOutputs", att, func() { refOut = diagnose.DeviceOutputs(ref, v.PI, v.N) })
	opt := diagnose.Options{MaxErrors: j.k, Seed: svcSeed, Workers: 1}
	var stats diagnose.Stats
	var d time.Duration
	// The replay must give the daemon's answer itself: the same tuples in
	// dedcd's site/value form, or the same corrections and repaired .bench.
	var answer, daemon []string
	if j.kind == "stuckat" {
		var res *diagnose.StuckAtResult
		d = tr.call(j.index, "diagnose.DiagnoseStuckAtContext", att, func() {
			res, err = diagnose.DiagnoseStuckAtContext(ctx, impl, refOut, v.PI, v.N, opt)
		})
		if err != nil {
			return err
		}
		stats = res.Stats
		for _, t := range res.Tuples {
			answer = append(answer, tupleKey(impl, t))
		}
		for _, t := range j.res.Tuples {
			daemon = append(daemon, strings.Join(t, ","))
		}
	} else {
		var rep *diagnose.RepairResult
		d = tr.call(j.index, "diagnose.RepairContext", att, func() {
			rep, err = diagnose.RepairContext(ctx, impl, refOut, v.PI, v.N, opt)
		})
		if err != nil {
			return err
		}
		stats = rep.Stats
		for _, c := range rep.Corrections {
			answer = append(answer, c.String())
		}
		if rep.Repaired != nil {
			text, err := bench.WriteString(rep.Repaired)
			if err != nil {
				return err
			}
			answer = append(answer, text)
		}
		daemon = append(daemon, j.res.Corrections...)
		if j.res.Repaired != "" {
			daemon = append(daemon, j.res.Repaired)
		}
	}
	if strings.Join(answer, "\n") != strings.Join(daemon, "\n") {
		return fmt.Errorf("in-process replay found another answer than the daemon")
	}
	if stats.Deterministic() != j.res.Stats.Deterministic() {
		return fmt.Errorf("in-process replay counts differ from the daemon's")
	}
	o.lay.diag, o.lay.corr, o.lay.other = stats.DiagTime, stats.CorrTime, d-stats.DiagTime-stats.CorrTime
	return nil
}

// jobVectors is V as dedcd builds it for a job: random patterns plus PODEM
// tests on the parsed impl netlist. A traced replay stores the set it built
// in vs; otherwise it is built here, after the measured window, with one
// ATPG worker per CPU (the set is the same at any worker count).
func jobVectors(impl string, c *circuit.Circuit, vs map[string]*tpg.Result) *tpg.Result {
	if v := vs[impl]; v != nil {
		return v
	}
	v := tpg.BuildVectors(c, tpg.Options{Random: svcRandom, Seed: svcSeed, Deterministic: true, Workers: runtime.NumCPU()})
	vs[impl] = v
	return v
}

// check validates a job's answer over V built exactly as dedcd builds it.
// Stuck-at tuples are re-injected and simulated; repairs, the .bench that
// dedcd returns, are re-simulated against the specification.
func (w *service) check(j *svcJob, o *opRec, checkV map[*svcDesign]patterns, vs map[string]*tpg.Result) (bool, error) {
	r := j.res
	perm := opSeed(w.seed, j.index)
	if j.kind == "stuckat" {
		if !r.Solved {
			o.Digest = digestOf("unsolved", r.Status)
			return false, nil
		}
		d := j.design
		v, ok := checkV[d]
		if !ok {
			tv := jobVectors(j.impl, d.c, vs)
			v = patternsFor(d.c, tv.PI, tv.N)
			checkV[d] = v
		}
		tuples, err := parseTuples(r.Tuples, siteNames(d.c))
		if err != nil {
			return false, err
		}
		keys := make([]string, len(r.Tuples))
		for i, t := range r.Tuples {
			keys[i] = strings.Join(t, ",")
		}
		o.Tuples, o.SolSize, o.Sites = int64(len(tuples)), int64(len(tuples[0])), int64(fault.DistinctSites(tuples))
		o.Digest = digestOf(strings.Join(keys, ";"))
		return true, checkTuples(d.c, j.device, tuples, j.k, v, perm)
	}
	if !r.Solved {
		o.Digest = digestOf("unsolved", r.Status)
		return false, nil
	}
	c, err := bench.ReadString(r.Repaired)
	if err != nil {
		return false, err
	}
	impl, err := bench.ReadString(j.impl)
	if err != nil {
		return false, err
	}
	tv := jobVectors(j.impl, impl, vs)
	o.Tuples, o.SolSize = 1, int64(len(r.Corrections))
	o.Digest = digestOf(strings.Join(r.Corrections, ";"), r.Repaired)
	return true, checkRepair(c, j.spec, patternsFor(impl, tv.PI, tv.N), perm)
}

// daemon is one dedcd process the benchmark started.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited chan error
}

// stop asks the daemon to drain and exit, kills it if it does not within
// 15 seconds, and waits until it has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// startDaemon runs dedcd over a fresh durable store in dir and waits until
// it reports ready.
func startDaemon(bin, dir string, workers int) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "dedcd.log"))
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	// The cache is kept small: with the default 64 MiB every distinct
	// repair netlist stayed cached and the daemon's resident set grew fast
	// with the jobs it ran. 4 MiB still holds the shared designs, which
	// recur every few jobs.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-store-dir", filepath.Join(dir, "store"), "-workers", strconv.Itoa(workers), "-sim-workers", "1",
		"-cache-bytes", strconv.Itoa(svcCacheBytes))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start dedcd: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	d := &daemon{cmd: cmd, log: logf, exited: exited}
	deadline := time.Now().Add(30 * time.Second)
	cl := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-exited:
			logf.Close()
			return nil, fmt.Errorf("dedcd exited during start: %v (log %s)", err, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dedcd not ready after 30s (log %s)", logf.Name())
		}
		if d.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				d.addr = strings.TrimSpace(string(b))
			}
		}
		if d.addr != "" {
			if resp, err := cl.Get("http://" + d.addr + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procPeakRSS is the resident-set high-water mark of process pid in bytes.
func procPeakRSS(pid int) (int64, error) { return procRSS(pid, "VmHWM:") }

// procRSS reads one resident-set field of /proc/pid/status, in bytes.
func procRSS(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// cacheCounts is the cache block of GET /v1/stats.
type cacheCounts struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func cacheStats(cl *http.Client, base string) (cacheCounts, error) {
	var st struct {
		Cache cacheCounts `json:"cache"`
	}
	err := doJSON(context.Background(), cl, "GET", base+"/v1/stats", nil, http.StatusOK, &st)
	return st.Cache, err
}
