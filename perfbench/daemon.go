package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	sxnm "repro"
	"repro/internal/eval"
)

const (
	// daemonClients is the closed loop's client count: one job in
	// flight per client, never more clients than the host's 2 CPUs.
	daemonClients = 2
	// daemonSegments is how many parts the measured time is cut into.
	// Each part is served by a freshly started sxnmd, so the start-up
	// timings and the peak-RSS readings spread over the whole run.
	daemonSegments = 5
	// spareStarts is how many extra times sxnmd is started and stopped
	// before each segment, for setup_s only.
	spareStarts = 9
	// poolRate is the job rate, per second of measured time, the pool of
	// distinct bodies is sized for. It is well above the measured rate,
	// so no body is ever submitted twice; a segment whose bodies run out
	// ends early.
	poolRate = 16
	// rssJobs is the measured job count of a segment at which the
	// daemon's peak RSS is read. sxnmd keeps finished jobs in memory,
	// so its RSS grows with the jobs done; reading it after fixed work
	// keeps a faster daemon from reporting more memory.
	rssJobs = 24
	// warmJobs is how many unmeasured jobs each client runs on a fresh
	// daemon before its segment is timed, so that start-up costs stay
	// out of the latency tail.
	warmJobs     = 2
	pollInterval = 5 * time.Millisecond
)

// daemonDoc is one job body with its expected clusters.
type daemonDoc struct {
	body []byte
	ref  []byte
	f1   float64
}

// jobResult is one closed-loop job as the client saw it.
type jobResult struct {
	latency, run time.Duration
	traced       bool
	f1           float64
	err          error
	rejected     bool
}

// segment is what one served segment leaves behind.
type segment struct {
	jobs    []jobResult
	elapsed time.Duration
	peak    float64
	// counters is the daemon's /metrics at the end of the segment; the
	// daemon started fresh, so its counters cover this segment only.
	counters   map[string]float64
	spoolBytes int64
}

// runDaemon measures sxnmd over daemonSegments segments. Before each
// segment it generates the segment's bodies (each a distinct seeded
// document, checked in process for its expected clusters), times
// spareStarts + 1 starts of sxnmd up to /readyz, and keeps the last
// daemon to serve a closed loop of daemonClients clients. Each client
// submits a job, waits for its outcome and fetches its clusters,
// which must equal the in-process facade run of the same body.
func runDaemon(w *workload, p params, dir string) (*report, error) {
	if _, err := os.Stat(p.sxnmd); err != nil {
		return nil, fmt.Errorf("sxnmd binary: %w", err)
	}
	hc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients},
	}
	defer hc.CloseIdleConnections()

	segSeconds := p.seconds / daemonSegments
	perSeg := max(int(math.Ceil(segSeconds*poolRate)), daemonClients) + daemonClients*warmJobs
	tr := (*tracer)(nil)
	if p.trace {
		tr = newTracer()
	}
	var (
		setups []float64
		segs   []segment
	)
	for k := 0; k < daemonSegments; k++ {
		docs, err := daemonPool(w, p, k*perSeg, perSeg)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		var d *daemonProc
		for i := 0; i <= spareStarts; i++ {
			spool := filepath.Join(dir, fmt.Sprintf("spool%d-%d", k, i))
			var ready time.Duration
			if d, ready, err = startDaemon(hc, p.sxnmd, spool, dir); err != nil {
				return nil, err
			}
			setups = append(setups, ready.Seconds())
			if i < spareStarts {
				if err := d.stop(); err != nil {
					return nil, err
				}
				os.RemoveAll(spool)
			}
		}
		seg, err := serveSegment(d, hc, docs, tr, k*perSeg, segSeconds)
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		spool := filepath.Join(dir, fmt.Sprintf("spool%d-%d", k, spareStarts))
		if seg.spoolBytes, err = dirBytes(spool); err != nil {
			return nil, err
		}
		os.RemoveAll(spool)
		segs = append(segs, seg)
	}

	rep := newReport(p.trace)
	var (
		lat, runs, tracedLat, untracedLat, f1, peaks, p90s []float64
		elapsed                                            time.Duration
		spoolBytes                                         int64
		rejected                                           int
	)
	counters := map[string]float64{}
	for _, seg := range segs {
		elapsed += seg.elapsed
		spoolBytes += seg.spoolBytes
		peaks = append(peaks, seg.peak)
		segStart := len(lat)
		for k, v := range seg.counters {
			counters[k] += v
		}
		for _, r := range seg.jobs {
			rep.Result.Attempted++
			if r.rejected {
				rejected++
			}
			if r.err != nil {
				rep.fail("job: %v", r.err)
				continue
			}
			lat = append(lat, r.latency.Seconds())
			runs = append(runs, r.run.Seconds())
			f1 = append(f1, r.f1)
			if r.traced {
				tracedLat = append(tracedLat, r.latency.Seconds())
			} else {
				untracedLat = append(untracedLat, r.latency.Seconds())
			}
		}
		if len(lat) > segStart {
			p90s = append(p90s, quantile(lat[segStart:], 0.9))
		}
	}
	if len(lat) == 0 {
		return nil, errors.New("every job failed")
	}
	if !p.trace {
		rep.Raw = map[string][]float64{"setup_s": setups, "run_s": runs, "job_latency_s": lat, "job_latency_p90_s": p90s, "peak_rss_mb": peaks}
		rep.set("setup_s", median(setups), len(setups))
		rep.set("run_s", median(runs), len(runs))
		rep.set("job_latency_s", median(lat), len(lat))
		// The tail is taken per segment and the median across segments
		// reported: a host stall of a few seconds then moves one
		// segment's p90, not the run's.
		rep.set("job_latency_p90_s", median(p90s), len(lat))
		rep.set("jobs_per_s", float64(len(lat))/elapsed.Seconds(), len(lat))
		rep.set("peak_rss_mb", median(peaks), len(peaks))
		rep.set("pair_f1", mean(f1), len(f1))
		return rep, nil
	}

	spans := tr.all()
	rep.Spans = spans
	self := selfByName(spans)
	for metric, name := range map[string]string{
		"server.submit_s": "server.submit", "server.fetch_s": "server.fetch", "trace.root_self_s": "job",
	} {
		rep.set(metric, median(self[name]), len(self[name]))
	}
	rep.set("trace.overhead_s", median(tracedLat)-median(untracedLat), len(tracedLat)+len(untracedLat))
	for metric, series := range map[string]string{
		"server.queue_wait_s":    "sxnmd_queue_wait_seconds",
		"server.attempt_s":       "sxnmd_attempt_duration_seconds",
		"server.engine_keygen_s": `sxnmd_engine_phase_duration_seconds{phase="keygen"}`,
		"server.engine_detect_s": `sxnmd_engine_phase_duration_seconds{phase="detect"}`,
	} {
		v, n := histMean(counters, series)
		rep.set(metric, v, n)
	}
	hits, misses := counters["sxnmd_engine_sim_cache_hits_total"], counters["sxnmd_engine_sim_cache_misses_total"]
	rep.set("server.sim_cache_hit_rate", hits/max(hits+misses, 1), int(hits+misses))
	rep.set("server.retries", counters["sxnmd_retries_total"], rep.Result.Attempted)
	rep.set("server.rejected", float64(rejected), rep.Result.Attempted)
	done := counters["sxnmd_jobs_done_total"]
	rep.set("server.spool_bytes_per_job", float64(spoolBytes)/max(done, 1), int(done))
	rep.zeroLayers()
	return rep, nil
}

// serveSegment runs the closed loop against one daemon: warmJobs
// unmeasured jobs per client, then measured jobs until segSeconds have
// passed or the bodies run out, at least one per client. Body i of docs
// is job first+i; odd measured jobs are traced when tr is set.
func serveSegment(d *daemonProc, hc *http.Client, docs []daemonDoc, tr *tracer, first int, segSeconds float64) (segment, error) {
	c := &daemonClient{hc: hc, base: "http://" + d.addr}
	warm := make([]jobResult, daemonClients*warmJobs)
	var wg sync.WaitGroup
	for cl := 0; cl < daemonClients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := cl; i < len(warm); i += daemonClients {
				warm[i] = c.job(docs[i], nil, 0)
			}
		}()
	}
	wg.Wait()
	for _, r := range warm {
		if r.err != nil {
			return segment{}, fmt.Errorf("warm-up job: %w", r.err)
		}
	}
	docs, first = docs[len(warm):], first+len(warm)

	var (
		seg     segment
		mu      sync.Mutex
		next    atomic.Int64
		peakErr error
	)
	readPeak := func() { seg.peak, peakErr = peakRSSOf(d.cmd.Process.Pid) }
	start := time.Now()
	deadline := start.Add(time.Duration(segSeconds * float64(time.Second)))
	for cl := 0; cl < daemonClients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				t := tr
				if (first+i)%2 == 0 {
					t = nil
				}
				r := c.job(docs[i], t, first+i+1)
				mu.Lock()
				seg.jobs = append(seg.jobs, r)
				if len(seg.jobs) == rssJobs {
					readPeak()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	seg.elapsed = time.Since(start)
	if len(seg.jobs) < rssJobs {
		readPeak()
	}
	if peakErr != nil {
		return seg, peakErr
	}
	var err error
	seg.counters, err = c.scrape()
	return seg, err
}

// daemonPool generates bodies first … first+n-1, each a distinct
// seeded document with the workload's configuration, and runs every
// one through the in-process facade for its expected clusters and pair
// F1. Two goroutines share the work; body i is the same for a given
// seed however the work is split.
func daemonPool(w *workload, p params, first, n int) ([]daemonDoc, error) {
	pool := make([]daemonDoc, n)
	errs := make([]error, daemonClients)
	var wg sync.WaitGroup
	for g := 0; g < daemonClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n && errs[g] == nil; i += daemonClients {
				pool[i], errs[g] = daemonJob(w, w.scaledSize(p.scale), p.seed*100_000+int64(first+i))
			}
		}(g)
	}
	wg.Wait()
	return pool, errors.Join(errs...)
}

// referenceOptions run the daemon jobs' in-process references:
// filtered, so that a fresh reference per job stays affordable, but
// sequential, with no similarity cache, spool or checkpoint, which are
// what sxnmd adds. The batch workloads pin the filtered path to the
// unfiltered oracle.
var referenceOptions = sxnm.Options{UseFilter: true, PairWorkers: 0}

// daemonJob builds one job body and its facade reference.
func daemonJob(w *workload, size int, seed int64) (daemonDoc, error) {
	doc, cfg, err := w.generate(size, seed)
	if err != nil {
		return daemonDoc{}, err
	}
	var docXML, cfgXML bytes.Buffer
	if err := doc.Write(&docXML, xmlWrite); err != nil {
		return daemonDoc{}, err
	}
	if err := cfg.Document().Write(&cfgXML, xmlWrite); err != nil {
		return daemonDoc{}, err
	}
	body, err := json.Marshal(map[string]string{"config_xml": cfgXML.String(), "document_xml": docXML.String()})
	if err != nil {
		return daemonDoc{}, err
	}
	fcfg, err := sxnm.LoadConfig(bytes.NewReader(cfgXML.Bytes()))
	if err != nil {
		return daemonDoc{}, err
	}
	det, err := sxnm.NewWithOptions(fcfg, referenceOptions)
	if err != nil {
		return daemonDoc{}, err
	}
	fdoc, err := sxnm.ParseXML(bytes.NewReader(docXML.Bytes()))
	if err != nil {
		return daemonDoc{}, err
	}
	res, err := det.Run(fdoc)
	if err != nil {
		return daemonDoc{}, err
	}
	ref, err := json.Marshal(wireClusters(res))
	if err != nil {
		return daemonDoc{}, err
	}
	g, err := eval.BuildGold(fdoc, w.goldPath)
	if err != nil {
		return daemonDoc{}, err
	}
	return daemonDoc{body: body, ref: ref, f1: eval.PairwiseMetrics(g, res.Clusters[w.goldCandidate]).F1}, nil
}

// daemonProc is a running sxnmd child.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error
	once sync.Once
	err  error
}

// startDaemon starts sxnmd with its default flags over a fresh spool
// and returns once /readyz answers 200, with the time that took.
func startDaemon(hc *http.Client, bin, spool, logDir string) (*daemonProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(logDir, "sxnmd.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr, "-spool", spool)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting sxnmd: %w", err)
	}
	d := &daemonProc{cmd: cmd, addr: addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	for time.Since(start) < 30*time.Second {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("sxnmd exited before it was ready: %v (log in %s)", err, logf.Name())
		default:
		}
		resp, err := hc.Get("http://" + addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	d.stop()
	return nil, 0, errors.New("sxnmd was not ready within 30s")
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (d *daemonProc) stop() error {
	d.once.Do(func() {
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			d.err = err
		}
		select {
		case err := <-d.done:
			// sxnmd answers /readyz a moment before it installs its
			// SIGTERM handler, so a daemon stopped right after start
			// can die by the signal itself; it has admitted no job then,
			// so that is a clean stop too.
			var ee *exec.ExitError
			if errors.As(err, &ee) && ee.Sys().(syscall.WaitStatus).Signal() == syscall.SIGTERM {
				err = nil
			}
			if err != nil {
				d.err = fmt.Errorf("sxnmd: %w", err)
			}
		case <-time.After(60 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
			d.err = errors.New("sxnmd did not drain within 60s")
		}
	})
	return d.err
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

type daemonClient struct {
	hc   *http.Client
	base string
}

// job runs one closed-loop job: POST the body, poll the status until it
// is terminal, fetch the clusters and compare them with the reference.
// The latency runs from the POST until the clusters are read.
func (c *daemonClient) job(doc daemonDoc, tr *tracer, run int) jobResult {
	r := jobResult{traced: tr != nil}
	start := time.Now()
	root := tr.begin(run, 0, "job")
	defer tr.end(root)

	sub := tr.begin(run, root, "server.submit")
	var st struct {
		ID       string     `json:"id"`
		State    string     `json:"state"`
		Started  *time.Time `json:"started"`
		Finished *time.Time `json:"finished"`
		Error    any        `json:"error"`
	}
	code, err := c.do(http.MethodPost, "/v1/jobs", doc.body, &st)
	tr.end(sub)
	if err != nil {
		r.err = err
		return r
	}
	if code == http.StatusTooManyRequests || code == http.StatusInsufficientStorage {
		r.rejected, r.err = true, fmt.Errorf("submission rejected with %d", code)
		return r
	}
	if code != http.StatusAccepted {
		r.err = fmt.Errorf("submission answered %d", code)
		return r
	}

	wait := tr.begin(run, root, "server.wait")
	for st.State != "done" && st.State != "failed" && st.State != "canceled" {
		time.Sleep(pollInterval)
		if _, err := c.do(http.MethodGet, "/v1/jobs/"+st.ID, nil, &st); err != nil {
			tr.end(wait)
			r.err = err
			return r
		}
	}
	tr.end(wait)
	if st.State != "done" {
		r.err = fmt.Errorf("job %s ended %s: %v", st.ID, st.State, st.Error)
		return r
	}

	fetch := tr.begin(run, root, "server.fetch")
	var out struct {
		Clusters map[string][][]int `json:"clusters"`
	}
	code, err = c.do(http.MethodGet, "/v1/jobs/"+st.ID+"/clusters", nil, &out)
	tr.end(fetch)
	r.latency = time.Since(start)
	switch {
	case err != nil:
		r.err = err
	case code != http.StatusOK:
		r.err = fmt.Errorf("clusters answered %d", code)
	case st.Started == nil || st.Finished == nil:
		r.err = fmt.Errorf("job %s has no start or finish time", st.ID)
	default:
		r.run, r.f1 = st.Finished.Sub(*st.Started), doc.f1
		if err := checkClusters(out.Clusters, doc.ref); err != nil {
			r.err = fmt.Errorf("job %s: %w", st.ID, err)
		}
	}
	return r
}

// do sends one request and decodes a JSON answer into v.
func (c *daemonClient) do(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// scrape reads /metrics into series name (labels included) → value.
func (c *daemonClient) scrape() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// histMean is a histogram's mean with its number of observations, from
// scraped /metrics counters. series is the family name, optionally
// followed by its label set.
func histMean(counters map[string]float64, series string) (float64, int) {
	name, labels, _ := strings.Cut(series, "{")
	if labels != "" {
		labels = "{" + labels
	}
	sum, n := counters[name+"_sum"+labels], counters[name+"_count"+labels]
	if n <= 0 {
		return 0, 0
	}
	return sum / n, int(n)
}

// peakRSSOf reads a process's peak resident set size from /proc.
func peakRSSOf(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
