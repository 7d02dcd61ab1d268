package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
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

	als "repro"
	"repro/internal/service"
	"repro/internal/trace"
)

// serviceShape is the open-loop traffic of service_v2.
type serviceShape struct {
	rate      float64       // Poisson submit rate, per second
	slo       time.Duration // a submit meets the SLO when its result is available within this
	repeatAge time.Duration // a repeat targets a fresh spec due at least this long before it
}

// 50 submits/s, half fresh and half repeats, against a 250 ms limit. At
// 100/s a 2-core host shared with other work fell behind now and then,
// and the backlog, not the service, set the latencies.
var (
	paperService = serviceShape{rate: 50, slo: 250 * time.Millisecond, repeatAge: 500 * time.Millisecond}
	tinyService  = serviceShape{rate: 40, slo: 250 * time.Millisecond, repeatAge: 200 * time.Millisecond}
)

// senders is how many connections submit concurrently: the generator
// uses at most nproc (2) connections.
const senders = 2

// maxJobs keeps every job of a run in alsd's job table, so each terminal
// view can be read back after the schedule (beyond -max-jobs evicted ids
// stop resolving on /v2).
const maxJobs = 8192

// submit is one scheduled POST /v2/jobs.
type submit struct {
	due  time.Duration // offset from the schedule start
	req  service.Request
	twin int // index of the fresh submit a repeat repeats; -1 for fresh
}

func (s submit) fresh() bool { return s.twin < 0 }

// freshSpec is the k-th fresh spec of a run: two in three are c880 under
// 5% ER, one in three Adder16 under 2.44% NMED, all at quick scale with a
// seed unique within the run. The fixed 2:1 mix keeps the latency median
// inside one mode of the two circuits' compute times.
func freshSpec(seed int64, k int) service.Request {
	req := service.Request{Circuit: "c880", Metric: "ER", Budget: 0.05}
	if k%3 == 0 {
		req = service.Request{Circuit: "Adder16", Metric: "NMED", Budget: 0.0244}
	}
	req.Scale = "quick"
	req.Seed = seed*1_000_000 + int64(k) + 1
	return req
}

// schedule draws a run's open-loop schedule from the workload seed:
// Poisson arrivals at shape.rate for the run's length, alternating fresh
// submits and repeats of a fresh spec due at least repeatAge earlier (a
// repeat falls back to fresh while none is old enough).
func schedule(seed int64, shape serviceShape, length time.Duration) []submit {
	rng := rand.New(rand.NewSource(seed))
	var out []submit
	var fresh []int // indices of fresh submits, in due order
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / shape.rate
		due := time.Duration(t * float64(time.Second))
		if due >= length {
			return out
		}
		s := submit{due: due, twin: -1}
		if i%2 == 1 {
			old := sort.Search(len(fresh), func(k int) bool { return out[fresh[k]].due > due-shape.repeatAge })
			if old > 0 {
				s.twin = fresh[rng.Intn(old)]
				s.req = out[s.twin].req
			}
		}
		if s.fresh() {
			s.req = freshSpec(seed, len(fresh))
			fresh = append(fresh, len(out))
		}
		out = append(out, s)
	}
}

// jobView is the part of a /v2 job view the benchmark reads. Result and
// Front stay raw so repeats can be compared byte for byte.
type jobView struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Result   json.RawMessage `json:"result"`
	Front    json.RawMessage `json:"front"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
}

// outcome is what one submit got back.
type outcome struct {
	sent, recv time.Time
	status     int
	view       jobView
	err        error
}

// daemon is one alsd process with a fresh store and WAL.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port
	base string // http://addr
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// startAlsd starts alsd on a free loopback port and waits for /healthz.
// It returns the time from exec to the first 200.
func startAlsd(ctx context.Context, bin, dir string, traced bool) (*daemon, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	traceBuf := "0"
	if traced {
		traceBuf = "65536"
	}
	args := []string{
		"-addr", addr,
		"-store", filepath.Join(dir, "results.jsonl"), // the WAL defaults to <store>.wal
		"-trace-buf", traceBuf,
		"-max-jobs", strconv.Itoa(maxJobs),
	}
	t0 := time.Now()
	cmd := exec.Command(bin, args...)
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start alsd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	// Poll back to back: a poll that slept would wake late on an idle
	// virtual CPU, and the set-up time would measure that wake-up.
	c := &conn{addr: addr}
	defer c.close()
	for {
		req, err := http.NewRequest(http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		if resp, _, err := c.do(req); err == nil && resp.StatusCode == http.StatusOK {
			return d, time.Since(t0), nil
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("alsd exited before it was healthy: %v", d.err)
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		default:
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("alsd not healthy after 30s")
		}
		runtime.Gosched()
	}
}

// stop asks alsd to drain and exit, kills it if it does not, and waits
// for the process to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// phase is one pass of the schedule against one alsd.
type phase struct {
	sched    []submit
	start    time.Time
	out      []outcome
	views    map[string]jobView
	before   map[string]float64 // /metrics at the schedule start
	sent     map[string]float64 // /metrics once the last submit was answered
	after    map[string]float64 // /metrics once every job was terminal
	wall     time.Duration      // schedule start to last job terminal
	alsdCPU  time.Duration
	peakMB   float64            // alsd's VmHWM
	rssMB    []float64          // alsd's VmRSS, sampled from the schedule start to the last job terminal
	spans    []trace.SpanRecord // alsd's spans (traced phase only)
	failures int
}

// runServiceV2 is the service_v2 workload.
func runServiceV2(ctx context.Context, cfg config, rep *report) error {
	shape := paperService
	if cfg.tiny {
		shape = tinyService
	}
	length := time.Duration(cfg.seconds * float64(time.Second))
	sched := schedule(cfg.seed, shape, length)
	if len(sched) == 0 {
		return errors.New("empty schedule")
	}

	// Set-up is alsd exec → /healthz 200, taken several times; the last
	// daemon serves the run.
	const starts = 31
	var setups []float64
	var d *daemon
	for i := range starts {
		dir, err := os.MkdirTemp(cfg.out, "alsd-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		dd, took, err := startAlsd(ctx, cfg.alsd, dir, false)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < starts-1 {
			dd.stop()
			continue
		}
		d = dd
	}
	p, err := runPhase(ctx, d, sched, shape, nil)
	d.stop()
	if err != nil {
		return err
	}
	lat := p.latencies(shape)
	rep.attempted += len(sched)
	rep.failed += p.failures
	checkService(rep, p)
	checkSamples(rep, p)

	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d alsd starts", starts))
	jobP50 := percentile(lat.job, 0.50)
	freshP50 := percentile(lat.freshSubmit, 0.50)
	if !cfg.tiny && (!jobP50.OK() || !freshP50.OK()) {
		return fmt.Errorf("too few samples for the medians: job %v, submit %v", jobP50, freshP50)
	}
	rep.set("work_ms", jobP50.Value, "fresh jobs, due → finished, "+jobP50.String())
	rep.set("step_ms", freshP50.Value, "fresh submits, due → 202, "+freshP50.String())
	rep.set("ratio_cpd", lat.meanRatio, fmt.Sprintf("mean of %d fresh jobs", len(lat.job)))
	if err := rep.setRSS(percentile(p.rssMB, 0.90), cfg.tiny); err != nil {
		return err
	}
	rep.line("setup_s", median(setups), "s", "")
	for _, l := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"submit_p50_ms", lat.submit, 0.50},
		{"submit_p99_ms", lat.submit, 0.99},
		{"job_p50_ms", lat.job, 0.50},
		{"job_p99_ms", lat.job, 0.99},
		{"hit_p99_ms", lat.hit, 0.99},
		{"queue_wait_ms_p50", lat.queueWait, 0.50},
		{"run_ms_p50", lat.run, 0.50},
		{"late_ms_p50", lat.late, 0.50},
	} {
		pc := percentile(l.xs, l.q)
		rep.line(l.name, pc.Value, "ms", pc.String())
	}
	rep.line("slo_ok_ratio", lat.sloOK, "ratio", fmt.Sprintf("limit %v over %d sent", shape.slo, len(sched)))
	rep.line("peak_rss_mb", p.peakMB, "MB", "")
	rep.line("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio", "")
	rep.line("rate", shape.rate, "1/s", "open loop, Poisson")

	if !cfg.trace {
		return nil
	}
	setServiceLayers(rep, p, lat)
	rep.set("fail_ratio", float64(rep.failed)/float64(rep.attempted), "")

	// The same schedule against a traced alsd: each submit carries the
	// traceparent of a benchmark span, so alsd's http, wal.append,
	// queue.wait, job.run and store.put spans join the benchmark's trace.
	tr := newTracer()
	root := tr.StartRoot("bench.service_v2")
	dir, err := os.MkdirTemp(cfg.out, "alsd-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	td, _, err := startAlsd(ctx, cfg.alsd, dir, true)
	if err != nil {
		return err
	}
	tp, err := runPhase(ctx, td, sched, shape, root)
	td.stop()
	if err != nil {
		return err
	}
	rep.attempted += len(sched)
	rep.failed += tp.failures
	checkService(rep, tp)
	tlat := tp.latencies(shape)
	rep.set("trace.overhead_pct", overheadPct(median(tlat.job), median(lat.job)), "job_p50_ms, traced vs untraced alsd")
	ms := func(name string) []float64 { return durations(tp.spans, name, time.Millisecond) }
	rep.setPct("wal.append_ms_p50", percentile(ms("wal.append"), 0.50))
	rep.setPct("wal.append_ms_p99", percentile(ms("wal.append"), 0.99))
	rep.setPct("store.put_ms_p50", percentile(ms("store.put"), 0.50))

	// The quick-shape flow in process: its churn and its layers.
	fs := flowShape{"Adder16", als.MetricNMED, 0.0244, als.ScaleQuick}
	sess, c, _, err := newSession(fs, cfg.seed)
	if err != nil {
		return err
	}
	fr, err := runSession(ctx, sess)
	if err != nil {
		return fmt.Errorf("quick probe flow: %w", err)
	}
	setFlowLayers(rep, fr, "Adder16 NMED quick-scale flow in process")
	err = probeLayers(root, artifact{
		accurate: c, lib: als.NewLibrary(), metric: fs.metric, budget: fs.budget,
		vectors: fs.vectors(), seed: cfg.seed, approx: fr.res.Approx, areaCon: fr.res.AreaCon,
	})
	if err == nil {
		err = probeDurability(root, cfg.out)
	}
	root.End()
	if err != nil {
		return err
	}
	recs := tr.Snapshot()
	setLayerMetrics(rep, recs)
	return writeSpans(spanFile(cfg), append(recs, tp.spans...))
}

// runPhase plays the schedule against d from senders connections, waits
// for every accepted job to reach a terminal state and collects the
// views, /metrics deltas and alsd's resource use. With a non-nil root,
// each submit runs under its own span and carries its traceparent.
func runPhase(ctx context.Context, d *daemon, sched []submit, shape serviceShape, root *trace.Span) (*phase, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	pid := d.cmd.Process.Pid
	p := &phase{sched: sched, out: make([]outcome, len(sched)), views: map[string]jobView{}}
	var err error
	if p.before, err = scrape(client, d.base); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}

	rss := sampleRSS(pid)
	defer rss.Stop()
	p.start = time.Now().Add(20 * time.Millisecond)
	// Each sender takes the next submit, waits for its due time and sends
	// it; while both are busy the next submit waits, and that wait counts
	// as lateness.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conn{addr: d.addr}
			defer c.close()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				waitUntil(p.start.Add(sched[i].due))
				p.out[i] = post(c, d.base, sched[i].req, root)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.sent, err = scrape(client, d.base); err != nil {
		return nil, err
	}

	err = p.collect(ctx, client, d.base)
	p.rssMB = rss.Stop()
	if err != nil {
		return nil, err
	}
	p.wall = time.Since(p.start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	p.alsdCPU = cpu1 - cpu0
	if p.after, err = scrape(client, d.base); err != nil {
		return nil, err
	}
	if p.peakMB, err = vmHWM(pid); err != nil {
		return nil, err
	}
	if root != nil {
		if p.spans, err = fetchSpans(client, d.base); err != nil {
			return nil, err
		}
	}
	for _, o := range p.out {
		if o.err != nil || (o.status != http.StatusOK && o.status != http.StatusAccepted) {
			p.failures++
		} else if v := p.views[o.view.ID]; v.Status != string(service.StatusDone) {
			p.failures++
		}
	}
	return p, nil
}

// spin is how long before a due time a sender stops sleeping and polls
// the clock instead. A goroutine woken from a sleep on an idle virtual CPU
// starts up to a millisecond late, and the open loop would charge that to
// alsd.
const spin = time.Millisecond

// waitUntil returns at t, or at once when t has passed.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// conn is one keep-alive HTTP/1.1 connection to alsd. It writes each
// request and reads its response on the calling goroutine: net/http's
// Transport hands every request to a writer and a reader goroutine, and
// each hand-off wakes a thread, a delay the submit latencies would charge
// to alsd.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

// do sends req and reads the whole response. After an error, or when the
// server asks to close, the next request dials again.
func (c *conn) do(req *http.Request) (*http.Response, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return nil, nil, err
		}
		c.c, c.br = nc, bufio.NewReader(nc)
	}
	if err := c.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		c.close()
		return nil, nil, err
	}
	err := req.Write(c.c)
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(c.br, req)
	}
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil || resp.Close {
		c.close()
	}
	return resp, body, err
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// post sends one submit.
func post(c *conn, base string, req service.Request, root *trace.Span) outcome {
	var o outcome
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/v2/jobs", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	var sp *trace.Span
	if root != nil {
		sp = root.StartChild("bench.submit")
		hreq.Header.Set("traceparent", sp.Context().Traceparent())
		defer sp.End()
	}
	o.sent = time.Now()
	resp, raw, err := c.do(hreq)
	o.recv = time.Now()
	if err != nil {
		o.err = err
		return o
	}
	o.status = resp.StatusCode
	sp.SetAttr("status", resp.StatusCode)
	if o.status == http.StatusOK || o.status == http.StatusAccepted {
		o.err = json.Unmarshal(raw, &o.view)
	}
	return o
}

// collect polls the job listing until every accepted job is terminal and
// keeps each terminal view.
func (p *phase) collect(ctx context.Context, client *http.Client, base string) error {
	want := map[string]bool{}
	for _, o := range p.out {
		if o.view.ID != "" {
			want[o.view.ID] = true
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		pending := 0
		for offset := 0; ; {
			var page struct {
				Jobs       []jobView `json:"jobs"`
				NextOffset *int      `json:"next_offset"`
			}
			if err := getJSON(client, fmt.Sprintf("%s/v2/jobs?offset=%d&limit=500", base, offset), &page); err != nil {
				return err
			}
			for _, v := range page.Jobs {
				if !want[v.ID] {
					continue
				}
				switch v.Status {
				case string(service.StatusQueued), string(service.StatusRunning):
					pending++
				default:
					p.views[v.ID] = v
				}
			}
			if page.NextOffset == nil {
				break
			}
			offset = *page.NextOffset
		}
		if pending == 0 && len(p.views) == len(want) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d jobs still not terminal after 60s", len(want)-len(p.views))
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads alsd's /metrics exposition into series → value.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// parseMetrics parses the Prometheus text exposition format into
// "name{labels}" → value.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is how much every series starting with prefix grew between two
// scrapes.
func delta(before, after map[string]float64, prefix string) float64 {
	d := 0.0
	for k, v := range after {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			d += v - before[k]
		}
	}
	return d
}

// fetchSpans reads every span alsd buffered.
func fetchSpans(client *http.Client, base string) ([]trace.SpanRecord, error) {
	resp, err := client.Get(base + "/debug/traces?format=jsonl&limit=0")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/traces: %s", resp.Status)
	}
	return trace.ReadJSONL(resp.Body)
}

// latencies are one phase's timings in ms, each from the submit's due
// time: the open loop charges a stalled generator to the service.
type latencies struct {
	submit      []float64 // every answered submit, due → response
	freshSubmit []float64 // fresh submits, due → 202
	job         []float64 // fresh jobs, due → finished
	hit         []float64 // repeats, due → result available
	late        []float64 // sent − due
	queueWait   []float64 // fresh jobs, started − created
	run         []float64 // fresh jobs, finished − started
	sloOK       float64   // share of sent submits whose result was available within the limit
	meanRatio   float64   // mean Ratio_cpd of the fresh jobs
}

func msSince(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

func (p *phase) latencies(shape serviceShape) latencies {
	var l latencies
	ok, ratios := 0, 0.0
	for i, s := range p.sched {
		o := p.out[i]
		due := p.start.Add(s.due)
		if o.sent.IsZero() {
			continue
		}
		l.late = append(l.late, msSince(due, o.sent))
		if o.err != nil || (o.status != http.StatusOK && o.status != http.StatusAccepted) {
			continue // refused or failed: an SLO miss
		}
		l.submit = append(l.submit, msSince(due, o.recv))
		v, found := p.views[o.view.ID]
		if !found || v.Status != string(service.StatusDone) {
			continue
		}
		var avail float64
		if s.fresh() {
			l.freshSubmit = append(l.freshSubmit, msSince(due, o.recv))
			avail = msSince(due, v.Finished)
			l.job = append(l.job, avail)
			l.queueWait = append(l.queueWait, msSince(v.Created, v.Started))
			l.run = append(l.run, msSince(v.Started, v.Finished))
			var r struct {
				RatioCPD float64 `json:"ratio_cpd"`
			}
			if json.Unmarshal(v.Result, &r) == nil {
				ratios += r.RatioCPD
			}
		} else {
			avail = msSince(due, o.recv)
			if o.status == http.StatusAccepted { // attached to a live job
				avail = max(avail, msSince(due, v.Finished))
			}
			l.hit = append(l.hit, avail)
		}
		if avail <= float64(shape.slo)/float64(time.Millisecond) {
			ok++
		}
	}
	l.sloOK = float64(ok) / float64(len(p.sched))
	if len(l.job) > 0 {
		l.meanRatio = ratios / float64(len(l.job))
	}
	return l
}

// setServiceLayers records the service, http, wal, store, alsd and
// generator per-layer metrics of the untraced phase.
func setServiceLayers(rep *report, p *phase, l latencies) {
	rep.setPct("service.submit_p50_ms", percentile(l.submit, 0.50))
	rep.setPct("service.submit_p99_ms", percentile(l.submit, 0.99))
	rep.setPct("service.job_p99_ms", percentile(l.job, 0.99))
	rep.setPct("service.hit_p50_ms", percentile(l.hit, 0.50))
	rep.setPct("service.hit_p99_ms", percentile(l.hit, 0.99))
	rep.set("service.slo_ok_ratio", l.sloOK, "")
	rep.setPct("service.queue_wait_ms_p50", percentile(l.queueWait, 0.50))
	rep.setPct("service.queue_wait_ms_p99", percentile(l.queueWait, 0.99))
	rep.setPct("service.run_ms_p50", percentile(l.run, 0.50))
	refused := 0
	for _, o := range p.out {
		if o.status == http.StatusServiceUnavailable {
			refused++
		}
	}
	rep.set("service.refused", float64(refused), "503 answers")
	d := func(prefix string) float64 { return delta(p.before, p.after, prefix) }
	submitted, executed := d("als_jobs_submitted_total"), d("als_jobs_executed_total")
	if submitted > 0 {
		rep.set("service.dedup_ratio", (d("als_jobs_deduped_total")+d("als_jobs_store_hits_total"))/submitted, "")
	}
	// Up to the last answered submit, alsd served only the submits and
	// the opening /metrics scrape.
	if n := delta(p.before, p.sent, "als_http_request_duration_seconds_count"); n > 0 {
		rep.set("http.submit_mean_ms", delta(p.before, p.sent, "als_http_request_duration_seconds_sum")/n*1000,
			fmt.Sprintf("%.0f requests: the submits and the opening /metrics scrape", n))
	}
	if executed > 0 {
		rep.set("wal.appends_per_job", d("als_wal_appends_total")/executed, "")
		rep.set("store.puts_per_job", d("als_store_puts_total")/executed, "")
	}
	rep.set("alsd.cpu_cores", p.alsdCPU.Seconds()/p.wall.Seconds(), "")
	rep.setPct("gen.late_ms_p99", percentile(l.late, 0.99))
}

// checkService verifies the phase's outputs: every accepted job ended
// done, and every repeat got its fresh twin's job with a byte-equal
// result and front.
func checkService(rep *report, p *phase) {
	for i, s := range p.sched {
		o := p.out[i]
		if o.view.ID == "" {
			continue // refused or failed: counted in failed
		}
		v := p.views[o.view.ID]
		rep.check(v.Status == string(service.StatusDone), "job %s (%s seed %d) ended %q", v.ID, s.req.Circuit, s.req.Seed, v.Status)
		if s.fresh() {
			continue
		}
		twin := p.out[s.twin].view
		if twin.ID == "" {
			continue // the twin was refused, so this submit ran fresh
		}
		tv := p.views[twin.ID]
		rep.check(o.view.ID == twin.ID, "repeat %d got job %s, its twin is %s", i, o.view.ID, twin.ID)
		if o.status == http.StatusOK {
			rep.check(sameJSON(o.view.Result, tv.Result) && sameJSON(o.view.Front, tv.Front),
				"repeat %d: result or front differs from its fresh twin %s", i, twin.ID)
		}
	}
}

// sameJSON reports whether two raw JSON values are byte-equal once
// insignificant whitespace is removed.
func sameJSON(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// checkSamples recomputes the first fresh job of each circuit in process
// with als.Flow and compares it with what alsd returned.
func checkSamples(rep *report, p *phase) {
	seen := map[string]bool{}
	for i, s := range p.sched {
		if !s.fresh() || seen[s.req.Circuit] {
			continue
		}
		v, ok := p.views[p.out[i].view.ID]
		if !ok || v.Status != string(service.StatusDone) {
			continue
		}
		seen[s.req.Circuit] = true
		var got struct {
			RatioCPD    float64 `json:"ratio_cpd"`
			Err         float64 `json:"err"`
			Evaluations int     `json:"evaluations"`
			CPDOri      float64 `json:"cpd_ori"`
			CPDFac      float64 `json:"cpd_fac"`
			AreaCon     float64 `json:"area_con"`
			AreaFinal   float64 `json:"area_final"`
		}
		if !rep.check(json.Unmarshal(v.Result, &got) == nil, "job %s: undecodable result", v.ID) {
			continue
		}
		c, err := als.BenchmarkByName(s.req.Circuit)
		if !rep.check(err == nil, "sample %s: %v", s.req.Circuit, err) {
			continue
		}
		metric, err := als.ParseMetric(s.req.Metric)
		if !rep.check(err == nil, "sample %s: %v", s.req.Circuit, err) {
			continue
		}
		res, err := als.Flow(c, als.NewLibrary(), als.FlowConfig{
			Metric: metric, ErrorBudget: s.req.Budget, Scale: als.ScaleQuick, Seed: s.req.Seed,
		})
		if !rep.check(err == nil, "sample %s in process: %v", s.req.Circuit, err) {
			continue
		}
		rep.check(got.RatioCPD == res.RatioCPD && got.Err == res.Err && got.Evaluations == res.Evaluations &&
			got.CPDOri == res.CPDOri && got.CPDFac == res.CPDFac && got.AreaCon == res.AreaCon && got.AreaFinal == res.AreaFinal,
			"job %s (%s seed %d) differs from als.Flow in process: %+v vs ratio %v err %v evals %d",
			v.ID, s.req.Circuit, s.req.Seed, got, res.RatioCPD, res.Err, res.Evaluations)
	}
	rep.check(len(seen) > 0, "no fresh job to compare with als.Flow")
}
