package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dqalloc/internal/serve"
	"dqalloc/internal/workload"
)

const (
	// decidesPerRound is how many decides the client sends between two
	// rounds of load reports (one report per site).
	decidesPerRound = 32
	// streamDecides is the length of the generated decide stream; the
	// client cycles through it.
	streamDecides = 4096
	// window is the length of one measurement window: throughput and
	// latency quantiles are taken per window and reported as the median
	// over windows.
	window = 500 * time.Millisecond
	// coldStarts is how many cold starts one run times for setup_s.
	coldStarts = 41
)

// requestStream is the seeded request sequence: pre-encoded HTTP/1.1
// keep-alive requests and the bodies they carry.
type requestStream struct {
	decides, decideBodies [][]byte
	reports, reportBodies [][]byte // streamDecides/decidesPerRound rounds of NumSites reports
}

func newRequestStream(seed uint64, cfg serve.Config) (*requestStream, error) {
	sm := splitmix64(seed)
	rs := &requestStream{}
	for i := 0; i < streamDecides; i++ {
		req := serve.DecideRequest{Class: sm.intn(len(cfg.Classes)), Home: sm.intn(cfg.NumSites)}
		if sm.float() < 0.25 {
			// An estimate override, as a cost-based optimizer would send.
			cl := cfg.Classes[req.Class]
			req.EstReads = float64(int(cl.NumReads*(0.5+sm.float())*100)) / 100
			req.EstPageCPU = float64(int(cl.PageCPUTime*(0.5+sm.float())*1000)) / 1000
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		rs.decideBodies = append(rs.decideBodies, body)
		rs.decides = append(rs.decides, httpRequest("/v1/decide", body))
	}
	for r := 0; r < streamDecides/decidesPerRound; r++ {
		for site := 0; site < cfg.NumSites; site++ {
			rep := serve.ReportRequest{
				Site:      site,
				NumIO:     sm.intn(8),
				NumCPU:    sm.intn(8),
				CPUWork:   float64(sm.intn(4000)) / 100,
				IOWork:    float64(sm.intn(4000)) / 100,
				LatencyMS: 1 + float64(sm.intn(2000))/100,
			}
			body, err := json.Marshal(rep)
			if err != nil {
				return nil, err
			}
			rs.reportBodies = append(rs.reportBodies, body)
			rs.reports = append(rs.reports, httpRequest("/v1/report", body))
		}
	}
	return rs, nil
}

func httpRequest(path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: dqserve\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	return append([]byte(head), body...)
}

// pipeListener hands http.Server in-memory connections.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// handlerTimer wraps the service's handler tree and, while on, records
// how long each decide and report spends inside it.
type handlerTimer struct {
	next            http.Handler
	on              atomic.Bool
	mu              sync.Mutex
	decides, report []time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	h.mu.Lock()
	if r.URL.Path == "/v1/report" {
		h.report = append(h.report, d)
	} else {
		h.decides = append(h.decides, d)
	}
	h.mu.Unlock()
}

// service is one serve.Server behind an http.Server, reached by one
// raw keep-alive client over an in-memory connection.
type service struct {
	cfg    serve.Config
	srv    *serve.Server
	hs     *http.Server
	served chan error
	conn   net.Conn
	rd     *bufio.Reader
	body   []byte
	timer  *handlerTimer

	attempted, failed int64
	firstErr          error
}

func startService(cfg serve.Config, timed bool) (*service, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	s := &service{cfg: cfg, srv: srv, served: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	if timed {
		s.timer = &handlerTimer{next: h}
		h = s.timer
	}
	ln := newPipeListener()
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	client, server := net.Pipe()
	ln.conns <- server
	s.conn = client
	s.rd = bufio.NewReader(client)
	return s, nil
}

// close stops the client connection, the HTTP server and the decision
// loop, and waits for each.
func (s *service) close() error {
	s.conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if lerr := s.srv.Shutdown(ctx); err == nil {
		err = lerr
	}
	return err
}

func (s *service) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// roundTrip sends one pre-encoded request and reads the response status
// and body. The body is valid until the next call.
func (s *service) roundTrip(req []byte) (int, []byte, error) {
	if _, err := s.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := s.rd.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := 0
	for {
		line, err = s.rd.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, fmt.Errorf("bad header line %q", line)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return 0, nil, fmt.Errorf("bad content length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			// The service's answers are small and written whole, so a
			// framed (chunked) body is not expected; the connection
			// cannot be read further.
			return 0, nil, fmt.Errorf("unexpected transfer encoding %q", v)
		}
	}
	s.body = append(s.body[:0], make([]byte, length)...)
	_, err = io.ReadFull(s.rd, s.body)
	return status, s.body, err
}

// decide sends one decide and checks the answer: 200, mode "policy",
// and a site in range.
func (s *service) decide(req []byte) bool {
	s.attempted++
	status, body, err := s.roundTrip(req)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("decide: status %d: %s", status, bytes.TrimSpace(body))
	}
	if err == nil {
		err = checkDecision(body, s.cfg.NumSites)
	}
	if err != nil {
		s.fail(err)
		return false
	}
	return true
}

// checkDecision parses a decide response body. The compact form the
// service writes today is matched without allocating; anything else
// falls back to encoding/json.
func checkDecision(body []byte, numSites int) error {
	const pre, post = `{"site":`, `,"mode":"policy","policy":"LERT"}`
	b := bytes.TrimRight(body, "\n")
	if rest, ok := bytes.CutPrefix(b, []byte(pre)); ok {
		if digits, ok := bytes.CutSuffix(rest, []byte(post)); ok && len(digits) > 0 && len(digits) < 4 {
			site := 0
			for _, c := range digits {
				if c < '0' || c > '9' {
					site = -1
					break
				}
				site = site*10 + int(c-'0')
			}
			if site >= 0 && site < numSites {
				return nil
			}
		}
	}
	var resp serve.DecideResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decide: unparsable response %q: %v", body, err)
	}
	if resp.Mode != "policy" || resp.Site < 0 || resp.Site >= numSites {
		return fmt.Errorf("decide: unexpected answer %q", body)
	}
	return nil
}

// reportRound sends one load report per site, each of which must be
// answered 204.
func (s *service) reportRound(rs *requestStream, round int) {
	n := s.cfg.NumSites
	round %= len(rs.reports) / n
	for _, req := range rs.reports[round*n : (round+1)*n] {
		s.attempted++
		status, body, err := s.roundTrip(req)
		if err == nil && status != http.StatusNoContent {
			err = fmt.Errorf("report: status %d: %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			s.fail(err)
		}
	}
}

// windowStats is one measurement window.
type windowStats struct {
	throughput, p50, p95, p99 float64
	samples                   int
}

// drive runs the closed loop for the given duration, starting at decide
// index *next, and returns per-window statistics. Every
// decidesPerRound-th decide is preceded by a report round.
func (s *service) drive(rs *requestStream, next *int, d time.Duration) []windowStats {
	var out []windowStats
	lat := make([]float64, 0, 1<<15)
	end := time.Now().Add(d)
	for {
		start := time.Now()
		if !start.Before(end) {
			return out
		}
		lat = lat[:0]
		ok := 0
		for time.Since(start) < window {
			i := *next
			*next++
			if i%decidesPerRound == 0 {
				s.reportRound(rs, i/decidesPerRound)
			}
			t0 := time.Now()
			good := s.decide(rs.decides[i%len(rs.decides)])
			lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
			if good {
				ok++
			}
		}
		elapsed := time.Since(start)
		sort.Float64s(lat)
		out = append(out, windowStats{
			throughput: float64(ok) / elapsed.Seconds(),
			p50:        quantile(lat, 0.5),
			p95:        quantile(lat, 0.95),
			p99:        quantile(lat, 0.99),
			samples:    len(lat),
		})
	}
}

// coldStart times one start: NewServer until every site has reported
// once and the first decide comes back 200 with a policy decision.
func coldStart(cfg serve.Config, rs *requestStream, notes io.Writer) (time.Duration, int64, int64, error) {
	t0 := time.Now()
	s, err := startService(cfg, false)
	if err != nil {
		return 0, 0, 0, err
	}
	s.reportRound(rs, 0)
	s.decide(rs.decides[0])
	d := time.Since(t0)
	if err := s.close(); err != nil {
		return 0, 0, 0, err
	}
	if s.firstErr != nil {
		fmt.Fprintf(notes, "serve-http: cold start failure: %v\n", s.firstErr)
	}
	return d, s.attempted, s.failed, nil
}

// runServe measures the allocation service over HTTP.
func runServe(o options) (outcome, error) {
	cfg := serve.Default()
	rs, err := newRequestStream(o.seed, cfg)
	if err != nil {
		return outcome{}, err
	}
	var attempted, failed int64
	var cold []float64
	starts := coldStarts
	if o.quick {
		starts = 3
	}
	for i := 0; i < starts; i++ {
		d, a, f, err := coldStart(cfg, rs, o.notes)
		if err != nil {
			return outcome{}, fmt.Errorf("cold start: %w", err)
		}
		cold = append(cold, d.Seconds())
		attempted += a
		failed += f
	}

	s, err := startService(cfg, o.trace)
	if err != nil {
		return outcome{}, err
	}
	next := 0
	warm := time.Second
	if o.quick {
		warm = 100 * time.Millisecond
	}
	s.drive(rs, &next, warm)

	m := map[string]float64{"setup_s": median(cold)}
	counters := newRuntimeCounters()
	measured := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		a0, _ := counters.read()
		ws := s.drive(rs, &next, measured)
		a1, _ := counters.read()
		var thr, p50, p95 []float64
		decisions := 0
		for _, w := range ws {
			thr = append(thr, w.throughput)
			p50 = append(p50, w.p50)
			p95 = append(p95, w.p95)
			decisions += w.samples
		}
		m["throughput_per_s"] = median(thr)
		m["latency_p50_us"] = median(p50)
		m["latency_p95_us"] = median(p95)
		m["alloc_b_per_op"] = float64(a1-a0) / float64(decisions)
		fmt.Fprintf(o.notes, "serve-http: %d windows, %d latency samples\n", len(ws), decisions)
	} else {
		if err := s.traced(o, rs, &next, measured, counters, m); err != nil {
			s.close()
			return outcome{}, err
		}
	}
	if err := s.close(); err != nil {
		return outcome{}, fmt.Errorf("shutdown: %w", err)
	}
	if s.firstErr != nil {
		fmt.Fprintf(o.notes, "serve-http: first failure: %v\n", s.firstErr)
	}
	return outcome{attempted: attempted + s.attempted, failed: failed + s.failed, metrics: m}, nil
}

// traced measures the per-layer metrics: an untraced half, a traced
// half with the handler timer and the CPU profiler on, the server's own
// counters, and replays of the request stream into the decoder and a
// fresh decision core.
func (s *service) traced(o options, rs *requestStream, next *int, measured time.Duration, counters *runtimeCounters, m map[string]float64) error {
	plain := s.drive(rs, next, measured/2)

	prof, err := startProfile()
	if err != nil {
		return err
	}
	_, gc0 := counters.read()
	s.timer.on.Store(true)
	traced := s.drive(rs, next, measured/2)
	s.timer.on.Store(false)
	_, gc1 := counters.read()
	shares, nsamples, err := prof.stop()
	if err != nil {
		return err
	}
	for _, d := range perLayer {
		if layer, ok := strings.CutSuffix(d.name, ".self_share"); ok {
			m[d.name] = shares[layer]
		}
	}
	m["bench.profile_samples"] = float64(nsamples)
	m["runtime.gc_cycles"] = float64(gc1 - gc0)

	var thrPlain, thrTraced, p50, p99 []float64
	decisions := 0
	for _, w := range plain {
		thrPlain = append(thrPlain, w.throughput)
	}
	for _, w := range traced {
		thrTraced = append(thrTraced, w.throughput)
		p50 = append(p50, w.p50)
		p99 = append(p99, w.p99)
		decisions += w.samples
	}
	m["bench.trace_overhead"] = 1 - median(thrTraced)/median(thrPlain)
	m["bench.latency_samples"] = float64(decisions)

	s.timer.mu.Lock()
	dec := durationsUS(s.timer.decides)
	rep := durationsUS(s.timer.report)
	s.timer.mu.Unlock()
	m["serve.handler_decide_us_p50"] = quantile(dec, 0.5)
	m["serve.handler_decide_us_p99"] = quantile(dec, 0.99)
	m["serve.handler_report_us_p50"] = quantile(rep, 0.5)
	m["http.outside_handler_us_p50"] = median(p50) - quantile(dec, 0.5)
	m["http.client_us_p99"] = median(p99)

	st := s.srv.Stats()
	m["serve.loop_us_p50"] = st.LatencyP50US
	m["serve.loop_us_p99"] = st.LatencyP99US
	m["serve.decided"] = float64(st.Decided)
	m["serve.fallback"] = float64(st.Fallback)
	m["serve.shed"] = float64(st.Shed)
	m["serve.expired"] = float64(st.Expired)
	m["serve.unavailable"] = float64(st.Unavailable)
	m["serve.breaker_opens"] = float64(st.BreakerOpens)

	return replay(s.cfg, rs, m)
}

// replay times the decoder and a fresh decision core on the run's
// request stream, outside HTTP.
func replay(cfg serve.Config, rs *requestStream, m map[string]float64) error {
	const passes = 8
	// The queries the handler would build: class means fill the
	// estimates a request leaves out.
	queries := make([]workload.Query, len(rs.decideBodies))
	for i, body := range rs.decideBodies {
		req, err := serve.DecodeDecideRequest(body, len(cfg.Classes), cfg.NumSites)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", body, err)
		}
		q := workload.Query{Class: req.Class, Home: req.Home, Exec: req.Home, EstReads: req.EstReads, EstPageCPU: req.EstPageCPU}
		if q.EstReads == 0 {
			q.EstReads = cfg.Classes[q.Class].NumReads
		}
		if q.EstPageCPU == 0 {
			q.EstPageCPU = cfg.Classes[q.Class].PageCPUTime
		}
		queries[i] = q
	}
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, body := range rs.decideBodies {
			if _, err := serve.DecodeDecideRequest(body, len(cfg.Classes), cfg.NumSites); err != nil {
				return err
			}
		}
	}
	m["serve.decode_ns"] = float64(time.Since(t0)) / float64(passes*len(rs.decideBodies))

	reports := make([]serve.ReportRequest, len(rs.reportBodies))
	for i, body := range rs.reportBodies {
		var err error
		if reports[i], err = serve.DecodeReportRequest(body, cfg.NumSites); err != nil {
			return fmt.Errorf("replaying %s: %w", body, err)
		}
	}
	core, err := serve.NewCore(cfg)
	if err != nil {
		return err
	}
	now := time.Now()
	var reportNS, decideNS time.Duration
	var nReports, nDecides int
	for p := 0; p < passes; p++ {
		for r := 0; r < len(queries)/decidesPerRound; r++ {
			t := time.Now()
			for _, rep := range reports[r*cfg.NumSites : (r+1)*cfg.NumSites] {
				if err := core.Report(rep.Site, rep.NumIO, rep.NumCPU, rep.CPUWork, rep.IOWork, rep.Rejected, rep.LatencyMS, now); err != nil {
					return err
				}
			}
			reportNS += time.Since(t)
			nReports += cfg.NumSites
			t = time.Now()
			for i := r * decidesPerRound; i < (r+1)*decidesPerRound; i++ {
				q := queries[i]
				if _, out := core.Decide(&q, now); out != serve.OutcomeDecided {
					return fmt.Errorf("replayed decide %d: outcome %v", i, out)
				}
			}
			decideNS += time.Since(t)
			nDecides += decidesPerRound
			now = now.Add(time.Millisecond)
		}
	}
	m["serve.core_report_ns"] = float64(reportNS) / float64(nReports)
	m["serve.core_decide_ns"] = float64(decideNS) / float64(nDecides)
	return nil
}
