package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dqalloc/internal/stats"
	"dqalloc/internal/workload"
)

// request resolution states: exactly one of the decision loop and the
// waiting handler resolves each request, via CAS.
const (
	resolvePending = iota
	resolveDecided // the loop resolved it (any Outcome)
	resolveExpired // the handler's deadline fired first
)

// decideReq is one queued decision. Requests are pooled together with
// their done channel: a handler recycles its request only after
// receiving the loop's send, which is the loop's last touch of it, so
// the channel is empty again and no other goroutine holds the request.
// A request that expires is never recycled, since the loop may still
// hold it.
type decideReq struct {
	ctx      context.Context
	q        workload.Query
	enqueued time.Time
	resolved atomic.Int32
	done     chan decideResult // buffered, cap 1
}

type decideResult struct {
	site    int
	outcome Outcome
}

var decideReqPool = sync.Pool{New: func() any {
	return &decideReq{done: make(chan decideResult, 1)}
}}

// Stats is a point-in-time snapshot of the service counters. The
// decide counters conserve: Requests = Decided + Fallback + NoCapacity
// + Unavailable + Shed + Expired + Malformed + Draining.
type Stats struct {
	Requests    uint64 `json:"requests"`
	Decided     uint64 `json:"decided"`
	Fallback    uint64 `json:"fallback"`
	NoCapacity  uint64 `json:"no_capacity"`
	Unavailable uint64 `json:"unavailable"`
	Shed        uint64 `json:"shed"`
	Expired     uint64 `json:"expired"`
	Malformed   uint64 `json:"malformed"`
	Draining    uint64 `json:"draining"`

	Reports    uint64 `json:"reports"`
	BadReports uint64 `json:"bad_reports"`

	// LateDecides counts decisions the loop completed after the waiting
	// handler had already timed out; they are Expired above (each
	// request resolves once) and tracked here for observability.
	LateDecides uint64 `json:"late_decides"`

	BreakerOpens uint64   `json:"breaker_opens"`
	Breakers     []string `json:"breakers"`

	// SlowProbations counts closed→half-open breaker demotions driven by
	// latency feedback (gray-failure detections).
	SlowProbations uint64 `json:"slow_probations"`

	QueueDepth int `json:"queue_depth"`

	// Decision latency quantiles in microseconds (enqueue → resolve),
	// from a log-bucketed histogram (≤2% relative error).
	LatencyP50US float64 `json:"latency_p50_us"`
	LatencyP99US float64 `json:"latency_p99_us"`

	// LatencyByOutcome breaks the decision latency down per resolution
	// outcome, so a tail inflated by expiries is distinguishable from
	// slow successful decisions. Only outcomes observed at least once
	// appear.
	LatencyByOutcome map[string]LatencyQuantiles `json:"latency_by_outcome,omitempty"`
}

// LatencyQuantiles summarizes one outcome's decision-latency
// distribution in microseconds.
type LatencyQuantiles struct {
	Count uint64  `json:"count"`
	P50US float64 `json:"p50_us"`
	P99US float64 `json:"p99_us"`
}

// histogram outcome lanes; each resolution path records into exactly one.
const (
	laneDecided = iota
	laneFallback
	laneNoCapacity
	laneUnavailable
	laneExpired
	numLanes
)

// laneNames maps histogram lanes to their stats keys.
var laneNames = [numLanes]string{
	"decided", "fallback", "no_capacity", "unavailable", "expired",
}

// Server is the dqserve HTTP layer: handlers decode and enqueue, a
// single decision loop decides, and every request resolves exactly once.
type Server struct {
	cfg   Config
	core  *Core
	clock func() time.Time
	mux   *http.ServeMux

	// policyTail and fallbackTail are what follows the site number in a
	// 200 decision body, newline included (see decisionTail).
	policyTail, fallbackTail []byte

	queue    chan *decideReq
	qmu      sync.RWMutex // pairs enqueue sends with Shutdown's close
	loopDone chan struct{}
	draining atomic.Bool
	closed   atomic.Bool

	mu    sync.Mutex
	st    Stats
	hist  *stats.LogHistogram
	lanes [numLanes]*stats.LogHistogram
}

// NewServer builds the service and starts its decision loop. Callers
// must eventually call Shutdown (or Close) to stop the loop.
func NewServer(cfg Config) (*Server, error) {
	core, err := NewCore(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		core:     core,
		clock:    cfg.clock(),
		queue:    make(chan *decideReq, cfg.QueueBound),
		loopDone: make(chan struct{}),
	}
	s.policyTail = decisionTail("policy", core.Policy())
	s.fallbackTail = decisionTail("fallback", core.Policy())
	s.initLatencyHists()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/decide", s.handleDecide)
	s.mux.HandleFunc("/v1/report", s.handleReport)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	go s.loop()
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Core exposes the decision engine (report ingestion in embedders).
func (s *Server) Core() *Core { return s.core }

// BeginDrain flips the server into draining: readiness reports 503 and
// new decide requests are refused, while queued and in-flight requests
// still complete. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain (or Shutdown) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown gracefully stops the decision loop: drain mode, then the
// queue is closed and the loop exits once the backlog is resolved.
// Handlers still in flight are safe: enqueue holds qmu.RLock across its
// send and refuses once closed is set, so the close below can never
// race a send. Idempotent; the context bounds the wait for the backlog.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	if s.closed.CompareAndSwap(false, true) {
		s.qmu.Lock()
		close(s.queue)
		s.qmu.Unlock()
	}
	select {
	case <-s.loopDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// Close is Shutdown with a short grace period, for tests.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// loop is the single decision goroutine: it owns the Core and resolves
// queued requests in FIFO order until the queue is closed and empty.
func (s *Server) loop() {
	defer close(s.loopDone)
	for req := range s.queue {
		// A request whose deadline passed while queued is expired
		// without deciding — its handler may have already resolved it.
		if req.ctx.Err() != nil {
			if req.resolved.CompareAndSwap(resolvePending, resolveExpired) {
				s.note(&s.st.Expired, laneExpired, req)
			}
			continue
		}
		site, out := s.core.Decide(&req.q, s.clock())
		if req.resolved.CompareAndSwap(resolvePending, resolveDecided) {
			switch out {
			case OutcomeDecided:
				s.note(&s.st.Decided, laneDecided, req)
			case OutcomeFallback:
				s.note(&s.st.Fallback, laneFallback, req)
			case OutcomeNoCapacity:
				s.note(&s.st.NoCapacity, laneNoCapacity, req)
			case OutcomeNoSites:
				s.note(&s.st.Unavailable, laneUnavailable, req)
			}
			req.done <- decideResult{site, out}
		} else {
			// The handler timed out mid-decision and owns the Expired
			// count; the optimistic table delta it committed washes out
			// at the site's next report.
			s.mu.Lock()
			s.st.LateDecides++
			s.mu.Unlock()
		}
	}
}

// enqueue status: queued, shed (queue full), or refused (queue closed).
const (
	enqueueOK = iota
	enqueueFull
	enqueueClosed
)

// enqueue offers req to the decision queue. The read-lock pairs with
// Shutdown's write-lock around close(queue): closed is set before the
// close and checked under the lock here, so a handler racing Shutdown
// observes enqueueClosed instead of sending on a closed channel.
func (s *Server) enqueue(req *decideReq) int {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed.Load() {
		return enqueueClosed
	}
	select {
	case s.queue <- req:
		return enqueueOK
	default:
		return enqueueFull
	}
}

// initLatencyHists builds the global and per-outcome latency histograms:
// 1µs–60s decision latencies at ≤2% relative error.
func (s *Server) initLatencyHists() {
	s.hist = stats.NewLogHistogram(1, 60e6, 0.02)
	for i := range s.lanes {
		s.lanes[i] = stats.NewLogHistogram(1, 60e6, 0.02)
	}
}

// note bumps one resolution counter and records the request's
// enqueue→resolve latency, globally and in the outcome's lane.
func (s *Server) note(counter *uint64, lane int, req *decideReq) {
	lat := s.clock().Sub(req.enqueued)
	us := float64(lat.Microseconds()) + 1 // keep zero out of the log buckets
	s.mu.Lock()
	*counter++
	s.hist.Add(us)
	s.lanes[lane].Add(us)
	s.mu.Unlock()
}

// bump increments one counter not tied to a queued request.
func (s *Server) bump(counter *uint64) {
	s.mu.Lock()
	*counter++
	s.mu.Unlock()
}

// jsonContentType is the Content-Type of every JSON body; the 200
// decision path assigns it without building a new slice per response.
var jsonContentType = []string{"application/json"}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// bufPool holds the buffers request bodies are read into and decision
// bodies are written from. Both wire forms fit in the initial capacity.
var bufPool = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 512)) }}

// maxPooledBuf is the largest buffer returned to bufPool, so one
// oversized body does not stay pinned in the pool.
const maxPooledBuf = 4 << 10

// readPooled reads a bounded request body into a pooled buffer. On
// success the caller hands the buffer back with putBuf once the values
// it needs are copied out.
func readPooled(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		putBuf(buf)
		return nil, err
	}
	return buf, nil
}

// putBuf returns a buffer to bufPool.
func putBuf(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledBuf {
		return
	}
	buf.Reset()
	bufPool.Put(buf)
}

// decisionTail returns the bytes json.NewEncoder writes after the site
// number when it encodes a DecideResponse with this mode and policy, so
// that `{"site":` + digits + tail is the encoder's output byte for byte.
func decisionTail(mode, policy string) []byte {
	// A struct of an int and two strings always marshals.
	b, _ := json.Marshal(DecideResponse{Mode: mode, Policy: policy})
	return append(b[len(`{"site":0`):], '\n')
}

// appendDecision appends a 200 decision body for site to dst.
func appendDecision(dst []byte, site int, tail []byte) []byte {
	dst = append(dst, `{"site":`...)
	dst = strconv.AppendInt(dst, int64(site), 10)
	return append(dst, tail...)
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.bump(&s.st.Requests)
	if s.draining.Load() {
		s.bump(&s.st.Draining)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	body, err := readPooled(w, r)
	if err != nil {
		s.bump(&s.st.Malformed)
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	dr, err := DecodeDecideRequest(body.Bytes(), len(s.cfg.Classes), s.cfg.NumSites)
	putBuf(body)
	if err != nil {
		s.bump(&s.st.Malformed)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	deadline := s.cfg.DefaultDeadline
	if dr.DeadlineMS > 0 {
		deadline = time.Duration(dr.DeadlineMS * float64(time.Millisecond))
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	req := decideReqPool.Get().(*decideReq)
	req.ctx = ctx
	req.enqueued = s.clock()
	req.resolved.Store(resolvePending)
	req.q = workload.Query{Class: dr.Class, Home: dr.Home, Exec: dr.Home,
		EstReads: dr.EstReads, EstPageCPU: dr.EstPageCPU}
	s.cfg.classMeans(&req.q)

	switch s.enqueue(req) {
	case enqueueOK:
	case enqueueClosed:
		// Shutdown closed the queue between the draining check above
		// and the send; answer as a drain refusal.
		s.bump(&s.st.Draining)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	default: // enqueueFull
		// Backpressure: the decision queue is full; shed now rather
		// than let latency collapse for everyone.
		s.bump(&s.st.Shed)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "decision queue full")
		return
	}

	select {
	case res := <-req.done:
		recycle(req)
		s.writeDecision(w, res)
	case <-ctx.Done():
		if req.resolved.CompareAndSwap(resolvePending, resolveExpired) {
			s.note(&s.st.Expired, laneExpired, req)
			writeError(w, http.StatusGatewayTimeout, "decision deadline exceeded")
			return
		}
		// The loop won the race. The resolution is terminal, so the
		// CAS losing means it is readable: decided means a result is
		// (or is about to be) in the buffered channel; expired means
		// the loop saw the dead context at dequeue, took the Expired
		// count, and will never send — receiving would hang forever.
		if req.resolved.Load() == resolveDecided {
			res := <-req.done
			recycle(req)
			s.writeDecision(w, res)
			return
		}
		writeError(w, http.StatusGatewayTimeout, "decision deadline exceeded")
	}
}

// recycle returns a request to decideReqPool. Only a handler that has
// received the loop's send may call it.
func recycle(req *decideReq) {
	req.ctx = nil
	decideReqPool.Put(req)
}

// writeDecision maps a loop resolution to its HTTP response.
func (s *Server) writeDecision(w http.ResponseWriter, res decideResult) {
	switch res.outcome {
	case OutcomeDecided:
		writeDecided(w, res.site, s.policyTail)
	case OutcomeFallback:
		writeDecided(w, res.site, s.fallbackTail)
	case OutcomeNoCapacity:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "all candidate sites at admission cap")
	default: // OutcomeNoSites
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no routable sites")
	}
}

// writeDecided writes a 200 decision body without reflection.
func writeDecided(w http.ResponseWriter, site int, tail []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	buf := bufPool.Get().(*bytes.Buffer)
	w.Write(appendDecision(buf.AvailableBuffer(), site, tail))
	putBuf(buf)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := readPooled(w, r)
	if err != nil {
		s.bump(&s.st.BadReports)
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	rep, err := DecodeReportRequest(body.Bytes(), s.cfg.NumSites)
	putBuf(body)
	if err != nil {
		s.bump(&s.st.BadReports)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.core.Report(rep.Site, rep.NumIO, rep.NumCPU, rep.CPUWork, rep.IOWork, rep.Rejected, rep.LatencyMS, s.clock()); err != nil {
		s.bump(&s.st.BadReports)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.bump(&s.st.Reports)
	w.WriteHeader(http.StatusNoContent)
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.st
	st.LatencyP50US = s.hist.Quantile(0.5)
	st.LatencyP99US = s.hist.Quantile(0.99)
	for lane, h := range s.lanes {
		if h.Count() == 0 {
			continue
		}
		if st.LatencyByOutcome == nil {
			st.LatencyByOutcome = make(map[string]LatencyQuantiles, numLanes)
		}
		st.LatencyByOutcome[laneNames[lane]] = LatencyQuantiles{
			Count: h.Count(),
			P50US: h.Quantile(0.5),
			P99US: h.Quantile(0.99),
		}
	}
	s.mu.Unlock()
	st.Breakers = s.core.Breakers()
	st.BreakerOpens = s.core.BreakerOpens()
	st.SlowProbations = s.core.SlowProbations()
	st.QueueDepth = len(s.queue)
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeError(w, http.StatusServiceUnavailable, "draining")
	case !s.core.Ready(s.clock()):
		writeError(w, http.StatusServiceUnavailable, "no live sites (no fresh reports)")
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
