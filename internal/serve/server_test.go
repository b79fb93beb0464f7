package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dqalloc/internal/policy"
)

// startServer builds a server on a fake clock and wraps it in httptest.
func startServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg := Default()
	cfg.NumSites = 3
	cfg.Policy = policy.BNQ
	cfg.Clock = clk.Now
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, ts, clk
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func sendReport(t *testing.T, url string, site, numIO, numCPU, rejected int) {
	t.Helper()
	body := fmt.Sprintf(`{"site":%d,"num_io":%d,"num_cpu":%d,"rejected":%d}`, site, numIO, numCPU, rejected)
	resp, out := postJSON(t, url+"/v1/report", body)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("report: status %d: %s", resp.StatusCode, out)
	}
}

func TestServerDecideLifecycle(t *testing.T) {
	srv, ts, _ := startServer(t, nil)

	// healthz is alive before any report; readyz is not.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before reports: %v %v, want 503", resp.StatusCode, err)
	}
	resp.Body.Close()

	// No reports yet: decisions are 503.
	resp, _ = postJSON(t, ts.URL+"/v1/decide", `{"class":0,"home":0}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("decide without reports: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after reports: %v %v, want 200", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, body := postJSON(t, ts.URL+"/v1/decide", `{"class":1,"home":2,"est_reads":10}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("decide Content-Type = %q, want application/json", ct)
	}
	var dr DecideResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("decide response does not parse: %v", err)
	}
	if dr.Site < 0 || dr.Site >= 3 || dr.Mode != "policy" || dr.Policy != "BNQ" {
		t.Errorf("decide response = %+v", dr)
	}

	st := srv.Stats()
	if st.Requests != 2 || st.Decided != 1 || st.Unavailable != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Reports != 3 {
		t.Errorf("reports = %d, want 3", st.Reports)
	}
	if st.LatencyP99US <= 0 {
		t.Errorf("latency p99 = %v, want > 0", st.LatencyP99US)
	}
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	cases := []string{
		``,
		`{`,
		`[]`,
		`{"class":99,"home":0}`,
		`{"class":0,"home":-1}`,
		`{"class":0,"home":0,"est_reads":-5}`,
		`{"class":0,"home":0,"deadline_ms":1e13}`,
		`{"class":0,"home":0,"bogus":1}`,
		`{"class":0,"home":0} trailing`,
	}
	for _, body := range cases {
		resp, out := postJSON(t, ts.URL+"/v1/decide", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("decide %q: status %d (%s), want 400", body, resp.StatusCode, out)
		}
	}
	badReports := []string{
		`{"site":3,"num_io":0,"num_cpu":0}`,
		`{"site":0,"num_io":-1,"num_cpu":0}`,
		`{"site":0,"num_io":0,"num_cpu":0,"cpu_work":-1}`,
		`not json`,
	}
	for _, body := range badReports {
		resp, out := postJSON(t, ts.URL+"/v1/report", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("report %q: status %d (%s), want 400", body, resp.StatusCode, out)
		}
	}
	st := srv.Stats()
	if int(st.Malformed) != len(cases) {
		t.Errorf("malformed = %d, want %d", st.Malformed, len(cases))
	}
	if int(st.BadReports) != len(badReports) {
		t.Errorf("bad reports = %d, want %d", st.BadReports, len(badReports))
	}
	// Method misuse.
	resp, err := http.Get(ts.URL + "/v1/decide")
	if err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET decide: %v %v, want 405", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func TestServerDeadlineExpiresRequest(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	// A deadline far below the scheduling quantum expires before the
	// decision loop can claim the request.
	resp, body := postJSON(t, ts.URL+"/v1/decide", `{"class":0,"home":0,"deadline_ms":0.000001}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("tiny deadline: status %d (%s), want 504", resp.StatusCode, body)
	}
	st := srv.Stats()
	if st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}
}

// TestServerBackpressureSheds exercises the queue-full path with a
// hand-built server whose decision loop never runs.
func TestServerBackpressureSheds(t *testing.T) {
	cfg := Default()
	cfg.NumSites = 3
	cfg.Policy = policy.BNQ
	cfg.QueueBound = 1
	cfg.DefaultDeadline = 30 * time.Millisecond
	core, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{
		cfg:      cfg,
		core:     core,
		clock:    time.Now,
		queue:    make(chan *decideReq, cfg.QueueBound),
		loopDone: make(chan struct{}),
	}
	s.initLatencyHists()
	// First request occupies the only queue slot and times out there.
	first := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.handleDecide(rec, httptest.NewRequest(http.MethodPost, "/v1/decide",
			strings.NewReader(`{"class":0,"home":0}`)))
		first <- rec.Code
	}()
	deadline := time.Now().Add(time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	// Second request finds the queue full: shed immediately.
	rec := httptest.NewRecorder()
	s.handleDecide(rec, httptest.NewRequest(http.MethodPost, "/v1/decide",
		strings.NewReader(`{"class":0,"home":0}`)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full decide: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if code := <-first; code != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status %d, want 504", code)
	}
	st := s.Stats()
	if st.Shed != 1 || st.Expired != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServerHandlerDoesNotHangWhenLoopExpiresRequest pins the loss side
// of the expiry race: when the decision loop dequeues a request whose
// context is already dead, it claims it as expired without ever sending
// on req.done — the waiting handler must answer 504, not block forever
// on the channel.
func TestServerHandlerDoesNotHangWhenLoopExpiresRequest(t *testing.T) {
	cfg := Default()
	cfg.NumSites = 3
	cfg.Policy = policy.BNQ
	// Long deadlines so only the test's cancel wakes the handler.
	cfg.DefaultDeadline = 5 * time.Second
	cfg.MaxDeadline = 5 * time.Second
	core, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{
		cfg:      cfg,
		core:     core,
		clock:    time.Now,
		queue:    make(chan *decideReq, cfg.QueueBound),
		loopDone: make(chan struct{}),
	}
	s.initLatencyHists()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := httptest.NewRequest(http.MethodPost, "/v1/decide",
		strings.NewReader(`{"class":0,"home":0}`)).WithContext(ctx)
	code := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.handleDecide(rec, r)
		code <- rec.Code
	}()
	// Play the loop's expired branch: claim the queued request as
	// expired, never sending a result.
	var req *decideReq
	select {
	case req = <-s.queue:
	case <-time.After(2 * time.Second):
		t.Fatal("request never enqueued")
	}
	if !req.resolved.CompareAndSwap(resolvePending, resolveExpired) {
		t.Fatal("request resolved before the test claimed it")
	}
	cancel()
	select {
	case c := <-code:
		if c != http.StatusGatewayTimeout {
			t.Fatalf("handler status %d, want 504", c)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler hung after losing the expiry race to the loop")
	}
}

// TestServerShutdownEnqueueRaceIsSafe hammers handlers against Shutdown:
// a handler that passes the draining check just before the queue closes
// must get a clean drain refusal, never a send on a closed channel.
func TestServerShutdownEnqueueRaceIsSafe(t *testing.T) {
	for i := 0; i < 25; i++ {
		cfg := Default()
		cfg.NumSites = 2
		cfg.Policy = policy.BNQ
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < 20; k++ {
					rec := httptest.NewRecorder()
					srv.handleDecide(rec, httptest.NewRequest(http.MethodPost, "/v1/decide",
						strings.NewReader(`{"class":0,"home":0}`)))
					switch rec.Code {
					case http.StatusOK, http.StatusServiceUnavailable,
						http.StatusTooManyRequests, http.StatusGatewayTimeout:
					default:
						t.Errorf("unexpected status %d", rec.Code)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := srv.Close(); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

func TestServerDrainAndShutdown(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	srv.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz draining: %v %v, want 503", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, _ = postJSON(t, ts.URL+"/v1/decide", `{"class":0,"home":0}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("decide while draining: status %d, want 503", resp.StatusCode)
	}
	st := srv.Stats()
	if st.Draining != 1 {
		t.Errorf("draining = %d, want 1", st.Draining)
	}
	// Shutdown is idempotent and leaves the loop stopped.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.loopDone:
	default:
		t.Error("decision loop still running after Shutdown")
	}
}

// TestServerStatsConservation drives a mixed request stream and checks
// the resolution counters account for every request exactly once.
func TestServerStatsConservation(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	for i := 0; i < 20; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/decide", fmt.Sprintf(`{"class":%d,"home":%d}`, i%2, i%3))
		resp.Body.Close()
	}
	postJSON(t, ts.URL+"/v1/decide", `malformed`)
	postJSON(t, ts.URL+"/v1/decide", `{"class":0,"home":0,"deadline_ms":0.000001}`)
	st := srv.Stats()
	resolved := st.Decided + st.Fallback + st.NoCapacity + st.Unavailable +
		st.Shed + st.Expired + st.Malformed + st.Draining
	if st.Requests != resolved {
		t.Errorf("conservation violated: %d requests, %d resolved (%+v)", st.Requests, resolved, st)
	}
	if st.Requests != 22 {
		t.Errorf("requests = %d, want 22", st.Requests)
	}
}
