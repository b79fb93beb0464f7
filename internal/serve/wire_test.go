package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dqalloc/internal/policy"
	"dqalloc/internal/race"
)

var (
	decideSink DecideRequest
	reportSink ReportRequest
)

// TestScanCanonicalClassifies pins which bodies take the canonical fast
// path; everything else must fall back to encoding/json.
func TestScanCanonicalClassifies(t *testing.T) {
	canonical := []string{
		`{}`,
		`{"class":0,"home":0}`,
		" \t{ \"class\" : 1 ,\r\n\"home\":5 } \n",
		`{"class":-0,"home":0,"est_reads":-0.5e-3,"est_page_cpu":1E+2,"deadline_ms":0.25}`,
		`{"class":123456789012345678,"home":0}`,
	}
	fallback := []string{
		``, `null`, `[]`, `{`, `{"class":0`, `{"class":0,}`, `{,}`, `{"class":0}}`,
		`{"class":0} x`, `{"class":0}{"class":1}`,
		`{"CLASS":0}`, `{"cl\u0061ss":0}`, `{"class":0,"class":0}`, `{"bogus":0}`,
		`{"class":null}`, `{"class":"0"}`, `{"class":true}`,
		`{"class":1e2}`, `{"class":1.0}`, `{"class":01}`, `{"class":+1}`, `{"class":-}`,
		`{"class":1234567890123456789}`, `{"est_reads":1e400}`, `{"est_reads":.5}`,
		`{"est_reads":1.}`, `{"est_reads":1e}`, `{"est_reads":NaN}`,
	}
	check := func(body string, want bool) {
		t.Helper()
		var req DecideRequest
		fields := req.wireFields()
		if got := scanCanonical([]byte(body), fields[:]); got != want {
			t.Errorf("scanCanonical(%q) = %v, want %v", body, got, want)
		}
	}
	for _, body := range canonical {
		check(body, true)
	}
	for _, body := range fallback {
		check(body, false)
	}
}

// TestCanonicalDecodeAllocsNothing pins the fast path's allocation
// budget: canonical decide and report bodies decode, and a decision
// body is appended, without allocating.
func TestCanonicalDecodeAllocsNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	decide := []byte(`{"class":1,"home":5,"est_reads":20.5,"est_page_cpu":0.05,"deadline_ms":50}`)
	report := []byte(`{"site":3,"num_io":4,"num_cpu":1,"cpu_work":12.5,"io_work":0.25,"rejected":2,"latency_ms":1.75}`)
	if _, err := DecodeDecideRequest(decide, 2, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReportRequest(report, 6); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		decideSink, _ = DecodeDecideRequest(decide, 2, 6)
	}); n != 0 {
		t.Errorf("canonical decide decode allocates %v objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		reportSink, _ = DecodeReportRequest(report, 6)
	}); n != 0 {
		t.Errorf("canonical report decode allocates %v objects/op, want 0", n)
	}
	tail := decisionTail("policy", "LERT")
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(500, func() {
		buf = appendDecision(buf[:0], 999, tail)
	}); n != 0 {
		t.Errorf("appending a decision body allocates %v objects/op, want 0", n)
	}
}

// TestDecisionBodyMatchesEncoder pins the hand-built 200 body to what
// json.NewEncoder writes for the same DecideResponse, for every policy
// and mode and for site numbers of one to three digits.
func TestDecisionBodyMatchesEncoder(t *testing.T) {
	kinds := []policy.Kind{policy.Local, policy.Random, policy.BNQ, policy.BNQRD, policy.LERT, policy.Work}
	modes := []struct {
		outcome Outcome
		name    string
	}{{OutcomeDecided, "policy"}, {OutcomeFallback, "fallback"}}
	for _, kind := range kinds {
		cfg := Default()
		cfg.Policy = kind
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			for _, site := range []int{0, 9, 10, 999} {
				var want bytes.Buffer
				json.NewEncoder(&want).Encode(DecideResponse{Site: site, Mode: mode.name, Policy: srv.Core().Policy()})
				rec := httptest.NewRecorder()
				srv.writeDecision(rec, decideResult{site: site, outcome: mode.outcome})
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
					t.Errorf("%v %s site %d: %d %q, want 200 %q", kind, mode.name, site, rec.Code, rec.Body.Bytes(), want.Bytes())
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("%v %s: Content-Type %q", kind, mode.name, ct)
				}
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerPooledRequestsUnderRace drives concurrent decides and
// reports through the pooled body buffers and request state. Under
// LOCAL with every site reporting, a decision names the request's own
// home site, so a request recycled while another goroutine still held
// it shows up as a 200 naming a foreign home. Deadlines from 1µs to
// 50ms make the decided, handler-expired and loop-expired paths
// interleave. Run it with -race.
func TestServerPooledRequestsUnderRace(t *testing.T) {
	cfg := Default()
	cfg.Policy = policy.Local
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report := func(site int) {
		rec := httptest.NewRecorder()
		srv.handleReport(rec, httptest.NewRequest(http.MethodPost, "/v1/report",
			strings.NewReader(fmt.Sprintf(`{"site":%d,"num_io":1,"num_cpu":2}`, site))))
		if rec.Code != http.StatusNoContent {
			t.Errorf("report site %d: status %d: %s", site, rec.Code, rec.Body.Bytes())
		}
	}
	for site := 0; site < cfg.NumSites; site++ {
		report(site)
	}

	const workers, perWorker = 8, 150
	deadlines := []string{"0.001", "0.01", "0.03", "0.1", "50"}
	var (
		wg              sync.WaitGroup
		mu              sync.Mutex
		decided, gone   int
		reportsDone     = make(chan struct{})
		reporterStopped = make(chan struct{})
	)
	go func() {
		defer close(reporterStopped)
		for i := 0; ; i++ {
			select {
			case <-reportsDone:
				return
			default:
				report(i % cfg.NumSites)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				home := (w + i) % cfg.NumSites
				body := fmt.Sprintf(`{"class":%d,"home":%d,"deadline_ms":%s}`, i%2, home, deadlines[(w+i)%len(deadlines)])
				rec := httptest.NewRecorder()
				srv.handleDecide(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(body)))
				switch rec.Code {
				case http.StatusOK:
					want := appendDecision(nil, home, srv.policyTail)
					if !bytes.Equal(rec.Body.Bytes(), want) {
						t.Errorf("request for home %d answered %q", home, rec.Body.Bytes())
					}
					mu.Lock()
					decided++
					mu.Unlock()
				case http.StatusGatewayTimeout:
					mu.Lock()
					gone++
					mu.Unlock()
				default:
					t.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		}(w)
	}
	wg.Wait()
	close(reportsDone)
	<-reporterStopped
	// Close waits for the loop, whose expiry counts may trail the 504s
	// the handlers wrote.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	resolved := st.Decided + st.Fallback + st.NoCapacity + st.Unavailable +
		st.Shed + st.Expired + st.Malformed + st.Draining
	if st.Requests != workers*perWorker || st.Requests != resolved {
		t.Errorf("conservation violated: %d sent, %d requests, %d resolved (%+v)", workers*perWorker, st.Requests, resolved, st)
	}
	if uint64(decided) != st.Decided || uint64(gone) != st.Expired {
		t.Errorf("handlers saw %d decided and %d expired; stats say %d and %d", decided, gone, st.Decided, st.Expired)
	}
	if decided == 0 || gone == 0 {
		t.Errorf("paths did not interleave: %d decided, %d expired", decided, gone)
	}
}
