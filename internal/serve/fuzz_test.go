package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dqalloc/internal/policy"
)

// FuzzDecodeDecideRequest is the dqserve request-decoder fuzz target:
// arbitrary bytes — malformed JSON, absurd field values, unknown fields,
// trailing garbage — must never panic, anything the decoder accepts
// must satisfy the validated invariants the decision path relies on,
// and both decoders must agree with their encoding/json-only reference
// (decodeDecideReference, decodeReportReference): the same value, floats
// compared bitwise, or the same error text.
func FuzzDecodeDecideRequest(f *testing.F) {
	f.Add([]byte(`{"class":0,"home":0}`))
	f.Add([]byte(`{"class":1,"home":5,"est_reads":20,"est_page_cpu":0.05,"deadline_ms":50}`))
	f.Add([]byte(`{"class":-1,"home":0}`))
	f.Add([]byte(`{"class":0,"home":0,"est_reads":-1}`))
	f.Add([]byte(`{"class":0,"home":0,"est_reads":1e308}`))
	f.Add([]byte(`{"class":0,"home":0,"deadline_ms":1e999}`))
	f.Add([]byte(`{"class":0,"home":0,"unknown":true}`))
	f.Add([]byte(`{"class":0,"home":0}{"class":1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[0,1,2]`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte(`{"site":0,"num_io":3,"num_cpu":1,"rejected":2}`))
	// Shapes at the edge of the canonical fast path: each must decode
	// exactly as encoding/json does, on the fast path or off it.
	f.Add([]byte(`{"class":-0,"home":0,"est_reads":-0,"deadline_ms":-0.0}`))
	f.Add([]byte(`{"class":1e2,"home":0}`))
	f.Add([]byte(`{"class":1.0,"home":0}`))
	f.Add([]byte(`{"class":0,"home":01}`))
	f.Add([]byte(`{"class":0,"home":0,"est_reads":007}`))
	f.Add([]byte(`{"class":0,"home":0,"class":1}`))
	f.Add([]byte(`{"CLASS":0,"HOME":0}`))
	f.Add([]byte(`{"\u0063lass":0,"home":0}`))
	f.Add([]byte(`{"class":null,"home":0,"est_reads":null}`))
	f.Add([]byte(`{"class":0,"home":0,"est_reads":1e400}`))
	f.Add([]byte(`{"class":1234567890123456789,"home":0}`))
	f.Add([]byte(` {"class" : 1 ,"home":5,"est_page_cpu":2.5E-1} ` + "\n"))
	f.Add([]byte(`{"site":5,"num_io":3,"num_cpu":1,"cpu_work":1.5,"io_work":2e1,"rejected":0,"latency_ms":12.25}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		const numClasses, numSites = 2, 6
		req, err := DecodeDecideRequest(data, numClasses, numSites)
		ref, refErr := decodeDecideReference(data, numClasses, numSites)
		if errText(err) != errText(refErr) || decideBits(req) != decideBits(ref) {
			t.Fatalf("decide %q: got %+v, %v; encoding/json gives %+v, %v", data, req, err, ref, refErr)
		}
		if err == nil {
			if req.Class < 0 || req.Class >= numClasses {
				t.Fatalf("accepted class %d out of range", req.Class)
			}
			if req.Home < 0 || req.Home >= numSites {
				t.Fatalf("accepted home %d out of range", req.Home)
			}
			for name, v := range map[string]float64{
				"est_reads": req.EstReads, "est_page_cpu": req.EstPageCPU, "deadline_ms": req.DeadlineMS,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > absurd {
					t.Fatalf("accepted %s = %v", name, v)
				}
			}
		}
		rep, err := DecodeReportRequest(data, numSites)
		refRep, refErr := decodeReportReference(data, numSites)
		if errText(err) != errText(refErr) || reportBits(rep) != reportBits(refRep) {
			t.Fatalf("report %q: got %+v, %v; encoding/json gives %+v, %v", data, rep, err, refRep, refErr)
		}
		if err == nil {
			if rep.Site < 0 || rep.Site >= numSites {
				t.Fatalf("accepted report site %d out of range", rep.Site)
			}
			if rep.NumIO < 0 || rep.NumCPU < 0 || rep.Rejected < 0 {
				t.Fatalf("accepted negative counts: %+v", rep)
			}
		}
	})
}

// decodeDecideReference is DecodeDecideRequest through encoding/json
// alone, without the canonical fast path.
func decodeDecideReference(data []byte, numClasses, numSites int) (DecideRequest, error) {
	var req DecideRequest
	if err := decodeStrict(data, &req); err != nil {
		return DecideRequest{}, fmt.Errorf("malformed decide request: %w", err)
	}
	if err := req.validate(numClasses, numSites); err != nil {
		return DecideRequest{}, err
	}
	return req, nil
}

// decodeReportReference is DecodeReportRequest through encoding/json
// alone, without the canonical fast path.
func decodeReportReference(data []byte, numSites int) (ReportRequest, error) {
	var rep ReportRequest
	if err := decodeStrict(data, &rep); err != nil {
		return ReportRequest{}, fmt.Errorf("malformed report: %w", err)
	}
	if err := rep.validate(numSites); err != nil {
		return ReportRequest{}, err
	}
	return rep, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// decideBits and reportBits give a request's fields as bits, so that
// comparing them tells -0 from 0.
func decideBits(r DecideRequest) [5]uint64 {
	return [5]uint64{uint64(r.Class), uint64(r.Home),
		math.Float64bits(r.EstReads), math.Float64bits(r.EstPageCPU), math.Float64bits(r.DeadlineMS)}
}

func reportBits(r ReportRequest) [7]uint64 {
	return [7]uint64{uint64(r.Site), uint64(r.NumIO), uint64(r.NumCPU), uint64(r.Rejected),
		math.Float64bits(r.CPUWork), math.Float64bits(r.IOWork), math.Float64bits(r.LatencyMS)}
}

// TestDecoderErrorsMapTo4xx drives the fuzz corpus shapes through the
// live handlers: a decode error must always surface as a 4xx, never a
// 5xx or a panic. Case-folded keys are not an error: off the canonical
// fast path, encoding/json matches them case-insensitively.
func TestDecoderErrorsMapTo4xx(t *testing.T) {
	cfg := Default()
	cfg.NumSites = 3
	cfg.Policy = policy.BNQ
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for site := 0; site < cfg.NumSites; site++ {
		sendReport(t, ts.URL, site, 0, 0, 0)
	}

	bodies := []struct {
		body   string
		decide int // the decide status wanted; 0 means any 4xx
	}{
		{body: `{`}, {body: ``}, {body: `[]`}, {body: `null`}, {body: `"s"`},
		{body: `{"class":-1,"home":0}`}, {body: `{"class":0,"home":99}`},
		{body: `{"class":0,"home":0,"est_reads":1e308}`}, {body: `{"class":0,"home":0,"x":1}`},
		{body: strings.Repeat("9", 1<<17)}, // over the body bound
		{body: `{"CLASS":0,"HOME":0}`, decide: http.StatusOK},
	}
	for _, path := range []string{"/v1/decide", "/v1/report"} {
		for _, c := range bodies {
			short := c.body[:min(20, len(c.body))]
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatalf("%s %q: %v", path, short, err)
			}
			resp.Body.Close()
			if path == "/v1/decide" && c.decide != 0 {
				if resp.StatusCode != c.decide {
					t.Errorf("%s %q: status %d, want %d", path, short, resp.StatusCode, c.decide)
				}
				continue
			}
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Errorf("%s %q: status %d, want 4xx", path, short, resp.StatusCode)
			}
		}
	}
}
