package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// maxBodyBytes bounds request bodies; both wire types fit in a fraction
// of this.
const maxBodyBytes = 1 << 16

// absurd is the upper bound on demand-estimate fields: a query claiming
// more is a client bug (or an attack), not a workload, and is rejected
// with 400 rather than fed to the cost functions.
const absurd = 1e12

// DecideRequest is the wire form of "which site runs this query".
type DecideRequest struct {
	// Class indexes the configured class table.
	Class int `json:"class"`
	// Home is the site whose client submits the query (the arrival site
	// of the paper's procedure).
	Home int `json:"home"`
	// EstReads and EstPageCPU override the class-mean demand estimates;
	// zero means "use the class mean", matching the simulator's
	// cost-based-optimizer default.
	EstReads   float64 `json:"est_reads,omitempty"`
	EstPageCPU float64 `json:"est_page_cpu,omitempty"`
	// DeadlineMS caps how long the client will wait for the decision;
	// zero means the server default. Clamped to the server maximum.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// DecideResponse answers a successful decision.
type DecideResponse struct {
	// Site is the chosen execution site.
	Site int `json:"site"`
	// Mode is "policy" for a normal decision, "fallback" for the
	// all-views-expired round-robin path.
	Mode string `json:"mode"`
	// Policy names the deciding policy.
	Policy string `json:"policy"`
}

// ReportRequest is the wire form of one site's load report — the live
// analogue of a loadinfo status broadcast.
type ReportRequest struct {
	// Site identifies the reporting site.
	Site int `json:"site"`
	// NumIO and NumCPU are the site's current query counts by bound.
	NumIO  int `json:"num_io"`
	NumCPU int `json:"num_cpu"`
	// CPUWork and IOWork are the outstanding estimated demands (for the
	// WORK policy; zero is fine for count-based policies).
	CPUWork float64 `json:"cpu_work,omitempty"`
	IOWork  float64 `json:"io_work,omitempty"`
	// Rejected is how many queries the site refused since its last
	// report — the rejection feedback that trips circuit breakers.
	Rejected int `json:"rejected,omitempty"`
	// LatencyMS is the site's recent mean query latency in milliseconds;
	// a value above the server's SlowLatency threshold marks the site
	// slow-but-reporting (gray failure) and moves its breaker into
	// half-open probation instead of closing it. Zero means "not
	// measured" and never trips anything.
	LatencyMS float64 `json:"latency_ms,omitempty"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// decodeStrict unmarshals a JSON object into v rejecting non-objects
// (null would silently zero-fill), unknown fields, and trailing garbage.
func decodeStrict(data []byte, v any) error {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return fmt.Errorf("expected a JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// finiteNonNeg rejects NaN, infinities, negatives, and absurd values.
func finiteNonNeg(name string, v float64) error {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return fmt.Errorf("%s must be finite", name)
	case v < 0:
		return fmt.Errorf("%s %v is negative", name, v)
	case v > absurd:
		return fmt.Errorf("%s %v exceeds %v", name, v, absurd)
	}
	return nil
}

// DecodeDecideRequest parses and validates a decide request body for a
// service with the given class and site counts. Every error maps to a
// 4xx response; no input may panic (fuzz-tested). A body in canonical
// wire form is decoded without allocating; any other body goes through
// encoding/json, which stays the reference for what is accepted, the
// values decoded and every error text.
func DecodeDecideRequest(data []byte, numClasses, numSites int) (DecideRequest, error) {
	var req DecideRequest
	fields := req.wireFields()
	if !scanCanonical(data, fields[:]) {
		// A separate variable: handing &req to encoding/json would move
		// req to the heap on the fast path too.
		var slow DecideRequest
		if err := decodeStrict(data, &slow); err != nil {
			return DecideRequest{}, fmt.Errorf("malformed decide request: %w", err)
		}
		req = slow
	}
	if err := req.validate(numClasses, numSites); err != nil {
		return DecideRequest{}, err
	}
	return req, nil
}

// wireFields binds the keys of the decide wire form to req's fields.
func (req *DecideRequest) wireFields() [5]wireField {
	return [...]wireField{
		{key: "class", i: &req.Class},
		{key: "home", i: &req.Home},
		{key: "est_reads", f: &req.EstReads},
		{key: "est_page_cpu", f: &req.EstPageCPU},
		{key: "deadline_ms", f: &req.DeadlineMS},
	}
}

// validate checks a decoded decide request against the service's class
// and site counts and the demand-estimate bounds.
func (req *DecideRequest) validate(numClasses, numSites int) error {
	switch {
	case req.Class < 0 || req.Class >= numClasses:
		return fmt.Errorf("class %d out of range [0,%d)", req.Class, numClasses)
	case req.Home < 0 || req.Home >= numSites:
		return fmt.Errorf("home %d out of range [0,%d)", req.Home, numSites)
	}
	if err := finiteNonNeg("est_reads", req.EstReads); err != nil {
		return err
	}
	if err := finiteNonNeg("est_page_cpu", req.EstPageCPU); err != nil {
		return err
	}
	return finiteNonNeg("deadline_ms", req.DeadlineMS)
}

// DecodeReportRequest parses and validates a load-report body, with the
// same canonical fast path and encoding/json fallback as
// DecodeDecideRequest.
func DecodeReportRequest(data []byte, numSites int) (ReportRequest, error) {
	var rep ReportRequest
	fields := rep.wireFields()
	if !scanCanonical(data, fields[:]) {
		var slow ReportRequest
		if err := decodeStrict(data, &slow); err != nil {
			return ReportRequest{}, fmt.Errorf("malformed report: %w", err)
		}
		rep = slow
	}
	if err := rep.validate(numSites); err != nil {
		return ReportRequest{}, err
	}
	return rep, nil
}

// wireFields binds the keys of the report wire form to rep's fields.
func (rep *ReportRequest) wireFields() [7]wireField {
	return [...]wireField{
		{key: "site", i: &rep.Site},
		{key: "num_io", i: &rep.NumIO},
		{key: "num_cpu", i: &rep.NumCPU},
		{key: "cpu_work", f: &rep.CPUWork},
		{key: "io_work", f: &rep.IOWork},
		{key: "rejected", i: &rep.Rejected},
		{key: "latency_ms", f: &rep.LatencyMS},
	}
}

// validate checks a decoded load report against the site count and the
// count and demand bounds.
func (rep *ReportRequest) validate(numSites int) error {
	switch {
	case rep.Site < 0 || rep.Site >= numSites:
		return fmt.Errorf("site %d out of range [0,%d)", rep.Site, numSites)
	case rep.NumIO < 0:
		return fmt.Errorf("num_io %d is negative", rep.NumIO)
	case rep.NumCPU < 0:
		return fmt.Errorf("num_cpu %d is negative", rep.NumCPU)
	case rep.Rejected < 0:
		return fmt.Errorf("rejected %d is negative", rep.Rejected)
	}
	if err := finiteNonNeg("cpu_work", rep.CPUWork); err != nil {
		return err
	}
	if err := finiteNonNeg("io_work", rep.IOWork); err != nil {
		return err
	}
	return finiteNonNeg("latency_ms", rep.LatencyMS)
}

// wireField binds one key of a request's wire form to the struct field
// it decodes into; exactly one of i and f is set.
type wireField struct {
	key string
	i   *int
	f   *float64
}

// scanCanonical decodes data into fields if data is in the canonical
// wire form, and reports whether it was. The canonical form is one flat
// JSON object whose keys are exactly the fields' keys (no escapes, no
// case folding), each at most once, whose values are JSON numbers that
// encoding/json stores unchanged, with nothing but whitespace after the
// closing brace. An int field takes an integer literal of at most 18
// digits; a float field takes any literal strconv.ParseFloat accepts,
// the same call encoding/json makes. On any other input — nulls,
// escapes, unknown or repeated keys, out-of-range numbers, malformed
// JSON — it reports false, possibly with fields partly written, and the
// caller decodes with decodeStrict instead.
func scanCanonical(data []byte, fields []wireField) bool {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return skipSpace(data, i+1) == len(data)
	}
	var seen uint
	for {
		if i == len(data) || data[i] != '"' {
			return false
		}
		n := bytes.IndexByte(data[i+1:], '"')
		if n < 0 {
			return false
		}
		key := data[i+1 : i+1+n]
		k := 0
		for k < len(fields) && fields[k].key != string(key) {
			k++
		}
		if k == len(fields) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		i = skipSpace(data, i+n+2)
		if i == len(data) || data[i] != ':' {
			return false
		}
		i = skipSpace(data, i+1)
		end, integral := numberEnd(data, i)
		if end < 0 {
			return false
		}
		lit := data[i:end]
		if f := fields[k]; f.i != nil {
			v, ok := smallInt(lit, integral)
			if !ok {
				return false
			}
			*f.i = v
		} else {
			v, err := strconv.ParseFloat(string(lit), 64)
			if err != nil {
				return false
			}
			*f.f = v
		}
		i = skipSpace(data, end)
		if i == len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return skipSpace(data, i+1) == len(data)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of
// data[i:] (JSON whitespace), or len(data).
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// numberEnd returns the end of the JSON number literal starting at
// data[i], or -1 if none starts there; integral reports that the
// literal has neither a fraction nor an exponent.
func numberEnd(data []byte, i int) (end int, integral bool) {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digitsEnd(data, i)
	default:
		return -1, false
	}
	integral = true
	if i < len(data) && data[i] == '.' {
		j := digitsEnd(data, i+1)
		if j == i+1 {
			return -1, false
		}
		i, integral = j, false
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digitsEnd(data, i)
		if j == i {
			return -1, false
		}
		i, integral = j, false
	}
	return i, integral
}

// digitsEnd returns the index of the first non-digit in data[i:].
func digitsEnd(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// smallInt converts an integer literal of at most 18 digits, which
// cannot overflow int64, to the int encoding/json would store. Longer
// literals, fractions, exponents and values an int cannot hold are left
// to encoding/json and its error text.
func smallInt(lit []byte, integral bool) (int, bool) {
	digits := bytes.TrimPrefix(lit, []byte("-"))
	if !integral || len(digits) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		v = v*10 + int64(c-'0')
	}
	if len(digits) < len(lit) {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}
