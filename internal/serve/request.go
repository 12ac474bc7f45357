package serve

import (
	"fmt"
	"math"
)

// maxBodyBytes bounds request bodies; both wire types fit in a fraction
// of this.
const maxBodyBytes = 1 << 16

// absurd is the upper bound on demand-estimate fields: a query claiming
// more is a client bug (or an attack), not a workload, and is rejected
// with 400 rather than fed to the cost functions.
const absurd = 1e12

// maxCount is the upper bound on a report's query counts. A site with a
// billion outstanding queries is a client bug too, and the bound keeps
// the table's sums of reported counts and optimistic deltas far from int
// overflow, which would read as a negative load and draw every decision.
const maxCount = 1_000_000_000

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
// 4xx response; no input may panic (fuzz-tested).
func DecodeDecideRequest(data []byte, numClasses, numSites int) (DecideRequest, error) {
	req, err := parseDecideRequest(data)
	if err != nil {
		return DecideRequest{}, fmt.Errorf("malformed decide request: %w", err)
	}
	if err := req.validate(numClasses, numSites); err != nil {
		return DecideRequest{}, err
	}
	return req, nil
}

// parseDecideRequest parses a decide request body without validating
// its values.
func parseDecideRequest(data []byte) (req DecideRequest, err error) {
	err = parseObject(data, decideFields(&req))
	return req, err
}

// decideFields is the parser's field table for req. Each name is the
// json tag of the field it stores; TestFieldTablesMatchTags holds the
// two to agree.
func decideFields(req *DecideRequest) []field {
	return []field{
		{name: "class", i: &req.Class},
		{name: "home", i: &req.Home},
		{name: "est_reads", f: &req.EstReads},
		{name: "est_page_cpu", f: &req.EstPageCPU},
		{name: "deadline_ms", f: &req.DeadlineMS},
	}
}

// validate checks a parsed decide request against the service's class
// and site counts.
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

// DecodeReportRequest parses and validates a load-report body.
func DecodeReportRequest(data []byte, numSites int) (ReportRequest, error) {
	rep, err := parseReportRequest(data)
	if err != nil {
		return ReportRequest{}, fmt.Errorf("malformed report: %w", err)
	}
	if err := rep.validate(numSites); err != nil {
		return ReportRequest{}, err
	}
	return rep, nil
}

// parseReportRequest parses a load-report body without validating its
// values.
func parseReportRequest(data []byte) (rep ReportRequest, err error) {
	err = parseObject(data, reportFields(&rep))
	return rep, err
}

// reportFields is the parser's field table for rep, kept to the json
// tags as decideFields is.
func reportFields(rep *ReportRequest) []field {
	return []field{
		{name: "site", i: &rep.Site},
		{name: "num_io", i: &rep.NumIO},
		{name: "num_cpu", i: &rep.NumCPU},
		{name: "cpu_work", f: &rep.CPUWork},
		{name: "io_work", f: &rep.IOWork},
		{name: "rejected", i: &rep.Rejected},
		{name: "latency_ms", f: &rep.LatencyMS},
	}
}

// validate checks a parsed load report against the service's site
// count.
func (rep *ReportRequest) validate(numSites int) error {
	if rep.Site < 0 || rep.Site >= numSites {
		return fmt.Errorf("site %d out of range [0,%d)", rep.Site, numSites)
	}
	if err := checkCounts(rep.NumIO, rep.NumCPU, rep.Rejected); err != nil {
		return err
	}
	if err := finiteNonNeg("cpu_work", rep.CPUWork); err != nil {
		return err
	}
	if err := finiteNonNeg("io_work", rep.IOWork); err != nil {
		return err
	}
	return finiteNonNeg("latency_ms", rep.LatencyMS)
}

// checkCounts rejects a report's query counts outside [0, maxCount].
func checkCounts(numIO, numCPU, rejected int) error {
	for _, c := range [...]struct {
		name string
		v    int
	}{{"num_io", numIO}, {"num_cpu", numCPU}, {"rejected", rejected}} {
		switch {
		case c.v < 0:
			return fmt.Errorf("%s %d is negative", c.name, c.v)
		case c.v > maxCount:
			return fmt.Errorf("%s %d exceeds %d", c.name, c.v, maxCount)
		}
	}
	return nil
}
