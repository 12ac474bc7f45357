package serve

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dqalloc/internal/policy"
)

// FuzzDecodeDecideRequest is the dqserve request-decoder fuzz target:
// arbitrary bytes — malformed JSON, absurd field values, unknown fields,
// trailing garbage — must never panic, and anything the decoder accepts
// must satisfy the validated invariants the decision path relies on.
// It is also the differential test of the hand parser: on every input,
// for both request types, it must reach the verdict of the encoding/json
// reference decoder and store bit-identical values.
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
	for _, body := range parityTraps {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecideParity(t, data)
		checkReportParity(t, data)
		const numClasses, numSites = 2, 6
		req, err := DecodeDecideRequest(data, numClasses, numSites)
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
		if err == nil {
			if rep.Site < 0 || rep.Site >= numSites {
				t.Fatalf("accepted report site %d out of range", rep.Site)
			}
			if rep.NumIO < 0 || rep.NumCPU < 0 || rep.Rejected < 0 {
				t.Fatalf("accepted negative counts: %+v", rep)
			}
			if rep.NumIO > maxCount || rep.NumCPU > maxCount || rep.Rejected > maxCount {
				t.Fatalf("accepted counts above %d: %+v", maxCount, rep)
			}
		}
	})
}

// TestDecoderErrorsMapTo4xx drives the fuzz corpus shapes through the
// live handlers: a decode error must always surface as a 4xx, never a
// 5xx or a panic.
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

	bodies := []string{
		`{`, ``, `[]`, `null`, `"s"`, `{"class":-1,"home":0}`, `{"class":0,"home":99}`,
		`{"class":0,"home":0,"est_reads":1e308}`, `{"class":0,"home":0,"x":1}`,
		strings.Repeat("9", 1<<17), // over the body bound
	}
	for _, path := range []string{"/v1/decide", "/v1/report"} {
		for _, body := range bodies {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s %q: %v", path, body[:min(20, len(body))], err)
			}
			resp.Body.Close()
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Errorf("%s %q: status %d, want 4xx", path, body[:min(20, len(body))], resp.StatusCode)
			}
		}
	}
}
