package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dqalloc/internal/policy"
	"dqalloc/internal/race"
)

// decodeReference is the decoder the hand parser replaced, kept as its
// reference: encoding/json into v, rejecting non-objects (null would
// silently zero-fill), unknown fields, and trailing garbage.
func decodeReference(data []byte, v any) error {
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

// sameFloat reports whether two floats have the same bits, so -0 and 0
// differ.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkDecideParity fails t unless the hand parser and the reference
// decoder reach the same verdict on data and, when both accept, the same
// field values.
func checkDecideParity(t *testing.T, data []byte) {
	t.Helper()
	got, err := parseDecideRequest(data)
	var want DecideRequest
	refErr := decodeReference(data, &want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decide %q: parser error %v, reference error %v", data, err, refErr)
	}
	if err != nil {
		return
	}
	if got.Class != want.Class || got.Home != want.Home ||
		!sameFloat(got.EstReads, want.EstReads) || !sameFloat(got.EstPageCPU, want.EstPageCPU) ||
		!sameFloat(got.DeadlineMS, want.DeadlineMS) {
		t.Fatalf("decide %q: parser %+v, reference %+v", data, got, want)
	}
}

// checkReportParity is checkDecideParity for report bodies.
func checkReportParity(t *testing.T, data []byte) {
	t.Helper()
	got, err := parseReportRequest(data)
	var want ReportRequest
	refErr := decodeReference(data, &want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("report %q: parser error %v, reference error %v", data, err, refErr)
	}
	if err != nil {
		return
	}
	if got.Site != want.Site || got.NumIO != want.NumIO || got.NumCPU != want.NumCPU ||
		got.Rejected != want.Rejected || !sameFloat(got.CPUWork, want.CPUWork) ||
		!sameFloat(got.IOWork, want.IOWork) || !sameFloat(got.LatencyMS, want.LatencyMS) {
		t.Fatalf("report %q: parser %+v, reference %+v", data, got, want)
	}
}

// parityTraps are bodies on which a hand parser could part from
// encoding/json. Each seeds FuzzDecodeDecideRequest and is checked
// outright by TestCodecParityTraps.
var parityTraps = []string{
	// Keys match after unescaping, case-insensitively with Unicode
	// folding; the last duplicate wins and null leaves a field alone.
	`{"CLASS":1,"Home":2}`, `{"cla\u0073s":1}`, `{"clas\u017f":1}`, `{"claſs":1,"ho\u004De":1}`,
	`{"\u212Aey":1}`, `{"num_\u0130o":1}`, `{"num_ıo":1}`, `{"class\u0000":1}`, `{"class\ud800":1}`,
	`{"class\ud800\udc00":1}`, `{"\ud801\udc28":1}`, `{"cl\/ass":1}`, `{"class":1,"class":0}`,
	`{"EST_PAGE_\u0043PU":1}`, `{"est_page_cpuu":1}`, `{"est_page_cp":1}`, `{"\u0065st_page_cpu":1}`,
	`{"class":1,"class":null}`, `{"class":null}`, `{"class":1.5,"class":1}`, `{"est_reads":2,"EST_READS":3}`,
	`{"est_reads":"1"}`, `{"class":"1"}`, `{"class":true}`, `{"class":false}`, `{"class":{}}`, `{"class":[]}`,
	`{"class":[1]}`, `{"x":null}`, `{"x":{"class":1}}`, `{}`, `{ }`, ` {"class":1} `, "\t{\"class\"\r:\n1}\n",
	// Integer fields: no fraction or exponent, no int64 overflow; -0
	// is 0.
	`{"class":-0}`, `{"class":1.0}`, `{"class":1e0}`, `{"class":1E2}`, `{"home":9223372036854775807}`,
	`{"home":9223372036854775808}`, `{"home":-9223372036854775808}`, `{"home":-9223372036854775809}`,
	`{"home":99999999999999999999}`,
	// Float fields parse as strconv.ParseFloat does.
	`{"est_reads":1e999}`, `{"est_reads":-1e999}`, `{"est_reads":1e-400}`, `{"est_reads":-0}`,
	`{"est_reads":-0.0}`, `{"est_reads":0.1}`, `{"est_reads":1E+2}`, `{"est_reads":1e-2}`,
	`{"est_reads":123456789012345678901234567890123456789}`, `{"est_reads":4.9e-324}`,
	`{"est_reads":1.7976931348623157e308}`, `{"est_reads":1.7976931348623159e308}`,
	// Number grammar: no leading zeros, no plus, no bare point.
	`{"class":01}`, `{"class":00}`, `{"class":+1}`, `{"class":.5}`, `{"class":1.}`, `{"class":1e}`,
	`{"class":1e+}`, `{"class":-}`, `{"class":--1}`, `{"class":0x1}`, `{"class":1_0}`, `{"est_reads":NaN}`,
	`{"est_reads":Infinity}`, `{"class":1 2}`,
	// Other syntax: literals, separators, whitespace, what follows the
	// object.
	`{"class":nul}`, `{"class":nullx}`, `{"class":NULL}`, `{"class":1,}`, `{,"class":1}`, `{"class" 1}`,
	`{"class":1 "home":2}`, `{"class"::1}`, `{class:1}`, `{'class':1}`, `{"class":1}}`, `{"class":1}{"class":1}`,
	`{"class":1}x`, `{"class":1} {`, `{"class":1}` + "\x00", "\ufeff{\"class\":1}", "\v{\"class\":1}",
	"{\"class\":1}\f", "\u00a0{}", `{"class":1`, `{"class":`, `{"class"`, `{"cla`, `{`, ``, ` `,
	`null`, `[]`, `1`, `"s"`, `{"cl` + "\x01" + `ass":1}`, `{"cl` + "\x7f" + `ass":1}`, `{"cl\ass":1}`,
	`{"cl\u00":1}`, `{"cl\u00zz":1}`, `{"\uD83D\uDE00":1}`, `{"cl` + "\xff" + `ass":1}`,
	// Report-shaped bodies.
	`{"site":2,"num_io":1,"num_cpu":2}`, `{"site":0,"num_io":9223372036854775807,"num_cpu":1}`,
	`{"SITE":1,"Num_IO":1,"rejected":null,"latency_ms":0.5}`, `{"site":1,"cpu_work":1e3,"io_work":-0}`,
	`{"site":1,"rejected":1.5}`, `{"site":1,"num_cpu":"2"}`, `{"site":1,"num_io":1000000000}`,
	`{"site":1,"num_io":1000000001}`,
}

// TestCodecParityTraps runs every parity trap through both request
// parsers and the reference decoder.
func TestCodecParityTraps(t *testing.T) {
	for _, body := range parityTraps {
		checkDecideParity(t, []byte(body))
		checkReportParity(t, []byte(body))
	}
}

// TestReportCountBound pins the report count bound: maxCount is the
// largest count the decoder and Core.Report accept, in each count field.
func TestReportCountBound(t *testing.T) {
	for _, name := range []string{"num_io", "num_cpu", "rejected"} {
		at := fmt.Sprintf(`{"site":0,%q:%d}`, name, maxCount)
		if _, err := DecodeReportRequest([]byte(at), 1); err != nil {
			t.Errorf("%s: %v", at, err)
		}
		over := fmt.Sprintf(`{"site":0,%q:%d}`, name, maxCount+1)
		if _, err := DecodeReportRequest([]byte(over), 1); err == nil {
			t.Errorf("%s accepted", over)
		}
	}
	c, err := NewCore(Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range [][3]int{{maxCount, 0, 0}, {0, maxCount, 0}, {0, 0, maxCount}} {
		if err := c.Report(0, n[0], n[1], 0, 0, n[2], 0, time.Now()); err != nil {
			t.Errorf("Core.Report refused counts %v: %v", n, err)
		}
		over := [3]int{n[0] * 2, n[1] * 2, n[2] * 2}
		if err := c.Report(0, over[0], over[1], 0, 0, over[2], 0, time.Now()); err == nil {
			t.Errorf("Core.Report accepted counts %v", over)
		}
	}
}

// TestFieldTablesMatchTags holds each parser field table to its request
// struct: every struct field has exactly one entry, named by its json
// tag and storing into that field with the right type, and every name
// is lower-case ASCII no longer than maxFieldName, so matchKey can
// match it.
func TestFieldTablesMatchTags(t *testing.T) {
	var req DecideRequest
	var rep ReportRequest
	for _, tc := range []struct {
		v      any // pointer to the request struct
		fields []field
	}{
		{&req, decideFields(&req)},
		{&rep, reportFields(&rep)},
	} {
		sv := reflect.ValueOf(tc.v).Elem()
		if len(tc.fields) != sv.NumField() {
			t.Errorf("%s: %d table entries for %d struct fields", sv.Type(), len(tc.fields), sv.NumField())
		}
		for _, f := range tc.fields {
			if len(f.name) > maxFieldName {
				t.Errorf("%s: %q is longer than maxFieldName %d", sv.Type(), f.name, maxFieldName)
			}
			if strings.ToLower(f.name) != f.name || strings.IndexFunc(f.name, func(r rune) bool { return r >= 0x80 }) >= 0 {
				t.Errorf("%s: %q is not lower-case ASCII", sv.Type(), f.name)
			}
			var addr uintptr
			var kind reflect.Kind
			switch {
			case f.i != nil && f.f == nil:
				addr, kind = reflect.ValueOf(f.i).Pointer(), reflect.Int
			case f.f != nil && f.i == nil:
				addr, kind = reflect.ValueOf(f.f).Pointer(), reflect.Float64
			default:
				t.Errorf("%s: %q must store into exactly one of i and f", sv.Type(), f.name)
				continue
			}
			found := false
			for k := 0; k < sv.NumField(); k++ {
				if sv.Field(k).Addr().Pointer() != addr {
					continue
				}
				found = true
				sf := sv.Type().Field(k)
				tag, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
				if tag != f.name || sf.Type.Kind() != kind {
					t.Errorf("%s: %q stores into %s (tag %q, %s)", sv.Type(), f.name, sf.Name, tag, sf.Type.Kind())
				}
			}
			if !found {
				t.Errorf("%s: %q stores outside the struct", sv.Type(), f.name)
			}
		}
	}
}

// TestAppendDecideResponseMatchesEncoder pins AppendDecideResponse to
// the bytes json.Encoder writes, for every policy name, both modes and a
// range of sites.
func TestAppendDecideResponseMatchesEncoder(t *testing.T) {
	var resps []DecideResponse
	for k := policy.Local; k <= policy.Work; k++ {
		for _, mode := range []string{"policy", "fallback"} {
			for site := 0; site <= 300; site++ {
				resps = append(resps, DecideResponse{Site: site, Mode: mode, Policy: k.String()})
			}
		}
	}
	var want bytes.Buffer
	for _, r := range resps {
		want.Reset()
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := AppendDecideResponse(nil, r); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v: got %q, want %q", r, got, want.Bytes())
		}
	}
}

// TestCodecDoesNotAllocate pins the codec on accepted bodies: decoding
// either request and appending a decide response into a buffer with
// room allocate nothing.
func TestCodecDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	decide := []byte(`{"class":1,"home":2,"est_reads":20,"est_page_cpu":0.05,"deadline_ms":50}`)
	report := []byte(`{"site":2,"num_io":1,"num_cpu":2,"cpu_work":1.5,"io_work":2,"rejected":1,"latency_ms":3}`)
	buf := make([]byte, 0, 128)
	resp := DecideResponse{Site: 3, Mode: "policy", Policy: "LERT"}
	for name, f := range map[string]func(){
		"decide": func() {
			if _, err := DecodeDecideRequest(decide, 2, 6); err != nil {
				t.Fatal(err)
			}
		},
		"report": func() {
			if _, err := DecodeReportRequest(report, 6); err != nil {
				t.Fatal(err)
			}
		},
		"response": func() { buf = AppendDecideResponse(buf[:0], resp) },
	} {
		if got := testing.AllocsPerRun(100, f); got != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, got)
		}
	}
}

// The codec benchmarks time the bodies the serve benchmark's client
// sends, with the encoding/json reference as a sub-benchmark.

func BenchmarkDecodeDecideRequest(b *testing.B) {
	b.Run("parser", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := DecodeDecideRequest(decideBody, 2, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var req DecideRequest
			if err := decodeReference(decideBody, &req); err != nil {
				b.Fatal(err)
			}
			if err := req.validate(2, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeReportRequest(b *testing.B) {
	b.Run("parser", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := DecodeReportRequest(reportBody, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var rep ReportRequest
			if err := decodeReference(reportBody, &rep); err != nil {
				b.Fatal(err)
			}
			if err := rep.validate(6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAppendDecideResponse(b *testing.B) {
	resp := DecideResponse{Site: 1, Mode: "policy", Policy: policy.LERT.String()}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 128)
		for b.Loop() {
			buf = AppendDecideResponse(buf[:0], resp)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
