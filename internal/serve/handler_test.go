package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
)

// badBodies is the malformed-request table: every entry must produce
// HTTP 400. FuzzParseRequest seeds its corpus from the same table.
var badBodies = []struct {
	name, body string
}{
	{"empty", ``},
	{"not json", `planes, not plans`},
	{"truncated", `{"sensors": [{"x": 1,`},
	{"trailing data", `{"sensors":[{"x":1,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10} {"again":true}`},
	{"unknown field", `{"sensor_list":[],"t":10}`},
	{"zero sensors", `{"sensors":[],"depots":[{"x":0,"y":0}],"t":10}`},
	{"zero depots", `{"sensors":[{"x":1,"y":1,"cycle":2}],"depots":[],"t":10}`},
	{"nan coordinate", `{"sensors":[{"x":NaN,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10}`},
	{"inf cycle", `{"sensors":[{"x":1,"y":1,"cycle":1e999}],"depots":[{"x":0,"y":0}],"t":10}`},
	{"negative cycle", `{"sensors":[{"x":1,"y":1,"cycle":-3}],"depots":[{"x":0,"y":0}],"t":10}`},
	{"duplicate ids", `{"sensors":[{"id":0,"x":1,"y":1,"cycle":2},{"id":0,"x":2,"y":2,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10}`},
	{"id out of range", `{"sensors":[{"id":7,"x":1,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10}`},
	{"partial ids", `{"sensors":[{"id":0,"x":1,"y":1,"cycle":2},{"x":2,"y":2,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10}`},
	{"missing t", `{"sensors":[{"x":1,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}]}`},
	{"negative t", `{"sensors":[{"x":1,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}],"t":-5}`},
	{"bad base", `{"sensors":[{"x":1,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10,"base":1}`},
	{"unknown algorithm", `{"algorithm":"Magic","sensors":[{"x":1,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10}`},
	{"inverted field", `{"field":{"min":{"x":9,"y":9},"max":{"x":0,"y":0}},"sensors":[{"x":1,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10}`},
	{"base station outside field", `{"field":{"min":{"x":0,"y":0},"max":{"x":10,"y":10}},"base_station":{"x":99,"y":99},"sensors":[{"x":1,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10}`},
	{"too many rounds", `{"sensors":[{"x":1,"y":1,"cycle":0.0001}],"depots":[{"x":0,"y":0}],"t":1e6}`},
	{"negative timeout", `{"sensors":[{"x":1,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10,"timeout_ms":-1}`},
}

// goodBody is a minimal valid /plan request.
const goodBody = `{"sensors":[{"x":100,"y":100,"cycle":3},{"x":800,"y":200,"cycle":7},{"x":400,"y":700,"cycle":5}],"depots":[{"x":500,"y":500}],"t":20}`

// TestHandlerPlan drives the full HTTP path: 400s for the whole
// malformed table, then a valid request planning twice — miss then
// cache hit — with identical bodies.
func TestHandlerPlan(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	for _, c := range badBodies {
		resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %q)", c.name, resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q is not the JSON error shape", c.name, body)
		}
	}

	post := func() (int, string, []byte) {
		resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(goodBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Chargerd-Cache"), body
	}
	st1, cache1, body1 := post()
	if st1 != http.StatusOK || cache1 != "miss" {
		t.Fatalf("first plan: status %d cache %q, want 200 miss", st1, cache1)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body1, &pr); err != nil {
		t.Fatalf("plan body does not decode: %v", err)
	}
	if pr.N != 3 || pr.Q != 1 || len(pr.Rounds) == 0 || !(pr.Cost > 0) {
		t.Errorf("implausible plan response: %+v", pr)
	}
	st2, cache2, body2 := post()
	if st2 != http.StatusOK || cache2 != "hit" || !bytes.Equal(body1, body2) {
		t.Errorf("second plan: status %d cache %q identical=%v, want 200 hit true", st2, cache2, bytes.Equal(body1, body2))
	}
}

// TestHandlerBodyTooLarge checks that a body over MaxBodyBytes is
// rejected with the typed 413, not a generic 400, and that the error
// body names the limit.
func TestHandlerBodyTooLarge(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	huge := bytes.NewReader(make([]byte, MaxBodyBytes+1))
	resp, err := http.Post(ts.URL+"/plan", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %q)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "bytes") {
		t.Fatalf("413 body %q is not the JSON error shape naming the limit", body)
	}
}

// TestHandlerShedAndHealth checks the 503 + Retry-After mapping with a
// saturated pool, and the healthz and metrics endpoints.
func TestHandlerShedAndHealth(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	srv := New(Config{Workers: 1, QueueDepth: 1, CacheSize: -1, RetryAfter: 2 * time.Second,
		planFn: func(r *PlanRequest, ws *experiment.Scratch) ([]byte, planStats, error) {
			started <- struct{}{}
			<-release
			return []byte("ok\n"), planStats{}, nil
		}})
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	// Saturate: one request on the worker, one in the queue.
	tweak := func(T float64) string {
		return strings.Replace(goodBody, `"t":20`, `"t":`+jsonNum(T), 1)
	}
	var inflightWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		inflightWG.Add(1)
		go func(i int) {
			defer inflightWG.Done()
			resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(tweak(30+float64(i))))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	<-started
	for srv.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(tweak(99)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated pool: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb healthBody
	if err := json.NewDecoder(hr.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || hb.Status != "ok" || hb.Workers != 1 {
		t.Errorf("healthz = %d %+v", hr.StatusCode, hb)
	}

	// Let the saturating plans finish so their latencies reach the
	// plan histograms.
	unblock()
	inflightWG.Wait()

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, metric := range []string{
		"chargerd_requests_total", "chargerd_queue_depth",
		"chargerd_cache_hits_total", "chargerd_cache_misses_total",
		"chargerd_request_seconds", "chargerd_plan_seconds",
	} {
		if !strings.Contains(string(mbody), metric) {
			t.Errorf("/metrics is missing %s", metric)
		}
	}
	if !strings.Contains(string(mbody), `chargerd_requests_total{outcome="shed"} 1`) {
		t.Errorf("/metrics must count the shed request:\n%s", mbody)
	}
}

// jsonNum renders a float the way the test bodies need it.
func jsonNum(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestHandlerMethods checks the mux rejects wrong methods/paths.
func TestHandlerMethods(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /plan: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/nonsense")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nonsense: status %d, want 404", resp.StatusCode)
	}
}

// FuzzParseRequest holds the decoder to its contract on arbitrary
// bytes: it never panics, and every rejection is a *RequestError (the
// HTTP 400 class) — nothing else escapes.
func FuzzParseRequest(f *testing.F) {
	for _, c := range badBodies {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(goodBody))
	f.Add([]byte(`{"algorithm":"QRootedTSP-2approx","sensors":[{"x":1,"y":1,"cycle":2}],"depots":[{"x":0,"y":0}]}`))
	f.Add([]byte(`{"sensors":[{"id":0,"x":1,"y":1,"capacity":2,"cycle":2}],"depots":[{"x":0,"y":0}],"t":10,"base":3,"timeout_ms":50}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("non-RequestError rejection %T: %v", err, err)
			}
			return
		}
		// Accepted requests must carry a usable topology.
		if req.Network() == nil || req.Network().Validate() != nil {
			t.Fatal("accepted request has no valid topology")
		}
	})
}
