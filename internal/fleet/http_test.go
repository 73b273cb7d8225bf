package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"firstaid/internal/app"
	"firstaid/internal/apps"
	"firstaid/internal/trace"
)

// newTestServer starts a small fleet behind httptest and tears it down with
// the test.
func newTestServer(t *testing.T) (*httptest.Server, *Fleet) {
	t.Helper()
	f := New(func() app.Program {
		a, err := apps.New("apache")
		if err != nil {
			t.Fatal(err)
		}
		return a
	}, Config{Workers: 2, QueueDepth: 8})
	srv := NewServer(f)
	srv.streamPoll = 5 * time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		f.Close()
	})
	return ts, f
}

func sendEvent(t *testing.T, base string, req Request) Result {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /events: %s", resp.Status)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

func wantStatus(t *testing.T, resp *http.Response, err error, want int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("got %s, want %d", resp.Status, want)
	}
}

func TestHTTPWrongMethod(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/events"},
		{http.MethodPost, "/metrics"},
		{http.MethodPost, "/trace"},
		{http.MethodPost, "/trace/stream"},
		{http.MethodDelete, "/patches"},
		{http.MethodPut, "/healthz"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		wantStatus(t, resp, err, http.StatusMethodNotAllowed)
	}
}

func TestHTTPEventErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/events", "application/json", strings.NewReader("{not json"))
	wantStatus(t, resp, err, http.StatusBadRequest)

	// Valid JSON, missing kind.
	resp, err = http.Post(ts.URL+"/events", "application/json", strings.NewReader(`{"data":"x"}`))
	wantStatus(t, resp, err, http.StatusBadRequest)

	// Oversized body.
	huge := `{"kind":"search","data":"` + strings.Repeat("x", maxEventBody) + `"}`
	resp, err = http.Post(ts.URL+"/events", "application/json", strings.NewReader(huge))
	wantStatus(t, resp, err, http.StatusRequestEntityTooLarge)

	// The fleet still answers after every error path.
	res := sendEvent(t, ts.URL, Request{Kind: "search", Data: "uid=1", N: 1, Src: "c0"})
	if res.Failed {
		t.Fatalf("clean event failed: %+v", res)
	}
}

func TestHTTPMetricsFormats(t *testing.T) {
	ts, _ := newTestServer(t)
	sendEvent(t, ts.URL, Request{Kind: "search", Data: "uid=1", N: 1, Src: "c0"})

	// Default is JSON.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	resp.Body.Close()

	// ?format=prom selects the text exposition.
	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics?format=prom: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prom content-type = %q", ct)
	}
	if !bytes.Contains(body, []byte("# TYPE firstaid_")) {
		t.Fatalf("prom exposition missing firstaid_ metrics:\n%s", body)
	}

	// A text/plain Accept header (the scraper default) also selects prom.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4, */*")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("# TYPE firstaid_")) {
		t.Fatalf("Accept: text/plain did not select prom:\n%s", body)
	}

	// Unknown format is rejected, not silently defaulted.
	resp, err = http.Get(ts.URL + "/metrics?format=xml")
	wantStatus(t, resp, err, http.StatusBadRequest)
}

func TestHTTPTraceFormats(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 20; i++ {
		sendEvent(t, ts.URL, Request{Kind: "search", Data: "uid=1", N: i, Src: "c0"})
	}

	// Chrome export must pass the structural validator.
	resp, err := http.Get(ts.URL + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace?format=chrome: %s", resp.Status)
	}
	if err := trace.ValidateChrome(body); err != nil {
		t.Fatalf("/trace?format=chrome fails validation: %v", err)
	}

	// Text timeline is the default.
	resp, err = http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("batch-begin")) || !bytes.Contains(body, []byte("dispatch")) {
		t.Fatalf("text timeline missing ingest/dispatch records:\n%.500s", body)
	}

	resp, err = http.Get(ts.URL + "/trace?format=pprof")
	wantStatus(t, resp, err, http.StatusBadRequest)
}

func TestHTTPTraceStream(t *testing.T) {
	ts, f := newTestServer(t)
	for i := 0; i < 5; i++ {
		sendEvent(t, ts.URL, Request{Kind: "search", Data: "uid=1", N: i, Src: "c0"})
	}
	if f.Trace().Emitted() < 10 {
		t.Fatalf("only %d records emitted; the stream test needs a backlog", f.Trace().Emitted())
	}

	resp, err := http.Get(ts.URL + "/trace/stream?from=0&max=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace/stream: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var got int
	lastSeq := int64(-1)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var rec struct {
			Seq  int64  `json:"seq"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
			t.Fatalf("bad SSE record %q: %v", line, err)
		}
		if rec.Seq <= lastSeq {
			t.Fatalf("stream out of order: seq %d after %d", rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		got++
	}
	if got != 10 {
		t.Fatalf("stream delivered %d records, want 10", got)
	}

	// Bad cursor parameters are rejected.
	resp, err = http.Get(ts.URL + "/trace/stream?from=banana")
	wantStatus(t, resp, err, http.StatusBadRequest)
	resp, err = http.Get(ts.URL + "/trace/stream?max=-1")
	wantStatus(t, resp, err, http.StatusBadRequest)
}
