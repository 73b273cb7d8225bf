package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firstaid/internal/app"
	"firstaid/internal/apps"
	"firstaid/internal/core"
	"firstaid/internal/replay"
	"firstaid/internal/telemetry"
)

// TestServeEndToEndTCP is the fleet acceptance run: ≥10k requests with bug
// triggers mixed in, over a real TCP socket, across ≥4 supervised workers.
// The shared patch pool must hold fleet-wide failures to at most one per
// distinct buggy call-site (the first trigger is diagnosed and everyone
// else is immunized), and not one request may be dropped.
func TestServeEndToEndTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-request end-to-end run")
	}
	newApache := func() app.App {
		a, err := apps.New("apache")
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	f := New(func() app.Program { return newApache() }, Config{
		Workers:    4,
		Dispatch:   HashBySource,
		Supervisor: core.Config{
			// Inline validation keeps each worker single-threaded, so the
			// outcome (one failure fleet-wide) is reproducible.
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewServer(f)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Gate the run on readiness: every serving goroutine up with inbox
	// space, exactly as a deployment's load balancer would before admitting
	// traffic.
	ready := false
	for i := 0; i < 100 && !ready; i++ {
		var h Health
		getJSON(t, base+"/healthz", &h)
		ready = h.Ready
		if !ready {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !ready {
		t.Fatal("fleet never reported ready on /healthz")
	}

	// 8 clients × ~1300 events ≥ 10k requests. Three clients carry the
	// apache cache-purge trigger, staggered 300 events apart so the first
	// diagnosis propagates through the pool before the others trigger.
	var logs []*replay.Log
	for c := 0; c < 8; c++ {
		var triggers []int
		if c < 3 {
			triggers = []int{110 + 300*c}
		}
		logs = append(logs, newApache().Workload(1300, triggers))
	}
	sent, answered := postConcurrently(t, base, logs)
	if sent < 10000 {
		t.Fatalf("load sent %d requests, want ≥ 10000", sent)
	}
	if answered != sent {
		t.Fatalf("dropped requests: %d sent, %d answered", sent, answered)
	}
	// Latency percentiles come from the server's own histogram, the
	// numbers an operator scrapes from /metrics.
	var snap telemetry.Snapshot
	getJSON(t, base+"/metrics", &snap)
	lat := snap.Histograms["fleet.latency_us"]
	if lat.P50 == 0 || lat.P99 < lat.P50 {
		t.Fatalf("telemetry latency percentiles broken: p50=%dµs p99=%dµs", lat.P50, lat.P99)
	}
	t.Logf("%d events, p50 %dµs p99 %dµs", sent, lat.P50, lat.P99)

	// The operational surfaces answer over the same socket.
	var health Health
	getJSON(t, base+"/healthz", &health)
	if len(health.Workers) != 4 {
		t.Fatalf("/healthz reports %d workers, want 4", len(health.Workers))
	}
	if !health.Ready {
		t.Fatalf("fleet not ready after the load drained: %+v", health)
	}
	if health.InFlight != 0 {
		t.Fatalf("%d diagnoses still in flight after the load", health.InFlight)
	}
	for _, w := range health.Workers {
		if !w.Ready || w.LastEventClock == 0 {
			t.Fatalf("worker %d unhealthy after serving load: %+v", w.ID, w)
		}
	}
	resp, err := http.Get(base + "/patches")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/patches: %v (%v)", err, resp)
	}
	resp.Body.Close()

	srv.Close()
	st := f.Close()
	t.Logf("fleet: %+v", st.Core)

	if st.Core.Failures == 0 {
		t.Fatal("no trigger manifested — the run proves nothing")
	}
	// At most one failure per distinct buggy call-site fleet-wide: every
	// active patch covers one call-site, so the patch count bounds the
	// distinct-site count.
	if st.ActivePatches == 0 {
		t.Fatalf("failures without patches: %+v", st)
	}
	if st.Core.Failures > st.ActivePatches {
		t.Fatalf("%d failures for %d patched call-sites — the pool did not immunize the fleet",
			st.Core.Failures, st.ActivePatches)
	}
	if st.Core.Skipped != 0 {
		t.Fatalf("%d requests skipped: %+v", st.Core.Skipped, st.Core)
	}
	if uint64(answered) != st.Requests {
		t.Fatalf("server completed %d requests, clients got %d results", st.Requests, answered)
	}
}

// postConcurrently sends each log from its own client goroutine, one JSON
// POST /events per event, under source "c<i>" so hash dispatch keeps a
// client's events in order on one worker. The clients share one transport
// that keeps a connection per client alive. It returns how many events
// were sent and how many came back as a 200 with a decodable result; a
// client stops at its first error.
func postConcurrently(t *testing.T, base string, logs []*replay.Log) (sent, answered int64) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(logs)}}
	defer client.CloseIdleConnections()
	var nSent, nAnswered atomic.Int64
	var wg sync.WaitGroup
	for c, log := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < log.Len(); i++ {
				ev := log.At(i)
				body, _ := json.Marshal(Request{Kind: ev.Kind, Data: ev.Data, N: ev.N, Src: fmt.Sprintf("c%d", c)})
				nSent.Add(1)
				resp, err := client.Post(base+"/events", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client c%d, event %d: %v", c, i, err)
					return
				}
				var res Result
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("client c%d, event %d: %s (%v)", c, i, resp.Status, err)
					return
				}
				nAnswered.Add(1)
			}
		}()
	}
	wg.Wait()
	return nSent.Load(), nAnswered.Load()
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
