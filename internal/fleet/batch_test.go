package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"firstaid/internal/app"
)

func wireItems(n int, src string) []BatchItem {
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{
			Kind: []byte("note"),
			Data: []byte(fmt.Sprintf("note %d", i)),
			Src:  []byte(src),
			N:    i - 2, // exercise negative N through the signed varint
		}
	}
	return items
}

func TestBatchCodecRoundTrip(t *testing.T) {
	items := wireItems(17, "c3")
	items[5].Data = nil // empty payload
	wire := AppendBatch(nil, items)
	got, err := DecodeBatch(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if !bytes.Equal(got[i].Kind, items[i].Kind) || !bytes.Equal(got[i].Data, items[i].Data) ||
			!bytes.Equal(got[i].Src, items[i].Src) || got[i].N != items[i].N {
			t.Fatalf("item %d: %+v vs %+v", i, got[i], items[i])
		}
	}
	// AppendRequests must produce the identical wire form.
	reqs := make([]Request, len(items))
	for i, it := range items {
		reqs[i] = Request{Kind: string(it.Kind), Data: string(it.Data), N: it.N, Src: string(it.Src)}
	}
	if wire2 := AppendRequests(nil, reqs); !bytes.Equal(wire, wire2) {
		t.Fatal("AppendRequests wire form diverges from AppendBatch")
	}
}

func TestBatchDecodeRejectsGarbage(t *testing.T) {
	good := AppendBatch(nil, wireItems(3, "s"))
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      []byte("JSON{not a batch}"),
		"magic only":     good[:4],
		"truncated mid":  good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0xFF),
	}
	// A declared count far beyond the actual items.
	overCount := append([]byte{}, batchMagic[:]...)
	overCount = binary.AppendUvarint(overCount, 1<<40)
	cases["count overflow"] = overCount
	// An inner length running past the buffer.
	runaway := append([]byte{}, batchMagic[:]...)
	runaway = binary.AppendUvarint(runaway, 1)
	runaway = binary.AppendUvarint(runaway, 1<<30)
	cases["runaway length"] = runaway
	// A present but empty kind.
	noKind := append([]byte{}, batchMagic[:]...)
	noKind = binary.AppendUvarint(noKind, 1)
	noKind = binary.AppendUvarint(noKind, 0)
	cases["empty kind"] = noKind

	for name, wire := range cases {
		if _, err := DecodeBatch(wire, nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := DecodeBatch(overCount, nil); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("count overflow: err = %v, want ErrBatchTooLarge", err)
	}
}

// TestDoBatchReroutesRoundRobinShare: a round-robin batch share whose
// primary inbox is full re-routes to the next worker with space, like a
// single request, instead of blocking on its primary. The re-routed share
// lands on a worker that holds the batch's other share too, so the result
// lists that worker twice.
func TestDoBatchReroutesRoundRobinShare(t *testing.T) {
	gate := make(chan struct{})
	f := New(func() app.Program { return &notesvc{gate: gate} },
		Config{Workers: 2, QueueDepth: 1, Dispatch: RoundRobin})
	defer func() {
		close(gate)
		f.Close()
	}()
	one := func(kind, data string) []BatchItem {
		return []BatchItem{{Kind: []byte(kind), Data: []byte(data)}}
	}

	// Each one-item batch takes one rotor step: primaries 0, 1, 0, 1.
	goBatch(t, f, one("gate", "")) // worker 0, parked
	waitBusy(t, f, 0)
	if _, err := f.DoBatch(one("note", "clean")); err != nil {
		t.Fatal(err)
	}
	goBatch(t, f, one("note", "queued")) // worker 0's inbox, now full
	if _, err := f.DoBatch(one("note", "clean")); err != nil {
		t.Fatal(err)
	}

	// Rotor 4 deals item a to worker 0 (full: re-routes to worker 1) and
	// item b to worker 1.
	done := make(chan BatchResult, 1)
	go func() {
		res, err := f.DoBatch(append(one("note", "a"), one("note", "b")...))
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res BatchResult
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a round-robin share blocked on its full primary inbox")
	}
	ws := res.Workers
	if res.Events != 2 || len(ws) != 2 || ws[0].Worker != 1 || ws[1].Worker != 1 ||
		!ws[0].Rerouted || ws[1].Rerouted || ws[0].First >= ws[1].First {
		t.Fatalf("result %+v: want share a re-routed to worker 1, then share b there", res)
	}
	if got := f.met.rerouted.Value(); got != 1 {
		t.Fatalf("fleet.rerouted = %d, want 1", got)
	}
}

// TestDoBatchSplitsBySource: a mixed-source batch under HashBySource must
// land each source's events, in order, on that source's sticky worker —
// the same placement per-event submission would have chosen.
func TestDoBatchSplitsBySource(t *testing.T) {
	f := New(func() app.Program { return &notesvc{} },
		Config{Workers: 3, QueueDepth: 8, Dispatch: HashBySource})
	srcs := []string{srcForWorker(t, f, 0), srcForWorker(t, f, 1), srcForWorker(t, f, 2)}

	// Interleave the three sources in one batch.
	var items []BatchItem
	const perSrc = 10
	for i := 0; i < perSrc; i++ {
		for w, src := range srcs {
			items = append(items, BatchItem{
				Kind: []byte("note"),
				Data: []byte(fmt.Sprintf("w%d-%d", w, i)),
				Src:  []byte(src),
			})
		}
	}
	res, err := f.DoBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != len(items) || res.Failures != 0 {
		t.Fatalf("batch result: %+v", res)
	}
	if len(res.Workers) != 3 {
		t.Fatalf("expected shares on 3 workers, got %+v", res.Workers)
	}
	for w, wb := range res.Workers {
		if wb.Worker != w || wb.Events != perSrc {
			t.Fatalf("share %d: %+v", w, wb)
		}
	}
	f.Close()
	for w := range srcs {
		log := f.RecordedLog(w)
		if log.Len() != perSrc {
			t.Fatalf("worker %d recorded %d events, want %d", w, log.Len(), perSrc)
		}
		for i := 0; i < perSrc; i++ {
			if want := fmt.Sprintf("w%d-%d", w, i); log.At(i).Data != want {
				t.Fatalf("worker %d event %d = %q, want %q (order broken)", w, i, log.At(i).Data, want)
			}
		}
	}
}

// TestDoBatchRoundRobinChunks: round-robin batches deal contiguous chunks
// across workers and every event resolves exactly once.
func TestDoBatchRoundRobinChunks(t *testing.T) {
	f := New(func() app.Program { return &notesvc{} },
		Config{Workers: 2, QueueDepth: 8, Dispatch: RoundRobin})
	res, err := f.DoBatch(wireItems(11, "s"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 11 {
		t.Fatalf("events = %d", res.Events)
	}
	total := 0
	for _, wb := range res.Workers {
		total += wb.Events
	}
	if total != 11 {
		t.Fatalf("shares cover %d events, want 11", total)
	}
	st := f.Close()
	if st.Core.Events != 11 {
		t.Fatalf("core events = %d", st.Core.Events)
	}
}

// TestDoBatchRecovery: a trigger mid-batch is diagnosed and patched
// exactly as per-event traffic; the aggregate counts surface it.
func TestDoBatchRecovery(t *testing.T) {
	f := New(func() app.Program { return &notesvc{} },
		Config{Workers: 1, QueueDepth: 8, Dispatch: HashBySource})
	items := wireItems(20, "c0")
	items[7].Data = []byte(oversized) // the notesvc overflow trigger
	res, err := f.DoBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 || res.Recovered == 0 {
		t.Fatalf("trigger not recovered: %+v", res)
	}
	st := f.Close()
	if st.ActivePatches == 0 {
		t.Fatal("no patch in the shared pool after batch recovery")
	}
}

func TestDoBatchClosed(t *testing.T) {
	f := New(func() app.Program { return &notesvc{} }, Config{Workers: 1})
	f.Close()
	if _, err := f.DoBatch(wireItems(1, "s")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestHTTPBatchErrors drives the POST /events/batch error contract:
// oversized bodies and counts are 413 with the limit echoed, framing
// faults are 400, and a rejected batch ingests nothing (all-or-nothing).
func TestHTTPBatchErrors(t *testing.T) {
	ts, f := newTestServer(t)
	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/events/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Body over maxBatchBody: 413, limit echoed.
	resp := post(make([]byte, maxBatchBody+1))
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %s", resp.Status)
	}
	if !strings.Contains(string(msg), fmt.Sprint(maxBatchBody)) {
		t.Fatalf("413 does not echo the body limit: %q", msg)
	}

	// Declared count over MaxBatchEvents: 413, limit echoed.
	over := append([]byte{}, batchMagic[:]...)
	over = binary.AppendUvarint(over, MaxBatchEvents+1)
	resp = post(over)
	msg, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized count: %s", resp.Status)
	}
	if !strings.Contains(string(msg), fmt.Sprint(MaxBatchEvents)) {
		t.Fatalf("413 does not echo the event limit: %q", msg)
	}

	// Garbage and truncated payloads: 400, and — all-or-nothing — no
	// event from any rejected batch may have been ingested.
	good := AppendBatch(nil, wireItems(5, "c1"))
	for name, body := range map[string][]byte{
		"garbage":   []byte("this is not a batch"),
		"truncated": good[:len(good)-4],
		"trailing":  append(append([]byte{}, good...), 0x00),
	} {
		resp = post(body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s, want 400", name, resp.Status)
		}
	}
	for _, wh := range f.Health().Workers {
		if wh.Processed != 0 {
			t.Fatalf("worker %d ingested %d events from rejected batches", wh.ID, wh.Processed)
		}
	}

	// And a well-formed batch on the same connection still lands.
	resp = post(good)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good batch after errors: %s", resp.Status)
	}
	var res BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Events != 5 {
		t.Fatalf("batch result: %+v", res)
	}
}

// TestRunLoadBatchMode drives the load generator in batch mode end to end
// over real TCP: every event acknowledged, HTTP round-trips amortized by
// the batch size, and the error breakdown clean.
func TestRunLoadBatchMode(t *testing.T) {
	ts, f := newTestServer(t)
	rep, err := RunLoad(ts.URL, func() app.App { return &notesvc{} }, LoadConfig{
		Clients:         2,
		EventsPerClient: 100,
		Batch:           32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 200 || rep.Responses != 200 {
		t.Fatalf("sent %d, acknowledged %d", rep.Requests, rep.Responses)
	}
	if rep.Errors != 0 || rep.TransportErrors != 0 || rep.HTTPErrors != 0 {
		t.Fatalf("errors in clean batch run: %+v", rep)
	}
	// ceil(100/32) = 4 batches per client.
	if rep.HTTPRequests != 8 {
		t.Fatalf("HTTP round-trips = %d, want 8", rep.HTTPRequests)
	}
	st := f.Close()
	if st.Core.Events != 200 {
		t.Fatalf("fleet served %d events", st.Core.Events)
	}
}

// TestRunLoadErrorBreakdown: transport failures (server gone) and HTTP
// failures (a 404 route) land in their respective counters.
func TestRunLoadErrorBreakdown(t *testing.T) {
	ts, _ := newTestServer(t)
	// Point the per-event path at a bad route: every request is a non-200.
	rep, err := RunLoad(ts.URL+"/nosuch", func() app.App { return &notesvc{} }, LoadConfig{
		Clients:         1,
		EventsPerClient: 3,
	})
	if err == nil { // /metrics under the bad prefix also fails
		t.Fatalf("expected metrics error, got report %+v", rep)
	}
	if rep.HTTPErrors != 3 || rep.TransportErrors != 0 {
		t.Fatalf("http errors = %d, transport = %d, want 3/0", rep.HTTPErrors, rep.TransportErrors)
	}
	ts.Close()
	rep, err = RunLoad(ts.URL, func() app.App { return &notesvc{} }, LoadConfig{
		Clients:         1,
		EventsPerClient: 3,
		Batch:           2,
	})
	if err == nil {
		t.Fatalf("expected metrics error after server close, got %+v", rep)
	}
	if rep.TransportErrors != 2 || rep.HTTPErrors != 0 {
		t.Fatalf("transport errors = %d, http = %d, want 2/0", rep.TransportErrors, rep.HTTPErrors)
	}
}

// FuzzBatchDecode feeds arbitrary bytes to the wire decoder. It must never
// panic; a count beyond MaxBatchEvents must fail with ErrBatchTooLarge;
// and whatever decodes must survive a round trip: AppendBatch re-encodes
// the items into a frame that decodes to the same items. The round trip
// compares items, not bytes: encoding/binary accepts overlong varints, so
// "FAB\x01\x80\x00" decodes as an empty batch and re-encodes one byte
// shorter.
func FuzzBatchDecode(f *testing.F) {
	good := AppendBatch(nil, wireItems(3, "s"))
	f.Add(good)
	f.Add(AppendBatch(nil, nil))
	f.Add(append([]byte("FAB\x02"), good[4:]...))
	f.Add(good[:len(good)-2])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add(binary.AppendUvarint([]byte("FAB\x01"), MaxBatchEvents+1))
	f.Add([]byte("FAB\x01\x80\x00"))

	f.Fuzz(func(t *testing.T, wire []byte) {
		items, err := DecodeBatch(wire, nil)
		if len(wire) >= 4 && string(wire[:4]) == "FAB\x01" {
			if count, n := binary.Uvarint(wire[4:]); n > 0 && count > MaxBatchEvents && !errors.Is(err, ErrBatchTooLarge) {
				t.Fatalf("count %d over the limit decoded with err %v", count, err)
			}
		}
		if err != nil {
			return
		}
		again, err := DecodeBatch(AppendBatch(nil, items), nil)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if len(again) != len(items) {
			t.Fatalf("round trip: %d items, want %d", len(again), len(items))
		}
		for i := range items {
			a, b := items[i], again[i]
			if !bytes.Equal(a.Kind, b.Kind) || !bytes.Equal(a.Data, b.Data) || !bytes.Equal(a.Src, b.Src) || a.N != b.N {
				t.Fatalf("round trip item %d: %+v, want %+v", i, b, a)
			}
		}
	})
}
