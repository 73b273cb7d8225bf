package fleet

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"firstaid/internal/app"
	"firstaid/internal/core"
	"firstaid/internal/mmbug"
	"firstaid/internal/proc"
	"firstaid/internal/replay"
	"firstaid/internal/trace"
	"firstaid/internal/vmem"
)

// notesvc is the fleet test program: the quickstart note service (a fixed
// 64-byte note buffer copied into with no bounds check) extended with the
// event kinds the fleet tests need — a test-controlled "gate" that parks
// the worker mid-event, and a "poison" semantic failure no environmental
// change can absorb.
type notesvc struct {
	gate chan struct{} // "gate" events block here until the test closes it
}

func (s *notesvc) Name() string       { return "notesvc" }
func (s *notesvc) Bugs() []mmbug.Type { return []mmbug.Type{mmbug.BufferOverflow} }

func (s *notesvc) Init(p *proc.Proc) {
	defer p.Enter("main")()
	defer p.Enter("notesvc_init")()
	idx := p.Malloc(64)
	p.StoreU32(idx, 0x494E4458) // "INDX"
	p.Memset(idx+4, 0, 60)
	p.SetRoot(0, uint32(idx))
}

func (s *notesvc) Handle(p *proc.Proc, ev replay.Event) {
	defer p.Enter("handle")()
	p.Tick(100_000)

	switch ev.Kind {
	case "gate":
		// Parks the worker goroutine mid-event so a test can fill its
		// inbox deterministically. Harmless on re-execution: once the
		// test closes the channel the receive is instant.
		if s.gate != nil {
			<-s.gate
		}
		return
	case "poison":
		// A plain semantic failure: no allocation is involved, so
		// diagnosis finds no memory-management bug, no patch can absorb
		// it, and the supervisor's last resort is to skip the event.
		p.At("poison_check")
		p.Assert(false, "poisoned request")
		return
	}

	// "note": the quickstart buffer overflow.
	buf := func() vmem.Addr {
		defer p.Enter("note_alloc")()
		return p.Malloc(64)
	}()
	meta := func() vmem.Addr {
		defer p.Enter("meta_alloc")()
		return p.Malloc(32)
	}()
	p.StoreU32(meta, 0x4D455441) // "META"
	p.Memset(meta+4, 0, 28)

	p.At("copy_note")
	p.StoreString(buf, ev.Data) // THE BUG: no bounds check

	p.At("register")
	p.Assert(p.LoadU32(meta) == 0x4D455441, "note metadata corrupted")
	p.Assert(p.LoadU32(p.RootAddr(0)) == 0x494E4458, "note index corrupted")

	func() {
		defer p.Enter("note_free")()
		p.Free(meta)
		p.Free(buf)
	}()
}

func (s *notesvc) Workload(n int, triggers []int) *replay.Log {
	log := replay.NewLog()
	trig := map[int]bool{}
	for _, t := range triggers {
		trig[t] = true
	}
	for i := 0; log.Len() < n; i++ {
		if trig[i] {
			log.Append("note", strings.Repeat("A", 200), i)
		}
		log.Append("note", fmt.Sprintf("note %d", i), i)
	}
	return log
}

func note(data, src string) Request { return Request{Kind: "note", Data: data, Src: src} }

var oversized = strings.Repeat("A", 200)

// srcForWorker finds a source key that HashBySource maps to worker w.
func srcForWorker(t *testing.T, f *Fleet, w int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		src := fmt.Sprintf("client-%d", i)
		if f.workerForKey([]byte(src), nil) == w {
			return src
		}
	}
	t.Fatalf("no source hashes to worker %d", w)
	return ""
}

// waitBusy waits until worker w is mid-event (parked on a gate).
func waitBusy(t *testing.T, f *Fleet, w int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if f.workers[w].busy.Load() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("worker %d never picked up its gate event", w)
}

// queue runs submit on a goroutine and returns once the submission is
// queued — a KDispatch record after the call's start is on the fleet's
// trace — so successive calls take the dispatch rotor and the inboxes in
// call order. The channel carries the submission's result. queue may run
// off the test goroutine.
func queue[R any](t *testing.T, f *Fleet, submit func() (R, error)) <-chan R {
	mark := f.Trace().Emitted()
	ch := make(chan R, 1)
	go func() {
		res, err := submit()
		if err != nil {
			t.Error(err)
		}
		ch <- res
	}()
	for i := 0; i < 10000; i++ {
		for _, r := range f.Trace().Since(mark) {
			if r.Kind == trace.KDispatch {
				return ch
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("submission never queued (no dispatch record after trace seq %d)", mark)
	return ch
}

func goDo(t *testing.T, f *Fleet, req Request) <-chan Result {
	return queue(t, f, func() (Result, error) { return f.Do(req) })
}

func goBatch(t *testing.T, f *Fleet, items []BatchItem) <-chan BatchResult {
	return queue(t, f, func() (BatchResult, error) { return f.DoBatch(items) })
}

// TestFleetSharesPatchesAcrossWorkers: the first worker to hit the overflow
// diagnoses it and publishes the padding patch to the shared pool; the same
// trigger on a different worker must then be absorbed without any failure —
// the paper's central-pool property ("protects other processes running the
// same program"), live.
func TestFleetSharesPatchesAcrossWorkers(t *testing.T) {
	f := New(func() app.Program { return &notesvc{} }, Config{
		Workers:  2,
		Dispatch: HashBySource,
	})
	srcA, srcB := srcForWorker(t, f, 0), srcForWorker(t, f, 1)

	// Warm both workers with clean traffic.
	for i := 0; i < 40; i++ {
		for _, src := range []string{srcA, srcB} {
			res, err := f.Do(note(fmt.Sprintf("note %d", i), src))
			if err != nil || res.Failed {
				t.Fatalf("clean note failed: %+v err=%v", res, err)
			}
		}
	}

	// First trigger: worker 0 fails, recovers, and patches the pool.
	res, err := f.Do(note(oversized, srcA))
	if err != nil {
		t.Fatal(err)
	}
	if res.Worker != 0 || !res.Failed || !res.Recovered {
		t.Fatalf("first trigger: %+v, want a recovered failure on worker 0", res)
	}
	if n := len(f.Pool().Active()); n == 0 {
		t.Fatal("recovery published no patch to the shared pool")
	}

	// Same trigger on worker 1: immunized by the pool, never fails.
	res, err = f.Do(note(oversized, srcB))
	if err != nil {
		t.Fatal(err)
	}
	if res.Worker != 1 || res.Failed {
		t.Fatalf("second trigger: %+v, want a clean result on worker 1", res)
	}

	st := f.Close()
	if st.Core.Failures != 1 || st.Core.Recoveries != 1 {
		t.Fatalf("fleet stats: %+v, want exactly one failure and one recovery", st.Core)
	}
	if st.ActivePatches == 0 {
		t.Fatalf("no active patches after close: %+v", st)
	}
}

// TestFleetBackpressureAndReroute drives the degradation rules directly: a
// gated worker with a full inbox re-routes round-robin traffic to its peer,
// and when every inbox is full the submitter blocks — and every accepted
// request still gets its result.
func TestFleetBackpressureAndReroute(t *testing.T) {
	gate := make(chan struct{})
	f := New(func() app.Program { return &notesvc{gate: gate} }, Config{
		Workers:    2,
		QueueDepth: 1,
		Dispatch:   RoundRobin,
	})

	var pending []<-chan Result
	submit := func(req Request) {
		t.Helper()
		pending = append(pending, goDo(t, f, req))
	}

	// Submission k (1-indexed) starts its round-robin sweep at worker
	// (k-1)%2. Park worker 0 on a gate and fill its one-slot inbox.
	submit(Request{Kind: "gate"}) // #1 → worker 0, parked
	waitBusy(t, f, 0)
	res, err := f.Do(note("clean", "")) // #2 → worker 1
	if err != nil || res.Failed {
		t.Fatalf("worker 1 note: %+v err=%v", res, err)
	}
	submit(note("queued", "")) // #3 → worker 0's inbox, now full

	// #4 starts at worker 1 (free). #5 starts at worker 0: full → must
	// re-route to worker 1.
	res, err = f.Do(note("clean", "")) // #4
	if err != nil {
		t.Fatal(err)
	}
	res, err = f.Do(note("rerouted", "")) // #5
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rerouted || res.Worker != 1 {
		t.Fatalf("expected re-route to worker 1, got %+v", res)
	}

	// Park worker 1 too, fill its inbox via re-route, then the next
	// submission finds every inbox full and must block (backpressure).
	submit(Request{Kind: "gate"}) // #6 → worker 1, parked
	waitBusy(t, f, 1)
	submit(note("queued", "")) // #7 → worker 0 full → re-routed into worker 1's inbox

	blockedDone := make(chan struct{})
	go func() {
		defer close(blockedDone)
		submit(note("blocked", "")) // #8: both inboxes full → blocks
	}()
	for i := 0; i < 2000 && f.met.blocked.Value() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := f.met.blocked.Value(); got == 0 {
		t.Fatal("submission with every inbox full did not register as blocked")
	}
	select {
	case <-blockedDone:
		t.Fatal("blocked submission completed while every inbox was full")
	case <-time.After(20 * time.Millisecond):
	}

	// Release the gates: everything drains, nothing was dropped.
	close(gate)
	<-blockedDone
	for i, ch := range pending {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never completed", i)
		}
	}
	st := f.Close()
	if st.Requests != 8 {
		t.Fatalf("fleet completed %d of 8 requests", st.Requests)
	}
	if st.Rerouted == 0 || st.Blocked == 0 {
		t.Fatalf("degradation counters: rerouted=%d blocked=%d, want both > 0", st.Rerouted, st.Blocked)
	}
	if st.Core.Failures != 0 {
		t.Fatalf("clean traffic failed: %+v", st.Core)
	}
}

// TestFleetSkipsPoisonEventAndKeepsServing: an event that fails under every
// environmental change exhausts diagnosis and retries inside one submission,
// comes back Skipped, and the worker keeps serving the traffic behind it.
func TestFleetSkipsPoisonEventAndKeepsServing(t *testing.T) {
	f := New(func() app.Program { return &notesvc{} }, Config{
		Workers:  1,
		Dispatch: HashBySource,
	})
	for i := 0; i < 30; i++ {
		if res, err := f.Do(note(fmt.Sprintf("note %d", i), "c0")); err != nil || res.Failed {
			t.Fatalf("warmup note: %+v err=%v", res, err)
		}
	}
	res, err := f.Do(Request{Kind: "poison", Src: "c0"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || !res.Skipped || res.Recovered {
		t.Fatalf("poison event: %+v, want failed+skipped", res)
	}
	// The fleet is still serviceable afterwards.
	res, err = f.Do(note("after the storm", "c0"))
	if err != nil || res.Failed {
		t.Fatalf("note after skip: %+v err=%v", res, err)
	}
	st := f.Close()
	if st.Core.Skipped != 1 {
		t.Fatalf("stats: %+v, want exactly one skip", st.Core)
	}
}

// TestFleetRecordReplayEquivalence: every worker's recorded log must re-run
// through a fresh offline supervisor (fresh pool, fresh machine) with the
// same outcomes the worker produced live — the fleet-level statement of the
// network-input-recorder property.
func TestFleetRecordReplayEquivalence(t *testing.T) {
	f := New(func() app.Program { return &notesvc{} }, Config{
		Workers:  1,
		Dispatch: HashBySource,
	})
	feed := (&notesvc{}).Workload(250, []int{80, 160})
	for {
		ev, ok := feed.Next()
		if !ok {
			break
		}
		if _, err := f.Do(Request{Kind: ev.Kind, Data: ev.Data, N: ev.N, Src: "c0"}); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Close()
	live := st.PerWorker[0]
	if live.Failures == 0 {
		t.Fatalf("live run never failed: %+v", live)
	}

	recorded := f.RecordedLog(0)
	if recorded.Len() != feed.Len() {
		t.Fatalf("recorded %d of %d events", recorded.Len(), feed.Len())
	}
	rep := core.NewSupervisor(&notesvc{}, recorded, core.Config{})
	repStats := rep.Run()

	// Outcome counters must match exactly. Simulated elapsed time may not:
	// offline recovery re-executes events past the failure point that had
	// not arrived yet when the live worker recovered.
	liveCmp, repCmp := live, repStats
	liveCmp.SimSeconds, repCmp.SimSeconds = 0, 0
	if liveCmp != repCmp {
		t.Fatalf("offline replay diverged from live serving:\nlive:   %+v\nreplay: %+v", live, repStats)
	}
}

// TestFleetClosedRejectsSubmissions: submissions after Close fail fast with
// ErrClosed instead of panicking on a closed inbox.
func TestFleetClosedRejectsSubmissions(t *testing.T) {
	f := New(func() app.Program { return &notesvc{} }, Config{Workers: 1})
	if _, err := f.Do(note("hello", "c0")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Do(note("too late", "c0")); err != ErrClosed {
		t.Fatalf("post-close submission: err=%v, want ErrClosed", err)
	}
	// Close is idempotent and stable.
	if st := f.Close(); st.Requests != 1 {
		t.Fatalf("second Close changed stats: %+v", st)
	}
}

// TestMixedTrafficKeepsSourceOrder: JSON events and batches from one
// source share one inbox, so the worker records them in the order the
// fleet accepted them — the order the network input recorder must keep
// for a failure to replay.
func TestMixedTrafficKeepsSourceOrder(t *testing.T) {
	gate := make(chan struct{})
	f := New(func() app.Program { return &notesvc{gate: gate} }, Config{
		Workers:  1,
		Dispatch: HashBySource,
	})
	release := sync.OnceFunc(func() { close(gate) })
	defer func() {
		release()
		f.Close()
	}()
	parked := goDo(t, f, Request{Kind: "gate", Src: "c0"})
	waitBusy(t, f, 0)

	want := []string{""} // the gate event
	var events []<-chan Result
	var batches []<-chan BatchResult
	for i := 0; i < 20; i++ {
		data := fmt.Sprintf("json %d", i)
		events = append(events, goDo(t, f, note(data, "c0")))
		want = append(want, data)
		items := []BatchItem{
			{Kind: []byte("note"), Data: []byte(fmt.Sprintf("batch %d a", i)), Src: []byte("c0")},
			{Kind: []byte("note"), Data: []byte(fmt.Sprintf("batch %d b", i)), Src: []byte("c0")},
		}
		batches = append(batches, goBatch(t, f, items))
		want = append(want, string(items[0].Data), string(items[1].Data))
	}
	release()
	<-parked
	for _, ch := range events {
		if res := <-ch; res.Failed {
			t.Fatalf("note failed: %+v", res)
		}
	}
	for _, ch := range batches {
		if res := <-ch; res.Failures != 0 {
			t.Fatalf("batch failed: %+v", res)
		}
	}
	f.Close()

	log := f.RecordedLog(0)
	var got []string
	for ev, ok := log.Next(); ok; ev, ok = log.Next() {
		got = append(got, ev.Data)
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("worker recorded\n  %q\nwant dispatch order\n  %q", got, want)
	}
}
