package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestEmitSnapshotOrder(t *testing.T) {
	tr := New(1024)
	em := tr.Emitter(3, func() uint64 { return 77 })
	for i := 0; i < 100; i++ {
		em.Emit(KMalloc, uint64(i), uint64(i*2))
	}
	recs := tr.Snapshot()
	if len(recs) != 100 {
		t.Fatalf("Snapshot returned %d records, want 100", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has Seq %d; snapshot not in global order", i, r.Seq)
		}
		if r.Kind != KMalloc || r.Worker != 3 || r.Cycles != 77 {
			t.Fatalf("record %d = %+v, want KMalloc on worker 3 at cycle 77", i, r)
		}
		if r.Arg1 != uint64(i) || r.Arg2 != uint64(i*2) {
			t.Fatalf("record %d args = (%d, %d), want (%d, %d)", i, r.Arg1, r.Arg2, i, i*2)
		}
	}
	if got := tr.Emitted(); got != 100 {
		t.Fatalf("Emitted() = %d, want 100", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d, want 0 before wraparound", got)
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *Tracer
	em := tr.Emitter(0, nil)
	if em.Enabled() {
		t.Fatal("zero Emitter reports Enabled")
	}
	em.Emit(KMalloc, 1, 2) // must not panic
	if tr.Emitted() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer reports nonzero counts")
	}
	if recs := tr.Snapshot(); recs != nil {
		t.Fatalf("nil tracer Snapshot = %v, want nil", recs)
	}
	if recs := tr.Since(0); recs != nil {
		t.Fatalf("nil tracer Since = %v, want nil", recs)
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	tr := New(16) // 2 records per shard
	em := tr.Emitter(0, nil)
	const total = 40
	for i := 0; i < total; i++ {
		em.Emit(KFree, uint64(i), 0)
	}
	recs := tr.Snapshot()
	if len(recs) != 16 {
		t.Fatalf("retained %d records, want 16", len(recs))
	}
	// Sequence numbers round-robin across shards, so the retained set is
	// exactly the newest 16 records.
	for i, r := range recs {
		if want := uint64(total - 16 + i); r.Seq != want {
			t.Fatalf("retained record %d has Seq %d, want %d", i, r.Seq, want)
		}
	}
	if got := tr.Dropped(); got != total-16 {
		t.Fatalf("Dropped() = %d, want %d", got, total-16)
	}
	if got := tr.Emitted(); got != total {
		t.Fatalf("Emitted() = %d, want %d", got, total)
	}
}

func TestSinceCursor(t *testing.T) {
	tr := New(1024)
	em := tr.Emitter(0, nil)
	for i := 0; i < 20; i++ {
		em.Emit(KTrap, uint64(i), 0)
	}
	recs := tr.Since(15)
	if len(recs) != 5 {
		t.Fatalf("Since(15) returned %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if want := uint64(15 + i); r.Seq != want {
			t.Fatalf("Since record %d has Seq %d, want %d", i, r.Seq, want)
		}
	}
	if recs := tr.Since(tr.Emitted()); len(recs) != 0 {
		t.Fatalf("Since(tail) returned %d records, want 0", len(recs))
	}
}

func TestEmitterTrackAndClock(t *testing.T) {
	tr := New(64)
	em := tr.Emitter(2, func() uint64 { return 10 })
	em2 := em.WithTrack(5).WithClock(func() uint64 { return 99 })
	em.Emit(KSnapshot, 1, 0)
	em2.Emit(KRestore, 2, 0)
	recs := tr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Worker != 2 || recs[0].Cycles != 10 {
		t.Fatalf("base emitter wrote %+v", recs[0])
	}
	if recs[1].Worker != 5 || recs[1].Cycles != 99 {
		t.Fatalf("derived emitter wrote %+v", recs[1])
	}
	if em.Worker() != 2 || em2.Worker() != 5 {
		t.Fatal("Worker() mismatch")
	}
	if em.Tracer() != tr {
		t.Fatal("Tracer() lost the ring")
	}
}

func TestConcurrentEmitAndRead(t *testing.T) {
	tr := New(256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			em := tr.Emitter(w, nil)
			for i := 0; i < 500; i++ {
				em.Emit(KMalloc, uint64(i), 8)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Snapshot()
			tr.Since(tr.Emitted() / 2)
			tr.Dropped()
		}
	}()
	wg.Wait()
	<-done
	if got := tr.Emitted(); got != 2000 {
		t.Fatalf("Emitted() = %d, want 2000", got)
	}
	recs := tr.Snapshot()
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d after %d", i, recs[i].Seq, recs[i-1].Seq)
		}
	}
}

func TestTrackNames(t *testing.T) {
	cases := []struct {
		worker int
		want   string
	}{
		{0, "worker-0"},
		{7, "worker-7"},
		{FleetTrack, "fleet"},
		{ValidationTrack(3, 0), "worker-3/validation-0"},
		{ValidationTrack(3, 2), "worker-3/validation-2"},
	}
	for _, c := range cases {
		if got := TrackName(uint16(c.worker)); got != c.want {
			t.Errorf("TrackName(%#x) = %q, want %q", c.worker, got, c.want)
		}
	}
	// Concurrent clones of the same worker must land on distinct tracks.
	if ValidationTrack(3, 0) == ValidationTrack(3, 1) {
		t.Error("validation clones of one worker share a track")
	}
	if ValidationTrack(2, 0) == ValidationTrack(3, 0) {
		t.Error("validation clones of different workers share a track")
	}
}

func TestFileRoundTrip(t *testing.T) {
	tr := New(64)
	em := tr.Emitter(1, func() uint64 { return 42 })
	em.Emit(KMalloc, 5, 128)
	em.Emit(KPhaseBegin, PhaseRecovery, 10)
	em.Emit(KPhaseEnd, PhaseRecovery, 3)
	want := tr.Snapshot()

	path := filepath.Join(t.TempDir(), "round.trace")
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadTruncatedFile(t *testing.T) {
	recs := []Record{
		{Seq: 0, Kind: KMalloc, Arg1: 1, Arg2: 64},
		{Seq: 1, Kind: KFree, Arg1: 1},
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// Chop the file mid-way through the second record, as a crash would.
	cut := buf.Bytes()[:buf.Len()-20]
	got, err := Read(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("Read of truncated trace: %v", err)
	}
	if len(got) != 1 || got[0] != recs[0] {
		t.Fatalf("truncated read = %+v, want just the first record", got)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("NOTATRACEFILE-----------"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrBadTraceFile) {
		t.Fatalf("ReadFile(garbage) error = %v, want ErrBadTraceFile", err)
	}
	if _, err := Read(bytes.NewReader([]byte("short"))); !errors.Is(err, ErrBadTraceFile) {
		t.Fatalf("Read(short) error = %v, want ErrBadTraceFile", err)
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Seq: 0, Worker: 1, Cycles: 100, WallNS: 1000, Kind: KPhaseBegin, Arg1: PhaseRecovery, Arg2: 7},
		{Seq: 1, Worker: 1, Cycles: 110, WallNS: 1100, Kind: KMalloc, Arg1: 9, Arg2: 64},
		{Seq: 2, Worker: 1, Cycles: 120, WallNS: 1200, Kind: KMalloc, Arg1: 9, Arg2: 32},
		{Seq: 3, Worker: 1, Cycles: 130, WallNS: 1300, Kind: KMalloc, Arg1: 4, Arg2: 512},
		{Seq: 4, Worker: 1, Cycles: 400, WallNS: 4000, Kind: KPhaseEnd, Arg1: PhaseRecovery, Arg2: 2},
		// A phase still open at dump time on another track.
		{Seq: 5, Worker: 2, Cycles: 50, WallNS: 5000, Kind: KPhaseBegin, Arg1: PhaseValidation, Arg2: 7},
	}
	s := Summarize(recs)
	if s.Records != 6 || s.Workers != 2 {
		t.Fatalf("records/workers = %d/%d, want 6/2", s.Records, s.Workers)
	}
	if s.SpanNS != 4000 {
		t.Fatalf("SpanNS = %d, want 4000", s.SpanNS)
	}
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %+v, want recovery + validation", s.Phases)
	}
	rec := s.Phases[0]
	if rec.Name != "recovery" || rec.Count != 1 || rec.Cycles != 300 || rec.WallNS != 3000 || rec.WorkDone != 2 {
		t.Fatalf("recovery phase = %+v", rec)
	}
	val := s.Phases[1]
	if val.Name != "validation" || val.Count != 0 || val.Open != 1 {
		t.Fatalf("open validation phase = %+v", val)
	}
	if len(s.TopSites) != 2 || s.TopSites[0].Site != 4 || s.TopSites[0].Bytes != 512 {
		t.Fatalf("TopSites = %+v, want site 4 first by bytes", s.TopSites)
	}
	if s.TopSites[1].Site != 9 || s.TopSites[1].Count != 2 || s.TopSites[1].Bytes != 96 {
		t.Fatalf("TopSites[1] = %+v", s.TopSites[1])
	}
	if s.Kinds["malloc"] != 3 || s.Kinds["phase-begin"] != 2 {
		t.Fatalf("Kinds = %+v", s.Kinds)
	}

	var out bytes.Buffer
	if err := s.Format(&out, 10); err != nil {
		t.Fatalf("Format: %v", err)
	}
	for _, want := range []string{"per-phase breakdown", "recovery", "top 2 call-sites", "records by kind"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("Format output missing %q:\n%s", want, out.String())
		}
	}
}

func TestTrackBelongsTo(t *testing.T) {
	cases := []struct {
		track  uint16
		worker int
		want   bool
	}{
		{0, 0, true},
		{3, 3, true},
		{3, 2, false},
		{FleetTrack, 0, false},
		{uint16(GuardTrack(5)), 5, true},
		{uint16(GuardTrack(5)), 4, false},
		{uint16(ValidationTrack(2, 0)), 2, true},
		{uint16(ValidationTrack(2, 7)), 2, true},
		{uint16(ValidationTrack(2, 7)), 3, false},
		// Worker 16 sets bit 4, so its validation track also carries
		// GuardTrackBit in the packed field — the validation test must win.
		{uint16(ValidationTrack(16, 0)), 16, true},
		{uint16(ValidationTrack(16, 0)), 0, false},
	}
	for _, c := range cases {
		if got := TrackBelongsTo(c.track, c.worker); got != c.want {
			t.Errorf("TrackBelongsTo(%#x, %d) = %v, want %v", c.track, c.worker, got, c.want)
		}
	}
}

// TestKindNumbersAreStable: trace files store kinds by number, so retiring
// a kind must leave every later number in place, and a retired number
// renders as a bare kind rather than a live name.
func TestKindNumbersAreStable(t *testing.T) {
	for k, want := range map[Kind]Kind{KPatchValidate: 17, KDispatch: 20, KSpecCancel: 26, KBatchBegin: 27, KBatchEnd: 28} {
		if k != want {
			t.Errorf("%s = %d, want %d", k, k, want)
		}
	}
	for _, retired := range []Kind{18, 19} {
		if got, want := retired.String(), "kind-"+formatUint(uint64(retired)); got != want {
			t.Errorf("retired kind %d renders as %q, want %q", retired, got, want)
		}
	}
}
