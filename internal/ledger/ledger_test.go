package ledger

import (
	"bytes"
	"reflect"
	"testing"

	"firstaid/internal/trace"
)

func testLedger(cap int) *Ledger {
	l := New(cap)
	var tick int64
	l.now = func() int64 { tick++; return tick }
	return l
}

func TestLifecycle(t *testing.T) {
	l := testLedger(8)
	e := l.Begin(Meta{Source: "apache", Worker: 2, Mode: "sync", Event: 41, Cycles: 1000, TraceFrom: 7})
	if e.ID() != 1 {
		t.Fatalf("first ID = %d, want 1", e.ID())
	}
	d, ok := l.Get(1)
	if !ok || d.Phase != PhasePending {
		t.Fatalf("after Begin: %+v ok=%v, want Pending", d, ok)
	}

	e.Add(Condition{Type: FaultObserved, Clock: 990, Fault: &FaultInfo{Kind: "access violation", Event: 41, Clock: 990}})
	e.Run()
	e.Add(Condition{
		Type:  CheckpointSelected,
		Clock: 800,
		Candidates: []CandidateInfo{
			{CheckpointInfo: CheckpointInfo{Seq: 5, Clock: 950}, Rejected: "heap-marking canaries corrupted"},
			{CheckpointInfo: CheckpointInfo{Seq: 4, Clock: 800}},
		},
		Checkpoint: &CheckpointInfo{Seq: 4, Clock: 800, Cursor: 30},
	})
	e.Update(func(d *Diagnosis) { d.Rollbacks = 3 })
	e.Close(true, "recovered", 2000, 19)

	d, _ = l.Get(1)
	if d.Phase != PhaseSucceeded || d.Outcome != "recovered" || !d.Done() {
		t.Fatalf("terminal state: phase=%s outcome=%s", d.Phase, d.Outcome)
	}
	if d.Rollbacks != 3 || d.TraceTo != 19 || d.EndCycles != 2000 {
		t.Fatalf("closing fields: %+v", d)
	}
	if c := d.Cond(CheckpointSelected); c == nil || c.Checkpoint.Seq != 4 || len(c.Candidates) != 2 {
		t.Fatalf("CheckpointSelected condition: %+v", c)
	}
	if c := d.Cond(GuardEvidence); c != nil {
		t.Fatalf("unexpected GuardEvidence condition")
	}
	for _, c := range d.Conditions {
		if c.WallNS == 0 {
			t.Fatalf("condition %s missing wall stamp", c.Type)
		}
	}

	// Pending → Running → Succeeded = three transitions.
	trs := l.TransitionsSince(0)
	if len(trs) != 3 {
		t.Fatalf("transitions = %d, want 3", len(trs))
	}
	wantPhases := []Phase{PhasePending, PhaseRunning, PhaseSucceeded}
	for i, tr := range trs {
		if tr.Phase != wantPhases[i] || tr.ID != 1 || tr.Seq != uint64(i) {
			t.Fatalf("transition %d = %+v", i, tr)
		}
	}
	if got := l.TransitionsSince(2); len(got) != 1 || got[0].Phase != PhaseSucceeded {
		t.Fatalf("TransitionsSince(2) = %+v", got)
	}
	if l.TransitionsEmitted() != 3 {
		t.Fatalf("TransitionsEmitted = %d", l.TransitionsEmitted())
	}
}

func TestRingEvictionAndIDs(t *testing.T) {
	l := testLedger(4)
	for i := 0; i < 10; i++ {
		e := l.Begin(Meta{Source: "s", Event: i})
		e.Close(true, "recovered", 0, 0)
	}
	if l.Len() != 4 || l.Dropped() != 6 || l.LastID() != 10 {
		t.Fatalf("len=%d dropped=%d last=%d", l.Len(), l.Dropped(), l.LastID())
	}
	if _, ok := l.Get(3); ok {
		t.Fatalf("evicted diagnosis still retrievable")
	}
	ds := l.List(Filter{Worker: AnyWorker})
	if len(ds) != 4 || ds[0].ID != 7 || ds[3].ID != 10 {
		t.Fatalf("List after eviction: %d entries, first=%d", len(ds), ds[0].ID)
	}
}

func TestListFiltersAndInFlight(t *testing.T) {
	l := testLedger(16)
	a := l.Begin(Meta{Source: "apache", Worker: 0})
	a.Close(true, "recovered", 0, 0)
	b := l.Begin(Meta{Source: "chaos", Worker: 1})
	b.Run()
	c := l.Begin(Meta{Source: "chaos", Worker: 1})
	c.Close(false, "skipped", 0, 0)

	if got := l.List(Filter{Source: "chaos", Worker: AnyWorker}); len(got) != 2 {
		t.Fatalf("source filter: %d", len(got))
	}
	if got := l.List(Filter{Phase: PhaseFailed, Worker: AnyWorker}); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("phase filter: %+v", got)
	}
	if got := l.List(Filter{Worker: 0}); len(got) != 1 || got[0].Source != "apache" {
		t.Fatalf("worker filter: %+v", got)
	}
	if n := l.InFlight(AnyWorker); n != 1 {
		t.Fatalf("InFlight(any) = %d", n)
	}
	if n := l.InFlight(1); n != 1 {
		t.Fatalf("InFlight(1) = %d", n)
	}
	if n := l.InFlight(0); n != 0 {
		t.Fatalf("InFlight(0) = %d", n)
	}
}

func TestGetReturnsDeepCopy(t *testing.T) {
	l := testLedger(4)
	e := l.Begin(Meta{Source: "s"})
	e.Add(Condition{Type: FaultObserved, Fault: &FaultInfo{Kind: "x"}, Candidates: []CandidateInfo{{}}})
	d1, _ := l.Get(1)
	d1.Conditions[0].Fault.Kind = "mutated"
	d1.Conditions[0].Candidates[0].Rejected = "mutated"
	d2, _ := l.Get(1)
	if d2.Conditions[0].Fault.Kind != "x" || d2.Conditions[0].Candidates[0].Rejected != "" {
		t.Fatalf("Get returned shared state: %+v", d2.Conditions[0])
	}
}

func TestNilLedgerIsInert(t *testing.T) {
	var l *Ledger
	e := l.Begin(Meta{Source: "s"})
	if e != nil {
		t.Fatalf("nil ledger Begin = %v", e)
	}
	// All of these must be no-ops, not panics.
	e.Add(Condition{Type: FaultObserved})
	e.Run()
	e.Update(func(*Diagnosis) { t.Fatal("Update fn called on nil entry") })
	e.Close(true, "recovered", 0, 0)
	if e.ID() != 0 || e.Snapshot() != nil {
		t.Fatalf("nil entry leaked state")
	}
	if l.Len() != 0 || l.Dropped() != 0 || l.InFlight(AnyWorker) != 0 || l.LastID() != 0 {
		t.Fatalf("nil ledger reported state")
	}
	if l.List(Filter{}) != nil || l.TransitionsSince(0) != nil || l.TransitionsEmitted() != 0 {
		t.Fatalf("nil ledger returned data")
	}
	if _, ok := l.Get(1); ok {
		t.Fatalf("nil ledger Get ok")
	}
}

func TestTransitionRingEviction(t *testing.T) {
	l := testLedger(2) // transition cap = 8
	for i := 0; i < 5; i++ {
		e := l.Begin(Meta{})
		e.Close(true, "recovered", 0, 0) // 2 transitions each
	}
	if l.TransitionsDropped() != 2 {
		t.Fatalf("transitions dropped = %d, want 2", l.TransitionsDropped())
	}
	trs := l.TransitionsSince(0)
	if len(trs) != 8 || trs[0].Seq != 2 {
		t.Fatalf("retained %d transitions, first seq %d", len(trs), trs[0].Seq)
	}
	// Resuming below the retained window clamps to the oldest record.
	if got := l.TransitionsSince(1); len(got) != 8 {
		t.Fatalf("clamped resume: %d", len(got))
	}
	if got := l.TransitionsSince(99); got != nil {
		t.Fatalf("future cursor returned %d records", len(got))
	}
}

func TestCanonicalExcludesModeVaryingFields(t *testing.T) {
	build := func(mode string, worker int, cycles uint64, wall int64) *Diagnosis {
		l := New(4)
		l.now = func() int64 { return wall }
		e := l.Begin(Meta{Source: "chaos", Worker: worker, Mode: mode, Event: 9, Cycles: cycles, TraceFrom: cycles})
		e.Add(Condition{Type: FaultObserved, Clock: 500, Cycles: cycles, Fault: &FaultInfo{Kind: "access violation", Event: 9, Clock: 500}})
		e.Run()
		e.Add(Condition{Type: PatchGenerated, Clock: 500, Cycles: cycles * 2, Patches: []PatchInfo{{ID: 1, Bug: "buffer overflow", Site: "a<b<c", AtAlloc: true}}})
		e.Update(func(d *Diagnosis) {
			d.Repro = "firstaid-run -chaos-mode " + mode
			d.RecoverySec = float64(wall)
		})
		e.Close(true, "recovered", cycles*3, cycles)
		d, _ := l.Get(1)
		return d
	}

	a := build("sync", 0, 1000, 11)
	b := build("parallel", 3, 9999, 77)
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical forms differ across modes:\n%s\nvs\n%s", ca, cb)
	}
	for _, banned := range []string{"wallNs", "cycles", "mode", "repro", "worker", "recoverySec", "traceFrom"} {
		if bytes.Contains(ca, []byte(banned)) {
			t.Fatalf("canonical form leaks %q:\n%s", banned, ca)
		}
	}
}

// TestPhaseTracesAndRecordsOnce pins Entry.Phase: one call emits the
// phase's trace begin/end pair and appends one path step carrying the
// end record's count and the wall the closer returned; a nil entry still
// traces and times; and the path stays out of the canonical projection.
func TestPhaseTracesAndRecordsOnce(t *testing.T) {
	trc := trace.New(64)
	em := trc.Emitter(0, nil)
	l := testLedger(4)
	e := l.Begin(Meta{Source: "apache", Event: 7})
	wall := e.Phase(em, trace.PhaseDiag1, 40)(5, "checkpoint found")
	e.Phase(em, trace.PhaseRollback, 3)(1, "")
	var none *Entry
	none.Phase(em, trace.PhaseValidation, 7)(3, "consistent")

	type rec struct {
		kind       trace.Kind
		arg1, arg2 uint64
	}
	var got []rec
	for _, r := range trc.Snapshot() {
		got = append(got, rec{r.Kind, r.Arg1, r.Arg2})
	}
	want := []rec{
		{trace.KPhaseBegin, trace.PhaseDiag1, 40}, {trace.KPhaseEnd, trace.PhaseDiag1, 5},
		{trace.KPhaseBegin, trace.PhaseRollback, 3}, {trace.KPhaseEnd, trace.PhaseRollback, 1},
		{trace.KPhaseBegin, trace.PhaseValidation, 7}, {trace.KPhaseEnd, trace.PhaseValidation, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace records %+v, want %+v", got, want)
	}

	path := e.Snapshot().Path
	if len(path) != 2 || path[0] != (Step{Name: "phase1", WallNS: wall.Nanoseconds(), N: 5, Outcome: "checkpoint found"}) ||
		path[1].Name != "rollback" || path[1].N != 1 {
		t.Fatalf("path = %+v", path)
	}

	c1, err := e.Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	e.Update(func(d *Diagnosis) { d.Path[0].WallNS++ })
	c2, _ := e.Snapshot().Canonical()
	if !bytes.Equal(c1, c2) || bytes.Contains(c1, []byte("path")) {
		t.Fatalf("canonical projection depends on the path:\n%s", c1)
	}
}
