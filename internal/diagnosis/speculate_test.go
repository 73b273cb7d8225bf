package diagnosis_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"firstaid/internal/allocext"
	"firstaid/internal/callsite"
	"firstaid/internal/checkpoint"
	"firstaid/internal/diagnosis"
	"firstaid/internal/mmbug"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
)

// fakeProbe implements diagnosis.ProbeMachine: a scripted outcome, optionally
// hanging mid-re-execute until the cancel flag trips — the shape of a
// losing hypothesis torn down by CancelAll.
type fakeProbe struct {
	sites   *callsite.Table
	out     diagnosis.Outcome
	hang    bool
	markErr error
	tel     *telemetry.Registry

	cancel   *atomic.Bool
	marked   atomic.Bool
	released int // written on the supervisor goroutine, after the probe finished
}

func (p *fakeProbe) MarkHeap() error {
	p.marked.Store(true)
	return p.markErr
}

func (p *fakeProbe) ReExecute(cs *allocext.ChangeSet, until int) diagnosis.Outcome {
	if p.hang {
		for !p.cancel.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		return diagnosis.Outcome{Interrupted: true}
	}
	return p.out
}

func (p *fakeProbe) SiteKey(id callsite.ID) callsite.Key { return p.sites.Key(id) }
func (p *fakeProbe) SetCancel(c *atomic.Bool)            { p.cancel = c }
func (p *fakeProbe) Telemetry() *telemetry.Registry      { return p.tel }
func (p *fakeProbe) Release()                            { p.released++ }

// fakeSource implements diagnosis.CloneSource over a queue of fake probes.
type fakeSource struct {
	t     *testing.T
	sites *callsite.Table

	standby   *fakeProbe
	standbyCp *checkpoint.Checkpoint

	queue  []*fakeProbe
	rolled []*checkpoint.Checkpoint
}

func (s *fakeSource) Rollback(cp *checkpoint.Checkpoint) { s.rolled = append(s.rolled, cp) }

func (s *fakeSource) SpawnProbe() diagnosis.ProbeMachine {
	if len(s.queue) == 0 {
		s.t.Fatal("SpawnProbe called with an empty queue")
	}
	p := s.queue[0]
	s.queue = s.queue[1:]
	return p
}

func (s *fakeSource) TakeStandby(cp *checkpoint.Checkpoint) diagnosis.ProbeMachine {
	if s.standby == nil || s.standbyCp != cp {
		return nil
	}
	sb := s.standby
	s.standby, s.standbyCp = nil, nil
	return sb
}

func (s *fakeSource) InternSite(k callsite.Key) callsite.ID { return s.sites.Intern(k) }

// TestSpeculatorRace pins the speculation commit protocol against fakes:
// the standby clone serves the first matching launch, other launches
// roll back and clone, a consumed outcome arrives with its call-sites
// translated into the source table, a hanging loser is torn down by
// CancelAll, every finished clone is released once, and the accounting
// (stats, counters, active gauge, in-flight set) balances to zero.
func TestSpeculatorRace(t *testing.T) {
	cps := ladder(0, 1, 2)
	probeSites := callsite.NewTable()
	probeSite := probeSites.Intern(callsite.Key{"leaf", "mid", "outer"})

	winner := &fakeProbe{
		sites: probeSites,
		out: diagnosis.Outcome{Manifests: manifests(allocext.Manifestation{
			Bug: mmbug.DoubleFree, FreeSite: probeSite,
		})},
		markErr: errors.New("mark failed on clone"),
	}
	loser := &fakeProbe{sites: probeSites, hang: true}
	standby := &fakeProbe{sites: probeSites, out: diagnosis.Outcome{}}

	src := &fakeSource{
		t:     t,
		sites: callsite.NewTable(),
		// The standby was pre-warmed at the newest checkpoint.
		standby: standby, standbyCp: cps[2],
		queue: []*fakeProbe{winner, loser},
	}
	tel := telemetry.NewRegistry()
	sp := diagnosis.NewSpeculator(src, tel, trace.Emitter{})

	reqs := []*diagnosis.ProbeReq{
		{Ckpt: cps[2], Until: 40, Mark: true}, // served by the standby
		{Ckpt: cps[1], Until: 40, Mark: true}, // winner
		{Ckpt: cps[0], Until: 40},             // loser, cancelled mid-re-execute
	}
	sp.Prefetch(reqs)
	if sp.InFlight() != 3 {
		t.Fatalf("in-flight %d, want 3", sp.InFlight())
	}
	if len(src.rolled) != 2 || src.rolled[0] != cps[1] || src.rolled[1] != cps[0] {
		t.Fatalf("rollbacks %v: the standby launch must not roll the source back", src.rolled)
	}

	// A request the speculator never saw is a miss, not a hang.
	if _, ok := sp.Take(&diagnosis.ProbeReq{Ckpt: cps[0]}); ok {
		t.Fatal("Take succeeded for a request that was never prefetched")
	}

	// Consume the winner: marked on the clone goroutine, mark error
	// surfaced, evidence translated into the source table.
	pr, ok := sp.Take(reqs[1])
	if !ok {
		t.Fatal("Take missed a prefetched request")
	}
	if !winner.marked.Load() || pr.MarkErr == nil {
		t.Fatalf("marked=%v markErr=%v, want heap marking run on the clone and its error surfaced",
			winner.marked.Load(), pr.MarkErr)
	}
	got := pr.Out.Manifests.All[0].FreeSite
	if want := src.sites.Lookup(callsite.Key{"leaf", "mid", "outer"}); got != want || got == 0 {
		t.Fatalf("translated free site %v, want %v interned in the source table", got, want)
	}

	sp.CancelAll()
	if sp.InFlight() != 0 {
		t.Fatalf("in-flight %d after CancelAll, want 0", sp.InFlight())
	}
	if !standby.marked.Load() {
		t.Fatal("standby hypothesis never ran its heap marking")
	}
	// Every finished clone, consumed or cancelled, hands its memory back
	// exactly once.
	for name, p := range map[string]*fakeProbe{"standby": standby, "winner": winner, "loser": loser} {
		if p.released != 1 {
			t.Fatalf("%s probe released %d times, want 1", name, p.released)
		}
	}

	st := sp.Episode()
	want := diagnosis.SpecStats{Launched: 3, Won: 1, Cancelled: 2, StandbyHits: 1}
	if st != want {
		t.Fatalf("episode stats %+v, want %+v", st, want)
	}
	if next := sp.Episode(); next != (diagnosis.SpecStats{}) {
		t.Fatalf("episode stats not reset: %+v", next)
	}
	if tot := sp.Totals(); tot != want {
		t.Fatalf("totals %+v, want %+v", tot, want)
	}

	for name, want := range map[string]uint64{
		"spec.launched": 3, "spec.won": 1, "spec.cancelled": 2, "spec.standby_hits": 1,
	} {
		if got := tel.Counter(name).Value(); got != want {
			t.Fatalf("counter %s = %d, want %d", name, got, want)
		}
	}
	if g := tel.Gauge("spec.active").Value(); g != 0 {
		t.Fatalf("spec.active gauge %d after CancelAll, want 0", g)
	}
}
