package diagnosis

import (
	"sync/atomic"

	"firstaid/internal/allocext"
	"firstaid/internal/callsite"
	"firstaid/internal/checkpoint"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
)

// ProbeMachine is a cloned machine a speculative hypothesis runs on. Its
// methods are called from the hypothesis goroutine only, except SetCancel
// (before launch) and SiteKey/Telemetry/Release (after the goroutine has
// finished).
type ProbeMachine interface {
	MarkHeap() error
	ReExecute(cs *allocext.ChangeSet, until int) Outcome
	SiteKey(id callsite.ID) callsite.Key
	SetCancel(c *atomic.Bool)
	Telemetry() *telemetry.Registry
	// Release hands the clone's shared memory back to the source machine;
	// SiteKey keeps working afterwards.
	Release()
}

// CloneSource mints probe machines for the Speculator. All methods are
// called on the supervisor goroutine.
type CloneSource interface {
	// Rollback reinstates cp on the source machine, so the next SpawnProbe
	// clones exactly the checkpoint state (cloning a rollback is the COW
	// dual of rolling back a clone).
	Rollback(cp *checkpoint.Checkpoint)
	// SpawnProbe clones the source machine as it stands.
	SpawnProbe() ProbeMachine
	// TakeStandby surrenders the pre-warmed standby clone if it was taken
	// at exactly cp, bringing its replay log level with the source first.
	// Returns nil when no matching standby exists; the standby is consumed
	// either way only on a match.
	TakeStandby(cp *checkpoint.Checkpoint) ProbeMachine
	// InternSite maps a clone-rendered call-site key into the source
	// machine's interning table, translating probe evidence into IDs the
	// engine can use.
	InternSite(k callsite.Key) callsite.ID
}

// SpecStats summarizes one recovery's speculative execution.
type SpecStats struct {
	Launched    int // hypotheses started on clones
	Won         int // outcomes the engine consumed
	Cancelled   int // losers torn down by CancelAll
	StandbyHits int // launches served by the pre-warmed standby clone
}

// hypothesis is one racing probe: a clone re-executing a prefetched
// request on its own goroutine.
type hypothesis struct {
	seq     uint64
	req     *ProbeReq
	pm      ProbeMachine
	standby bool
	cancel  atomic.Bool
	done    chan struct{}

	// Written by the hypothesis goroutine before done closes; read only
	// after <-done.
	out     Outcome
	markErr error
}

// Speculator implements Prober by racing prefetched probes on COW clones
// of a source machine. The engine still consumes outcomes strictly in
// serial program order, so speculation changes wall-clock time, never
// verdicts: every consumed outcome advances the same logs, ledger
// conditions and rollback budget the serial re-execution would have. All
// Speculator methods run on the supervisor goroutine; only the
// per-hypothesis goroutines touch the clones.
type Speculator struct {
	src CloneSource
	tel *telemetry.Registry
	trc trace.Emitter

	inflight []*hypothesis
	seq      uint64
	stats    SpecStats
	total    SpecStats

	metLaunched  *telemetry.Counter
	metWon       *telemetry.Counter
	metCancelled *telemetry.Counter
	metStandby   *telemetry.Counter
	active       *telemetry.Gauge
}

// NewSpeculator creates a speculator over src. tel (nil-safe) receives the
// spec.* counters and absorbs each finished clone's telemetry; trc emits
// launch/win/cancel records on the supervising worker's track.
func NewSpeculator(src CloneSource, tel *telemetry.Registry, trc trace.Emitter) *Speculator {
	return &Speculator{
		src:          src,
		tel:          tel,
		trc:          trc,
		metLaunched:  tel.Counter("spec.launched"),
		metWon:       tel.Counter("spec.won"),
		metCancelled: tel.Counter("spec.cancelled"),
		metStandby:   tel.Counter("spec.standby_hits"),
		active:       tel.Gauge("spec.active"),
	}
}

// Prefetch implements Prober: every announced request is launched on its
// own clone immediately. The first request matching the pre-warmed standby
// clone rides it at zero clone cost; the rest roll the source machine back
// to their checkpoint and clone it.
func (sp *Speculator) Prefetch(reqs []*ProbeReq) {
	for _, r := range reqs {
		h := &hypothesis{req: r, done: make(chan struct{})}
		if pm := sp.src.TakeStandby(r.Ckpt); pm != nil {
			h.pm, h.standby = pm, true
			sp.stats.StandbyHits++
			sp.metStandby.Inc()
		} else {
			sp.src.Rollback(r.Ckpt)
			h.pm = sp.src.SpawnProbe()
		}
		h.pm.SetCancel(&h.cancel)
		sp.seq++
		h.seq = sp.seq
		sp.stats.Launched++
		sp.metLaunched.Inc()
		sp.active.Add(1)
		sp.trc.Emit(trace.KSpecLaunch, h.seq, uint64(r.Ckpt.Seq))
		sp.inflight = append(sp.inflight, h)
		go func(h *hypothesis) {
			defer close(h.done)
			// Heap marking runs on the clone goroutine: marking after
			// cloning leaves the same heap image as marking after the
			// rollback the serial pipeline would have done.
			if h.req.Mark {
				h.markErr = h.pm.MarkHeap()
			}
			h.out = h.pm.ReExecute(h.req.CS, h.req.Until)
		}(h)
	}
}

// Take implements Prober: it joins the hypothesis launched for r, folds
// the clone's telemetry into the source registry, and returns the outcome
// with its evidence translated into source-machine call-site IDs.
func (sp *Speculator) Take(r *ProbeReq) (ProbeResult, bool) {
	for i, h := range sp.inflight {
		if h.req != r {
			continue
		}
		<-h.done
		sp.inflight = append(sp.inflight[:i], sp.inflight[i+1:]...)
		sp.retire(h)
		sp.stats.Won++
		sp.metWon.Inc()
		var sb uint64
		if h.standby {
			sb = 1
		}
		sp.trc.Emit(trace.KSpecWin, h.seq, sb)
		out := h.out
		sp.translate(&out, h.pm)
		return ProbeResult{Out: out, MarkErr: h.markErr}, true
	}
	return ProbeResult{}, false
}

// CancelAll implements Prober: losers are flagged, joined and accounted.
// Joining (not abandoning) the goroutines keeps clone telemetry and the
// active gauge exact and lets the caller reuse the source machine
// immediately.
func (sp *Speculator) CancelAll() {
	for _, h := range sp.inflight {
		h.cancel.Store(true)
	}
	for _, h := range sp.inflight {
		<-h.done
		sp.retire(h)
		sp.stats.Cancelled++
		sp.metCancelled.Inc()
		sp.trc.Emit(trace.KSpecCancel, h.seq, uint64(h.req.Ckpt.Seq))
	}
	sp.inflight = sp.inflight[:0]
}

// retire absorbs a finished hypothesis's clone telemetry and releases the
// clone's memory, so the source machine stops copying pages the dead clone
// would otherwise share forever.
func (sp *Speculator) retire(h *hypothesis) {
	sp.active.Add(-1)
	if t := h.pm.Telemetry(); t != nil && sp.tel != nil {
		sp.tel.Merge(t)
	}
	h.pm.Release()
}

// translate rewrites the outcome's manifest call-sites from clone IDs to
// source-machine IDs. Site IDs are per-table; the key strings are the
// shared vocabulary.
func (sp *Speculator) translate(out *Outcome, pm ProbeMachine) {
	for i := range out.Manifests.All {
		m := &out.Manifests.All[i]
		if m.AllocSite != 0 {
			m.AllocSite = sp.src.InternSite(pm.SiteKey(m.AllocSite))
		}
		if m.FreeSite != 0 {
			m.FreeSite = sp.src.InternSite(pm.SiteKey(m.FreeSite))
		}
	}
}

// InFlight returns the number of hypotheses currently racing.
func (sp *Speculator) InFlight() int { return len(sp.inflight) }

// Episode returns the stats accumulated since the previous Episode call
// and resets them — one call per recovery, after the diagnosis resolves.
func (sp *Speculator) Episode() SpecStats {
	st := sp.stats
	sp.total.Launched += st.Launched
	sp.total.Won += st.Won
	sp.total.Cancelled += st.Cancelled
	sp.total.StandbyHits += st.StandbyHits
	sp.stats = SpecStats{}
	return st
}

// Totals returns the lifetime stats across every episode, including the
// one in flight.
func (sp *Speculator) Totals() SpecStats {
	t := sp.total
	t.Launched += sp.stats.Launched
	t.Won += sp.stats.Won
	t.Cancelled += sp.stats.Cancelled
	t.StandbyHits += sp.stats.StandbyHits
	return t
}
