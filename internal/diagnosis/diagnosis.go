// Package diagnosis implements First-Aid's two-phase, environmental-change
// based failure diagnosis (paper §4).
//
// Phase 1 finds the latest checkpoint taken before the bug-triggering
// point: it rolls back through checkpoints in reverse chronological order,
// first screening for non-deterministic failures with a plain re-execution,
// then probing each checkpoint with every preventive change applied to all
// objects — with the heap-marking technique (§4.1, Figure 3) rejecting
// checkpoints whose apparent success merely reflects disturbed heap layout
// after a bug that had already been triggered.
//
// Phase 2 identifies the bug types and the call-sites of the
// bug-triggering objects: it probes each candidate type b with the
// exposing change for b plus preventive changes for every other type
// (so only b can manifest), checks convergence after each hit, reads
// call-sites directly from canary and parameter-check evidence for
// overflow / dangling-write / double-free, and runs the O(M·log N)
// binary search over observed call-sites for the read-type bugs
// (dangling read, uninitialized read).
//
// Engine.Diagnose runs the whole diagnosis in that order, after the
// guard-evidence fast path when the detector supplied evidence. A Prober
// may serve the prefetchable probes from speculative re-executions; the
// package's Speculator (speculate.go) races them on COW machine clones and
// hands the engine their outcomes in serial program order, so speculative
// diagnosis is observationally identical to the serial one.
package diagnosis

import (
	"fmt"

	"firstaid/internal/allocext"
	"firstaid/internal/callsite"
	"firstaid/internal/checkpoint"
	"firstaid/internal/ledger"
	"firstaid/internal/mmbug"
	"firstaid/internal/proc"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
)

// Outcome is the observable result of one diagnostic re-execution.
type Outcome struct {
	Fault     *proc.Fault
	Manifests allocext.ManifestSet
	// MetaErr is non-nil when the re-execution reached the horizon but
	// left the allocator's own metadata corrupted: the window's changes
	// masked a trap (e.g. delay-free never handing a smashed header back
	// to the raw allocator) without neutralizing the corruption itself.
	MetaErr error
	// Interrupted marks a re-execution torn down by a speculation cancel
	// flag before reaching the horizon. Only losing speculative clones
	// produce it; the engine never consumes an interrupted outcome.
	Interrupted bool
}

// Passed reports whether the re-execution survived the failure region.
func (o Outcome) Passed() bool { return o.Fault == nil }

// Machine is the rollback/re-execution substrate the engine drives;
// core.Machine implements it.
type Machine interface {
	// Checkpoints returns the retained checkpoints, oldest first.
	Checkpoints() []*checkpoint.Checkpoint
	// Rollback reinstates the given checkpoint's state.
	Rollback(cp *checkpoint.Checkpoint)
	// MarkHeap canary-fills free heap space (call after Rollback).
	MarkHeap() error
	// ReExecute re-runs events under the given changes until the replay
	// cursor reaches `until` or a fault traps.
	ReExecute(cs *allocext.ChangeSet, until int) Outcome
	// SeenAllocSites / SeenFreeSites return the call-sites observed by
	// the most recent ReExecute.
	SeenAllocSites() []callsite.ID
	SeenFreeSites() []callsite.ID
	// SiteKey resolves an interned call-site for log rendering.
	SiteKey(id callsite.ID) callsite.Key
}

// Config tunes the engine.
type Config struct {
	// MaxCheckpoints bounds the Phase-1 backward search (default 8);
	// beyond it the bug is logged as non-patchable.
	MaxCheckpoints int
	// MaxRollbacks is the overall re-execution budget (default 200).
	MaxRollbacks int

	// DisableHeapMarking is an ablation switch: Phase 1 runs without the
	// §4.1 marking pass, re-enabling the Figure-3 checkpoint
	// misidentification. For experiments only.
	DisableHeapMarking bool
	// LinearSiteSearch is an ablation switch: identify read-type bug
	// call-sites by probing candidates one at a time (O(M·N)
	// re-executions) instead of the paper's O(M·log N) binary search.
	// For experiments only.
	LinearSiteSearch bool

	// DetectedEarly records that the triggering fault came from a
	// protected region's eager check rather than a later use of the
	// corrupted state: the error-propagation distance is zero, which the
	// diagnosis log notes since it shortens the window Phase 1 must cover.
	DetectedEarly bool

	// Evidence, when set, carries direct bug evidence captured at the
	// detection point (a sampled guard-page hit): the manifested class,
	// the implicated call-site and the process clock of the decisive
	// operation. The engine then tries the fast path — one scoped
	// confirmation re-execution instead of the phase-1 checkpoint search
	// and phase-2 class/site identification — falling back to the full
	// pipeline if confirmation fails.
	Evidence *Evidence

	// Ledger, when set, is the recovery's lifecycle entry: the engine
	// appends the Phase1Skipped/Phase1Completed and CheckpointSelected
	// conditions, recording every candidate checkpoint it considered and
	// why the rejected ones were rejected, and one path step per phase it
	// runs. A nil entry discards appends.
	Ledger *ledger.Entry

	// Prober, when set, may satisfy prefetchable probes (the phase-1
	// candidate ladder and the phase-2 class probes) from speculative
	// re-executions raced on cloned machines. The engine announces each
	// batch with Prefetch and then consumes outcomes strictly in serial
	// program order with Take, so logs, conditions and budget accounting
	// are identical to the serial pipeline; probes the prober cannot serve
	// fall back to the engine's own rollback–re-execute. Nil keeps the
	// engine fully serial.
	Prober Prober

	// Metrics, when set, receives diagnosis counters: total rollbacks and
	// probe re-executions per phase.
	Metrics *telemetry.Registry
	// Trace, when set, records phase begin/end markers in the execution
	// trace; the end record carries the phase's rollback count. Each phase
	// is opened with Ledger.Phase, so the trace and the path agree.
	Trace trace.Emitter
}

func (c *Config) fillDefaults() {
	if c.MaxCheckpoints == 0 {
		c.MaxCheckpoints = 8
	}
	if c.MaxRollbacks == 0 {
		c.MaxRollbacks = 200
	}
}

// Evidence is direct bug evidence from a detector that traps at the
// faulting access (the guard tier): class, call-site, and the process
// clock of the decisive operation (allocation for overflow, free for
// dangling accesses) — the fast path rolls back to the newest checkpoint
// strictly older than that clock.
type Evidence struct {
	Bug   mmbug.Type
	Site  callsite.ID
	Clock uint64
}

// Finding is one diagnosed bug: its class and the call-sites of the
// bug-triggering memory objects (patch application points).
type Finding struct {
	Bug   mmbug.Type
	Sites []callsite.ID
}

// Result is the diagnosis outcome.
type Result struct {
	// Nondeterministic: plain re-execution succeeded; no patch needed.
	Nondeterministic bool
	// Unpatchable: no checkpoint/change combination survives; resort to
	// other recovery schemes.
	Unpatchable bool
	// Checkpoint is the latest checkpoint before the bug-triggering
	// point — the recovery and patch-validation base.
	Checkpoint *checkpoint.Checkpoint
	// Findings lists the diagnosed bug classes with their call-sites.
	Findings []Finding
	// Rollbacks counts diagnostic re-executions (Table 3's "No. of
	// rollbacks for diagnosis").
	Rollbacks int
	// FastPath marks a diagnosis completed from detection-point evidence
	// with a single confirmation re-execution — phase 1 and phase 2 were
	// skipped entirely.
	FastPath bool
	// Log is the human-readable diagnosis log included in the bug
	// report.
	Log []string
}

// OK reports whether patches can be generated from the result.
func (r *Result) OK() bool {
	return !r.Nondeterministic && !r.Unpatchable && len(r.Findings) > 0
}

// Engine drives diagnosis over a Machine.
type Engine struct {
	m   Machine
	cfg Config

	rollbacks int
	log       []string

	metRollbacks *telemetry.Counter
	metPhase1    *telemetry.Counter
	metPhase2    *telemetry.Counter
	metGuard     *telemetry.Counter
	curPhase     *telemetry.Counter // phase counter reexec charges to
}

// New creates an engine.
func New(m Machine, cfg Config) *Engine {
	cfg.fillDefaults()
	return &Engine{
		m:   m,
		cfg: cfg,
		// A nil Metrics registry resolves to nil counters, whose methods
		// are no-ops — the probe loop carries no conditionals.
		metRollbacks: cfg.Metrics.Counter("diag.rollbacks"),
		metPhase1:    cfg.Metrics.Counter("diag.phase1_reexecs"),
		metPhase2:    cfg.Metrics.Counter("diag.phase2_reexecs"),
		metGuard:     cfg.Metrics.Counter("diag.guard_confirms"),
	}
}

func (e *Engine) logf(format string, args ...interface{}) {
	e.log = append(e.log, fmt.Sprintf(format, args...))
}

// reexec rolls back to cp (marking the heap when mark is set) and performs
// one diagnostic re-execution.
func (e *Engine) reexec(cp *checkpoint.Checkpoint, cs *allocext.ChangeSet, until int, mark bool) Outcome {
	e.m.Rollback(cp)
	if mark {
		if err := e.m.MarkHeap(); err != nil {
			e.logf("heap marking failed: %v", err)
		}
	}
	e.rollbacks++
	e.metRollbacks.Inc()
	e.curPhase.Inc()
	return e.m.ReExecute(cs, until)
}

// reexecReq performs one prefetchable probe. When a Prober holds the probe's
// speculative outcome, the engine consumes it in serial program order — the
// rollback budget, counters and log lines advance exactly as if the probe
// had just run — and its own machine is left untouched; otherwise the probe
// falls back to the serial rollback–re-execute.
func (e *Engine) reexecReq(r *ProbeReq) Outcome {
	if e.cfg.Prober != nil {
		if pr, ok := e.cfg.Prober.Take(r); ok {
			if r.Mark && pr.MarkErr != nil {
				e.logf("heap marking failed: %v", pr.MarkErr)
			}
			e.rollbacks++
			e.metRollbacks.Inc()
			e.curPhase.Inc()
			return pr.Out
		}
	}
	return e.reexec(r.Ckpt, r.CS, r.Until, r.Mark)
}

func (e *Engine) budgetExceeded() bool { return e.rollbacks >= e.cfg.MaxRollbacks }

// ProbeReq describes one prefetchable diagnostic re-execution: roll back to
// Ckpt (marking the heap when Mark is set) and re-execute under CS until the
// replay cursor reaches Until. The engine builds each request exactly once
// and matches prober answers by request identity, so a ChangeSet is never
// shared between two probes.
type ProbeReq struct {
	Ckpt  *checkpoint.Checkpoint
	CS    *allocext.ChangeSet
	Until int
	Mark  bool
}

// ProbeResult is a completed probe: the re-execution outcome plus the
// heap-marking error, if any (the engine logs it exactly where the serial
// pipeline would).
type ProbeResult struct {
	Out     Outcome
	MarkErr error
}

// Prober races prefetched probes on behalf of the engine. Implementations
// must be cheap to call from the supervisor goroutine: Prefetch launches
// hypotheses asynchronously, Take blocks only for the one requested probe,
// and CancelAll tears down everything still in flight (Diagnose calls it
// once, when the diagnosis resolves). Speculator is the implementation.
type Prober interface {
	// Prefetch announces probes the engine will consume in order. The
	// prober may launch any subset; unserved requests fall back to serial
	// re-execution.
	Prefetch(reqs []*ProbeReq)
	// Take returns the finished outcome for a previously prefetched
	// request, blocking until its race completes. ok=false means the
	// prober never launched it.
	Take(r *ProbeReq) (ProbeResult, bool)
	// CancelAll tears down in-flight probes that were never consumed.
	CancelAll()
}

// candidate renders a checkpoint as ledger evidence.
func candidate(cp *checkpoint.Checkpoint, rejected string) ledger.CandidateInfo {
	return ledger.CandidateInfo{
		CheckpointInfo: ledger.CheckpointInfo{Seq: cp.Seq, Clock: cp.Clock, Cursor: cp.Cursor},
		Rejected:       rejected,
	}
}

// Diagnose runs both phases. until is the success horizon: a re-execution
// that reaches this replay-cursor position without a fault has "passed the
// original failure region" (the supervisor sets it to the failure cursor
// plus ~3 checkpoint intervals of events, per §4.1). Guard evidence, when
// present, is tried first: if its one scoped re-execution confirms it, both
// search phases are skipped. Speculative probes still in flight when the
// diagnosis resolves are cancelled and joined before it returns.
func (e *Engine) Diagnose(until int) Result {
	e.rollbacks = 0
	e.log = nil
	if e.cfg.DetectedEarly {
		e.logf("failure detected early at a protected-region touchpoint: corruption trapped at the causing event (zero-event propagation)")
	}
	if e.cfg.Prober != nil {
		defer e.cfg.Prober.CancelAll()
	}
	if e.cfg.Evidence != nil {
		if res, ok := e.confirmEvidence(until); ok {
			return res
		}
	}

	e.curPhase = e.metPhase1
	endPhase1 := e.cfg.Ledger.Phase(e.cfg.Trace, trace.PhaseDiag1, uint64(until))
	cp, res := e.phase1(until)
	if cp == nil {
		outcome := "unpatchable"
		if res.Nondeterministic {
			outcome = "nondeterministic"
		}
		endPhase1(uint64(e.rollbacks), outcome)
		res.Rollbacks = e.rollbacks
		res.Log = e.log
		return res
	}
	endPhase1(uint64(e.rollbacks), "checkpoint found")
	phase1Rollbacks := e.rollbacks
	classReqs := e.prefetchClassProbes(cp, until)

	e.curPhase = e.metPhase2
	endPhase2 := e.cfg.Ledger.Phase(e.cfg.Trace, trace.PhaseDiag2, uint64(until))
	findings, ok := e.phase2(cp, until, classReqs)
	res = Result{Checkpoint: cp, Findings: findings, Rollbacks: e.rollbacks}
	outcome := "identified"
	if !ok {
		res.Unpatchable = true
		e.logf("phase 2 failed to isolate a patchable bug set; marking non-patchable")
		outcome = "unpatchable"
	}
	endPhase2(uint64(e.rollbacks-phase1Rollbacks), outcome)
	res.Log = e.log
	return res
}

// phase1 finds the newest checkpoint predating the bug-triggering point. It
// first screens for a non-deterministic failure with a plain re-execution
// from the newest checkpoint. The screen always runs serially on the
// engine's own machine: when it passes, the supervisor continues from the
// re-executed state, so that state must land on the parent, never on a
// clone. Before the screen runs, the candidate ladder is built and handed
// to the prober, so speculative clones race the ladder hypotheses while
// the parent executes the screen. phase1 returns the selected checkpoint,
// or nil and the terminal result: non-deterministic or non-patchable.
func (e *Engine) phase1(until int) (*checkpoint.Checkpoint, Result) {
	cps := e.m.Checkpoints()
	if len(cps) == 0 {
		e.logf("no checkpoints available")
		e.cfg.Ledger.Add(ledger.Condition{
			Type:    ledger.Phase1Completed,
			Message: "no checkpoints available: non-patchable",
		})
		return nil, Result{Unpatchable: true}
	}

	// The candidate ladder, newest first, bounded by MaxCheckpoints. Each
	// request owns a freshly built change set; serial and speculative
	// consumption share these exact request objects.
	var ladder []*ProbeReq
	for i := len(cps) - 1; i >= 0 && len(ladder) < e.cfg.MaxCheckpoints; i-- {
		ladder = append(ladder, &ProbeReq{
			Ckpt:  cps[i],
			CS:    allocext.AllPreventiveCanaried(),
			Until: until,
			Mark:  !e.cfg.DisableHeapMarking,
		})
	}
	if e.cfg.Prober != nil {
		e.cfg.Prober.Prefetch(ladder)
	}

	newest := cps[len(cps)-1]
	out := e.reexec(newest, allocext.NewChangeSet(), until, false)
	if out.Passed() {
		e.logf("plain re-execution from %v passed: non-deterministic failure", newest)
		e.cfg.Ledger.Add(ledger.Condition{
			Type:       ledger.Phase1Completed,
			Clock:      newest.Clock,
			Message:    "plain re-execution passed: non-deterministic failure, no patch needed",
			Candidates: []ledger.CandidateInfo{candidate(newest, "")},
		})
		return nil, Result{Nondeterministic: true}
	}
	e.logf("plain re-execution from %v failed again (%v): deterministic bug", newest, out.Fault.Kind)
	if cp := e.selectCheckpoint(ladder); cp != nil {
		return cp, Result{}
	}
	return nil, Result{Unpatchable: true}
}

// selectCheckpoint walks the phase-1 ladder: each candidate is probed with
// every preventive change applied to all objects, heap marking rejecting
// checkpoints whose apparent success merely reflects disturbed layout after
// an already-triggered bug. It returns the first surviving candidate, or
// nil when none survives.
func (e *Engine) selectCheckpoint(ladder []*ProbeReq) *checkpoint.Checkpoint {
	var cands []ledger.CandidateInfo
	for tried, r := range ladder {
		cp := r.Ckpt
		out := e.reexecReq(r)
		switch {
		case out.Passed() && !out.Manifests.HasMark() && !out.Manifests.HasUnderflow() && out.MetaErr == nil:
			e.logf("all-preventive re-execution from %v passed with clean heap marks: checkpoint precedes the bug-triggering point", cp)
			cands = append(cands, candidate(cp, ""))
			e.cfg.Ledger.Add(ledger.Condition{
				Type:    ledger.Phase1Completed,
				Clock:   cp.Clock,
				Message: fmt.Sprintf("checkpoint found after %d candidate(s)", tried+1),
			})
			e.cfg.Ledger.Add(ledger.Condition{
				Type:       ledger.CheckpointSelected,
				Clock:      cp.Clock,
				Message:    cp.String(),
				Checkpoint: &ledger.CheckpointInfo{Seq: cp.Seq, Clock: cp.Clock, Cursor: cp.Cursor},
				Candidates: cands,
			})
			return cp
		case out.Manifests.HasMark():
			e.logf("heap-marking canaries corrupted re-executing from %v: bug triggered before this checkpoint, searching earlier", cp)
			cands = append(cands, candidate(cp, "heap-marking canaries corrupted: bug triggered before this checkpoint"))
		case out.Passed() && out.Manifests.HasUnderflow():
			e.logf("front-padding canaries corrupted re-executing from %v: the overflowing allocation predates this checkpoint, searching earlier", cp)
			cands = append(cands, candidate(cp, "front-padding canaries corrupted: the overflowing allocation predates this checkpoint"))
		case out.Passed() && out.MetaErr != nil:
			e.logf("allocator metadata corrupted after re-executing from %v (%v): an unprotected pre-checkpoint object was smashed in-window, searching earlier", cp, out.MetaErr)
			cands = append(cands, candidate(cp, fmt.Sprintf("allocator metadata corrupted after re-execution (%v)", out.MetaErr)))
		default:
			e.logf("all-preventive re-execution from %v still failed (%v): searching earlier", cp, out.Fault.Kind)
			cands = append(cands, candidate(cp, fmt.Sprintf("all-preventive re-execution still failed (%v)", out.Fault.Kind)))
		}
		if e.budgetExceeded() {
			break
		}
	}
	e.logf("no surviving checkpoint within %d candidates: non-patchable", e.cfg.MaxCheckpoints)
	e.cfg.Ledger.Add(ledger.Condition{
		Type:       ledger.Phase1Completed,
		Message:    fmt.Sprintf("no surviving checkpoint within %d candidates: non-patchable", e.cfg.MaxCheckpoints),
		Candidates: cands,
	})
	return nil
}

// prefetchClassProbes builds the phase-2 exposing probes from cp (one per
// bug class, in mmbug order, the order phase2 consumes them) and hands
// them to the prober.
func (e *Engine) prefetchClassProbes(cp *checkpoint.Checkpoint, until int) map[mmbug.Type]*ProbeReq {
	classReqs := make(map[mmbug.Type]*ProbeReq, len(mmbug.All))
	reqs := make([]*ProbeReq, 0, len(mmbug.All))
	for _, b := range mmbug.All {
		r := &ProbeReq{Ckpt: cp, CS: exposePlusPrevent(b), Until: until}
		classReqs[b] = r
		reqs = append(reqs, r)
	}
	if e.cfg.Prober != nil {
		e.cfg.Prober.Prefetch(reqs)
	}
	return classReqs
}

// confirmEvidence tries the guard-evidence fast path: one confirmation
// re-execution from the newest checkpoint predating the evidence clock,
// with the preventive change for the evidenced class applied only at the
// evidenced call-site. If that scoped change alone survives the failure
// region, class and site are confirmed and both search phases are skipped
// (§4's diagnosis collapses to a single rollback when the detector already
// caught the bug at the faulting instruction). On any mismatch — no old
// enough checkpoint, re-execution still faults, residual metadata
// corruption — diagnosis falls through to the full pipeline.
func (e *Engine) confirmEvidence(until int) (Result, bool) {
	ev := e.cfg.Evidence
	var cp *checkpoint.Checkpoint
	for _, c := range e.m.Checkpoints() {
		if c.Clock < ev.Clock {
			cp = c
		}
	}
	if cp == nil {
		e.logf("guard evidence (%v at %v): no checkpoint predates the decisive operation (clock %d); falling back to full diagnosis", ev.Bug, ev.Site, ev.Clock)
		return Result{}, false
	}

	e.curPhase = e.metGuard
	endPhase := e.cfg.Ledger.Phase(e.cfg.Trace, trace.PhaseGuardConfirm, uint64(until))
	cs := allocext.NewChangeSet()
	cs.AddPreventive(ev.Bug, callsite.NewSet(ev.Site))
	out := e.reexec(cp, cs, until, false)
	if out.Passed() && out.MetaErr == nil {
		e.logf("guard evidence confirmed: preventive %v at %v alone survives the failure region from %v", ev.Bug, ev.Site, cp)
		endPhase(uint64(e.rollbacks), "confirmed")
		var cands []ledger.CandidateInfo
		for _, c := range e.m.Checkpoints() {
			switch {
			case c.Clock >= ev.Clock:
				cands = append(cands, candidate(c, "postdates the guard evidence's decisive operation"))
			case c != cp:
				cands = append(cands, candidate(c, "superseded by a newer pre-evidence checkpoint"))
			default:
				cands = append(cands, candidate(c, ""))
			}
		}
		e.cfg.Ledger.Add(ledger.Condition{
			Type:    ledger.Phase1Skipped,
			Clock:   ev.Clock,
			Message: "guard evidence confirmed by one scoped re-execution; phase-1 search skipped",
		})
		e.cfg.Ledger.Add(ledger.Condition{
			Type:       ledger.CheckpointSelected,
			Clock:      cp.Clock,
			Message:    cp.String(),
			Checkpoint: &ledger.CheckpointInfo{Seq: cp.Seq, Clock: cp.Clock, Cursor: cp.Cursor},
			Candidates: cands,
		})
		return Result{
			Checkpoint: cp,
			Findings:   []Finding{{Bug: ev.Bug, Sites: []callsite.ID{ev.Site}}},
			Rollbacks:  e.rollbacks,
			FastPath:   true,
			Log:        e.log,
		}, true
	}
	if out.Fault != nil {
		e.logf("guard evidence not confirmed (re-execution faulted: %v); falling back to full diagnosis", out.Fault.Kind)
	} else {
		e.logf("guard evidence not confirmed (metadata corruption: %v); falling back to full diagnosis", out.MetaErr)
	}
	endPhase(uint64(e.rollbacks), "fallback")
	return Result{}, false
}

// --- Phase 2 ---------------------------------------------------------------------

// exposePlusPrevent builds the change set that exposes b and prevents every
// other class (all objects).
func exposePlusPrevent(b mmbug.Type) *allocext.ChangeSet {
	cs := allocext.NewChangeSet().AddExposing(b, nil)
	for _, t := range mmbug.All {
		if t != b {
			cs.AddPreventive(t, nil)
		}
	}
	return cs
}

// manifested interprets an outcome as evidence for class b per Table 1:
// canary corruption for overflow and dangling write, the parameter check
// for double free, and program failure for the read-type classes.
func manifested(b mmbug.Type, out Outcome) bool {
	switch b {
	case mmbug.BufferOverflow, mmbug.DanglingWrite, mmbug.DoubleFree:
		return out.Manifests.Has(b)
	case mmbug.DanglingRead, mmbug.UninitRead:
		return out.Fault != nil
	}
	return false
}

// phase2 identifies bug classes and call-sites from cp. classReqs holds
// the prefetched class-probe requests, one per class, so a prober can race
// them.
func (e *Engine) phase2(cp *checkpoint.Checkpoint, until int, classReqs map[mmbug.Type]*ProbeReq) ([]Finding, bool) {
	identified := []mmbug.Type{}
	directSites := map[mmbug.Type][]callsite.ID{}
	undecided := append([]mmbug.Type(nil), mmbug.All...)

	for len(undecided) > 0 && !e.budgetExceeded() {
		b := undecided[0]
		undecided = undecided[1:]

		out := e.reexecReq(classReqs[b])
		if !manifested(b, out) {
			e.logf("probe %v: no manifestation, ruled out", b)
			continue
		}
		identified = append(identified, b)
		if sites := out.Manifests.Sites(b); len(sites) > 0 {
			directSites[b] = sites
			e.logf("probe %v: manifested at %d call-site(s) %v", b, len(sites), e.renderSites(sites))
		} else {
			e.logf("probe %v: manifested as failure (%v); call-sites need binary search", b, out.Fault.Kind)
		}

		// Convergence check: preventive for the identified set plus
		// exposing for the still-undecided set; if nothing manifests,
		// the identified set covers every occurring bug type.
		if len(undecided) == 0 {
			break
		}
		cs := allocext.NewChangeSet()
		for _, t := range identified {
			cs.AddPreventive(t, nil)
		}
		for _, t := range undecided {
			cs.AddExposing(t, nil)
		}
		out = e.reexec(cp, cs, until, false)
		rest := false
		for _, t := range undecided {
			if manifested(t, out) {
				rest = true
			}
		}
		if !rest && out.Passed() {
			e.logf("convergence check passed: identified set {%v} covers all occurring bug types", identified)
			undecided = nil
		}
	}

	if len(identified) == 0 {
		// Extension beyond the paper: some dangling reads never consume
		// the poisoned data in a checkable way (e.g. a bulk copy out of
		// a large munmapped buffer — the failure is the unmapped page
		// itself, which the exposing change's delay-free suppresses).
		// No exposing probe manifests, yet Phase 1 proved the failure
		// preventable. Fall back to identifying the class by which
		// single preventive change suffices, and its call-sites by
		// *omission* of prevention.
		e.logf("no bug type manifested under any exposing change; falling back to prevention-based identification")
		return e.phase2ByPrevention(cp, until)
	}

	// Call-site identification.
	var findings []Finding
	for _, b := range identified {
		if !b.ReadType() {
			findings = append(findings, Finding{Bug: b, Sites: directSites[b]})
			continue
		}
		sites, ok := e.searchSites(cp, b, identified, until)
		if !ok {
			return nil, false
		}
		findings = append(findings, Finding{Bug: b, Sites: sites})
	}

	// Final verification: the preventive changes scoped exactly to the
	// findings (the future runtime patches) must survive the region.
	cs := allocext.NewChangeSet()
	for _, f := range findings {
		cs.AddPreventive(f.Bug, callsite.NewSet(f.Sites...))
	}
	out := e.reexec(cp, cs, until, false)
	if !out.Passed() {
		e.logf("final verification failed: scoped preventive changes did not survive (%v)", out.Fault.Kind)
		return nil, false
	}
	e.logf("final verification passed: scoped preventive changes survive the failure region")
	return findings, true
}

func (e *Engine) renderSites(sites []callsite.ID) []string {
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = e.m.SiteKey(s).String()
	}
	return out
}

// --- binary search over call-sites (read-type bugs, §4.2) -------------------------

// candidateSites runs one fully-preventive pass from cp to collect the
// complete set of call-sites exercised in the window: deallocation sites
// for dangling reads, allocation sites for uninitialized reads.
func (e *Engine) candidateSites(cp *checkpoint.Checkpoint, b mmbug.Type, until int) []callsite.ID {
	e.reexec(cp, allocext.AllPreventive(), until, false)
	if b == mmbug.UninitRead {
		return e.m.SeenAllocSites()
	}
	return e.m.SeenFreeSites()
}

// searchChanges builds one binary-search iteration's change set: expose b
// at `exposed`, prevent b at every other candidate site, prevent every
// other identified class everywhere. When exposeByOmission is set the
// "exposed" sites simply receive no change (the prevention-based fallback:
// the bug manifests as the original failure whenever its site is left
// unprotected).
func searchChanges(b mmbug.Type, identified []mmbug.Type, exposed, prevented *callsite.Set, exposeByOmission bool) *allocext.ChangeSet {
	cs := allocext.NewChangeSet()
	if !exposeByOmission {
		cs.AddExposing(b, exposed)
	}
	cs.AddPreventive(b, prevented)
	for _, t := range identified {
		if t != b {
			cs.AddPreventive(t, nil)
		}
	}
	return cs
}

// phase2ByPrevention identifies the bug class by probing each preventive
// change alone against the whole heap, then locates call-sites with the
// omission-based binary search.
func (e *Engine) phase2ByPrevention(cp *checkpoint.Checkpoint, until int) ([]Finding, bool) {
	var class mmbug.Type
	for _, b := range mmbug.All {
		if e.budgetExceeded() {
			return nil, false
		}
		cs := allocext.NewChangeSet().AddPreventive(b, nil)
		if cs.Empty() {
			continue
		}
		out := e.reexec(cp, cs, until, false)
		if out.Passed() {
			class = b
			e.logf("preventive change for %v alone survives the region", b)
			break
		}
	}
	if class == mmbug.None {
		e.logf("no single preventive change survives; non-patchable")
		return nil, false
	}
	// Delay-free covers three classes; with no corruption or re-free
	// evidence from the earlier exposing probes, the read is what's left.
	if class == mmbug.DanglingWrite || class == mmbug.DoubleFree {
		class = mmbug.DanglingRead
	}
	sites, ok := e.searchSitesMode(cp, class, []mmbug.Type{class}, until, true)
	if !ok {
		return nil, false
	}
	findings := []Finding{{Bug: class, Sites: sites}}
	cs := allocext.NewChangeSet().AddPreventive(class, callsite.NewSet(sites...))
	out := e.reexec(cp, cs, until, false)
	if !out.Passed() {
		e.logf("final verification failed in prevention-based mode (%v)", out.Fault.Kind)
		return nil, false
	}
	e.logf("final verification passed: scoped preventive changes survive the failure region")
	return findings, true
}

// searchSites finds every bug-triggering call-site of read-type class b via
// repeated binary search: each round isolates one site (exposing half the
// range, preventing the rest), and rounds continue until exposing all
// remaining candidates no longer fails — O(M·log N) re-executions for M
// sites among N candidates.
func (e *Engine) searchSites(cp *checkpoint.Checkpoint, b mmbug.Type, identified []mmbug.Type, until int) ([]callsite.ID, bool) {
	return e.searchSitesMode(cp, b, identified, until, false)
}

// searchSitesMode implements searchSites; exposeByOmission selects the
// prevention-based fallback semantics.
func (e *Engine) searchSitesMode(cp *checkpoint.Checkpoint, b mmbug.Type, identified []mmbug.Type, until int, exposeByOmission bool) ([]callsite.ID, bool) {
	candidates := e.candidateSites(cp, b, until)
	if len(candidates) == 0 {
		e.logf("binary search for %v: no candidate call-sites observed", b)
		return nil, false
	}
	e.logf("binary search for %v over %d candidate call-sites", b, len(candidates))

	found := callsite.NewSet()
	remaining := callsite.NewSet(candidates...)

	for remaining.Len() > 0 && !e.budgetExceeded() {
		// Any buggy sites left? Expose everything unidentified.
		out := e.reexec(cp, searchChanges(b, identified, remaining, found, exposeByOmission), until, false)
		if out.Passed() {
			break
		}

		var site callsite.ID
		if e.cfg.LinearSiteSearch {
			site = e.linearRound(cp, b, identified, found, remaining, until, exposeByOmission)
			if site == 0 {
				e.logf("linear search found no failing candidate")
				return nil, false
			}
		} else {
			// One binary-search round: narrow to a single site.
			rng := remaining.Clone()
			for rng.Len() > 1 && !e.budgetExceeded() {
				lo, hi := rng.Halves()
				// Prevent everything except lo: hi, candidates
				// outside the range, and already-found sites.
				prevented := found.Clone()
				for _, s := range remaining.Sorted() {
					if !lo.Contains(s) {
						prevented.Add(s)
					}
				}
				out := e.reexec(cp, searchChanges(b, identified, lo, prevented, exposeByOmission), until, false)
				if out.Fault != nil {
					rng = lo
				} else {
					rng = hi
				}
			}
			site = rng.Sorted()[0]
		}
		found.Add(site)
		remaining.Remove(site)
		e.logf("search round: identified %v call-site %s", b, e.m.SiteKey(site))
	}
	if remaining.Len() > 0 && e.budgetExceeded() {
		e.logf("binary search for %v exceeded the rollback budget", b)
		return nil, false
	}
	if found.Len() == 0 {
		e.logf("binary search for %v found no bug-triggering call-site", b)
		return nil, false
	}
	return found.Sorted(), true
}

// linearRound is the ablation alternative to one binary-search round:
// expose one candidate at a time (preventing all others) until one fails.
func (e *Engine) linearRound(cp *checkpoint.Checkpoint, b mmbug.Type, identified []mmbug.Type, found, remaining *callsite.Set, until int, exposeByOmission bool) callsite.ID {
	for _, s := range remaining.Sorted() {
		if e.budgetExceeded() {
			return 0
		}
		prevented := found.Clone()
		for _, o := range remaining.Sorted() {
			if o != s {
				prevented.Add(o)
			}
		}
		out := e.reexec(cp, searchChanges(b, identified, callsite.NewSet(s), prevented, exposeByOmission), until, false)
		if out.Fault != nil {
			return s
		}
	}
	return 0
}
