package core

import (
	"fmt"
	"time"

	"firstaid/internal/diagnosis"
	"firstaid/internal/ledger"
	"firstaid/internal/mmbug"
	"firstaid/internal/patch"
	"firstaid/internal/proc"
	"firstaid/internal/report"
	"firstaid/internal/stages"
	"firstaid/internal/trace"
	"firstaid/internal/validate"
)

// recoveryEpisode carries one recovery's supervisor-side state across the
// stages of the recovery plan: the wall-clock origin, the replay window,
// the trace/ledger handles opened by the monitor stage, and the Recovery
// record built by triage for the later stages to complete.
type recoveryEpisode struct {
	s *Supervisor
	f *proc.Fault

	t0         time.Time
	failCursor int
	until      int

	trc   trace.Emitter
	entry *ledger.Entry

	rec *Recovery
	res diagnosis.Result
}

// recoveryPlan is the supervisor's recovery strategy as data: the monitor
// stage opens the episode, the four diagnosis stages drive the engine
// session (with the guard fast path leading), and triage/patch-gen/
// rollback/validate complete Figure 1's cycle. Terminal outcomes
// (non-deterministic screen, skip after repeated failure) stop the plan
// early from triage.
func (s *Supervisor) recoveryPlan(ep *recoveryEpisode) stages.Plan {
	return stages.Plan{Name: "first-aid", Stages: []stages.Stage{
		&monitorStage{ep},
		stages.EvidenceConfirm,
		stages.Screen,
		stages.CheckpointSelect,
		stages.Identify,
		&triageStage{ep},
		&patchGenStage{ep},
		&rollbackStage{ep},
		&validateStage{ep},
	}}
}

// newSession builds the diagnosis engine for this episode and opens its
// session; installed as Ctx.NewSession so the diagnosis stages stay
// decoupled from engine construction.
func (ep *recoveryEpisode) newSession(c *stages.Ctx) *diagnosis.Session {
	s, f := ep.s, ep.f
	dcfg := s.cfg.Diagnosis
	dcfg.Metrics = s.M.Tel
	dcfg.Trace = ep.trc
	dcfg.DetectedEarly = f.Early
	if f.GuardBug != mmbug.None {
		// A sampled guard-page hit carries direct evidence — class, exact
		// call-site, and the clock of the decisive operation. Hand it to the
		// engine so a single confirmation re-execution can replace the
		// phase-1 checkpoint search and phase-2 identification.
		dcfg.Evidence = &diagnosis.Evidence{Bug: f.GuardBug, Site: f.GuardSite, Clock: f.GuardClock}
	}
	dcfg.Ledger = ep.entry
	if s.spec != nil {
		dcfg.Prober = s.spec
	}
	return diagnosis.New(s.M, dcfg).Session(c.Until)
}

// monitorStage opens the recovery episode: the ledger lifecycle entry with
// the fault and guard-evidence conditions, and the trace phase. It leaves
// the entry/trace handles on the context for the downstream stages.
type monitorStage struct{ ep *recoveryEpisode }

func (st *monitorStage) Name() string { return "monitor" }

func (st *monitorStage) Run(c *stages.Ctx) stages.Status {
	ep := st.ep
	s, f := ep.s, ep.f

	// Open the lifecycle object before any recovery work: TraceFrom is the
	// trace cursor at this instant, so the entry's trace slice covers every
	// record the recovery emits. Every phase the recovery runs — the
	// diagnosis engine's, then patch-gen, rollback and validation — is
	// opened with entry.Phase, which times it once into both the entry's
	// path and nested phase records on the machine's trace track.
	ep.trc = s.M.TraceEmitter()
	ep.entry = s.ldg.Begin(ledger.Meta{
		Source:    s.M.Prog.Name(),
		Worker:    s.cfg.Machine.TraceWorker,
		Mode:      s.mode(),
		Event:     f.Event,
		Repro:     s.cfg.Repro,
		Cycles:    s.M.TraceClock(),
		TraceFrom: ep.trc.Tracer().Emitted(),
	})
	ep.entry.Add(ledger.Condition{
		Type:    ledger.FaultObserved,
		Clock:   f.Clock,
		Message: f.Error(),
		Fault:   ledger.NewFaultInfo(f),
	})
	if f.GuardBug != mmbug.None {
		attribution := "quarantined-free-site"
		if f.GuardBug.AtAllocation() {
			attribution = "alloc-site"
		}
		ep.entry.Add(ledger.Condition{
			Type:    ledger.GuardEvidence,
			Clock:   f.GuardClock,
			Message: fmt.Sprintf("sampled guard page claimed %v at %v", f.GuardBug, s.M.SiteKey(f.GuardSite)),
			Guard: &ledger.GuardInfo{
				Bug:         f.GuardBug.String(),
				Site:        s.M.SiteKey(f.GuardSite).String(),
				Clock:       f.GuardClock,
				Attribution: attribution,
			},
		})
	}
	ep.entry.Run()

	ep.trc.Emit(trace.KPhaseBegin, trace.PhaseRecovery, uint64(f.Event))
	if f.Early {
		// The trap came from a protected region's eager check: corruption
		// was caught at the event that caused it, not at a later use. The
		// path and trace record the zero-event detection latency.
		ep.entry.Phase(ep.trc, trace.PhaseEarlyDetect, uint64(f.Event))(0, "same-event")
	}

	c.Entry, c.Trace = ep.entry, ep.trc
	return stages.Next
}

// triageStage seals the diagnosis session, records the Recovery and its
// ledger projection (including the speculation summary), and routes the
// terminal outcomes: non-deterministic failures continue from the screen's
// post-failure state, undiagnosable or repeatedly-failing events are
// skipped. Both stop the plan.
type triageStage struct{ ep *recoveryEpisode }

func (st *triageStage) Name() string { return "triage" }

func (st *triageStage) Run(c *stages.Ctx) stages.Status {
	ep := st.ep
	s, f := ep.s, ep.f

	res := c.Session().Result()
	ep.res = res
	c.Result = &ep.res
	rec := &Recovery{Fault: f, Result: res, Ledger: ep.entry}
	ep.rec = rec
	s.Recoveries = append(s.Recoveries, rec)
	if s.spec != nil {
		if es := s.spec.Episode(); es.Launched > 0 {
			// Excluded from the canonical projection: speculation changes
			// wall time, never verdicts, so the summary is observability
			// only and serial runs must stay byte-identical.
			ep.entry.Add(ledger.Condition{
				Type:  ledger.SpeculationSummary,
				Clock: f.Clock,
				Message: fmt.Sprintf("%d hypothesis(es) raced on clones: %d consumed, %d cancelled, %d standby",
					es.Launched, es.Won, es.Cancelled, es.StandbyHits),
				Speculation: &ledger.SpecInfo{
					Launched:  es.Launched,
					Won:       es.Won,
					Cancelled: es.Cancelled,
					Standby:   es.StandbyHits,
				},
			})
		}
	}
	ep.entry.Update(func(d *ledger.Diagnosis) {
		d.Rollbacks = res.Rollbacks
		d.FastPath = res.FastPath
		d.DiagLog = append([]string(nil), res.Log...)
		d.FaultRef = f
		d.SiteKey = s.M.SiteKey
	})

	if res.Nondeterministic {
		// The plain re-execution already carried the program past the
		// failure region; continue from its state.
		s.met.nondet.Inc()
		return ep.stop(true, "nondeterministic")
	}

	s.retries[f.Event]++
	if !res.OK() || s.retries[f.Event] > s.cfg.MaxRetriesPerEvent {
		s.skipFailingEvent(ep.failCursor)
		rec.Skipped = true
		s.met.skipped.Inc()
		return ep.stop(false, "skipped")
	}
	return stages.Next
}

// stop closes a recovery that triage ends early — non-deterministic or
// skipped — and stops the plan.
func (ep *recoveryEpisode) stop(succeeded bool, outcome string) stages.Status {
	s, rec := ep.s, ep.rec
	rec.RecoveryWall = time.Since(ep.t0)
	s.met.recoveryWallUS.Observe(uint64(rec.RecoveryWall.Microseconds()))
	ep.trc.Emit(trace.KPhaseEnd, trace.PhaseRecovery, uint64(ep.res.Rollbacks))
	ep.entry.Update(func(d *ledger.Diagnosis) { d.RecoverySec = rec.RecoveryWall.Seconds() })
	ep.entry.Close(succeeded, outcome, s.M.TraceClock(), ep.trc.Tracer().Emitted())
	rec.Report = report.FromDiagnosis(ep.entry.Snapshot())
	return stages.Stop
}

// patchGenStage turns the diagnosis findings into pool patches.
type patchGenStage struct{ ep *recoveryEpisode }

func (st *patchGenStage) Name() string { return "patch-gen" }

func (st *patchGenStage) Run(c *stages.Ctx) stages.Status {
	ep := st.ep
	s, f := ep.s, ep.f
	rec, res := ep.rec, ep.res

	endGen := ep.entry.Phase(ep.trc, trace.PhasePatchGen, uint64(f.Event))
	for _, fd := range res.Findings {
		for _, site := range fd.Sites {
			np := patch.New(fd.Bug, s.M.SiteKey(site))
			np.Origin = fmt.Sprintf("diagnosed from failure at event #%d", f.Event)
			rec.Patches = append(rec.Patches, s.Pool.Add(np))
		}
	}
	s.Bound.Invalidate()
	s.met.patchesMade.Add(uint64(len(rec.Patches)))
	endGen(uint64(len(rec.Patches)), "")
	if len(rec.Patches) > 0 {
		pis := make([]ledger.PatchInfo, len(rec.Patches))
		for i, p := range rec.Patches {
			// Read the flags under the pool lock: a pool shared with other
			// supervisors may be coalescing their adds into this patch.
			q, _ := s.Pool.Get(p.ID)
			pis[i] = ledger.NewPatchInfo(&q)
		}
		ep.entry.Add(ledger.Condition{
			Type:    ledger.PatchGenerated,
			Clock:   f.Clock,
			Message: fmt.Sprintf("%d patch(es) generated from %d finding(s)", len(rec.Patches), len(res.Findings)),
			Patches: pis,
		})
	}
	return stages.Next
}

// rollbackStage rolls back to the chosen checkpoint so the main loop
// re-executes from there in normal mode with the patches active, and
// closes the recovery timing.
type rollbackStage struct{ ep *recoveryEpisode }

func (st *rollbackStage) Name() string { return "rollback" }

func (st *rollbackStage) Run(c *stages.Ctx) stages.Status {
	ep := st.ep
	s, f := ep.s, ep.f
	rec, res := ep.rec, ep.res

	endRb := ep.entry.Phase(ep.trc, trace.PhaseRollback, uint64(res.Checkpoint.Seq))
	s.M.Rollback(res.Checkpoint)
	s.M.Ckpt.DropAfter(res.Checkpoint)
	if f.GuardBug != mmbug.None && f.GuardSite != 0 {
		// The site is a confirmed offender: pin its sampling rate to 1/1
		// before any validation clone is taken so clones inherit the boost.
		s.M.Ext.GuardBoost(f.GuardSite)
	}
	endRb(1, "")

	rec.RecoveryWall = time.Since(ep.t0)
	s.met.recoveries.Inc()
	s.met.recoveryWallUS.Observe(uint64(rec.RecoveryWall.Microseconds()))
	return stages.Next
}

// validateStage validates the installed patches on the buggy region. In
// parallel mode a cloned machine validates on another goroutine while the
// main loop resumes immediately — the paper's design; otherwise it runs
// inline, timed apart from recovery.
type validateStage struct{ ep *recoveryEpisode }

func (st *validateStage) Name() string { return "validate" }

func (st *validateStage) Run(c *stages.Ctx) stages.Status {
	ep := st.ep
	s, f := ep.s, ep.f
	rec, res := ep.rec, ep.res
	trc, until := ep.trc, ep.until

	switch {
	case s.cfg.DisableValidation:
		trc.Emit(trace.KPhaseEnd, trace.PhaseRecovery, uint64(res.Rollbacks))
		s.finishRecovery(rec)
	case s.cfg.ParallelValidation:
		clone := s.M.Clone()
		frozen := s.Pool.Clone().Bind(clone.Proc.Sites)
		frozen.SetMetrics(clone.Tel)
		clone.SetPatches(frozen)
		cpClone := clone.Ckpt.Take()
		pv := &pendingValidation{
			rec:      rec,
			done:     make(chan struct{}),
			cloneTel: clone.Tel,
		}
		s.pending = append(s.pending, pv)
		s.met.queueDepth.Set(int64(len(s.pending)))
		// The main loop resumes now; the validation runs concurrently and
		// traces on the clone's derived track, so its B/E pair nests
		// cleanly even while the parent track keeps executing. The entry
		// has one writer, the main goroutine, so the validation times
		// itself through a nil entry and its path step is appended when
		// the result is collected.
		trc.Emit(trace.KPhaseEnd, trace.PhaseRecovery, uint64(res.Rollbacks))
		go func() {
			endVal := (*ledger.Entry)(nil).Phase(clone.TraceEmitter(), trace.PhaseValidation, uint64(f.Event))
			v := validate.New(clone, s.cfg.Validation).Validate(cpClone, until)
			rec.ValidationResult = &v
			rec.ValidationWall = endVal(uint64(len(v.Traces)), "")
			close(pv.done)
		}()
		// The report is completed when the validation is collected on the
		// main goroutine.
	default:
		endVal := ep.entry.Phase(trc, trace.PhaseValidation, uint64(f.Event))
		v := validate.New(s.M, s.cfg.Validation).Validate(res.Checkpoint, until)
		rec.ValidationResult = &v
		rec.ValidationWall = endVal(uint64(len(v.Traces)), validationOutcome(&v))
		s.applyValidation(rec)
		// Return to the recovery point for resumption.
		s.M.Rollback(res.Checkpoint)
		trc.Emit(trace.KPhaseEnd, trace.PhaseRecovery, uint64(res.Rollbacks))
		s.finishRecovery(rec)
	}
	return stages.Next
}
