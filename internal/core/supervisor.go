package core

import (
	"fmt"
	"time"

	"firstaid/internal/allocext"
	"firstaid/internal/app"
	"firstaid/internal/checkpoint"
	"firstaid/internal/diagnosis"
	"firstaid/internal/ledger"
	"firstaid/internal/patch"
	"firstaid/internal/proc"
	"firstaid/internal/replay"
	"firstaid/internal/report"
	"firstaid/internal/stages"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
	"firstaid/internal/validate"
)

// Config tunes a supervisor.
type Config struct {
	Machine    MachineConfig
	Diagnosis  diagnosis.Config
	Validation validate.Config
	// DisableValidation skips the post-recovery validation step.
	DisableValidation bool
	// ParallelValidation runs validation on a cloned machine in a
	// separate goroutine — the paper's design: "this step can be done in
	// parallel on a different processor core based on a snapshot of the
	// program so that it does not delay the failure recovery." Inconsistent
	// patches are revoked when the result is collected (each main-loop
	// iteration, and at the end of Run).
	ParallelValidation bool
	// Pool is the shared patch pool; a fresh one is created when nil.
	// Sharing a pool across supervisors models the paper's central
	// per-program pool protecting other processes and later runs.
	Pool *patch.Pool
	// Trace, when set, observes every main-loop event: the event, the
	// monotonic simulated time after processing it, and its fault (nil
	// on success). The throughput experiments (Figure 4) hook in here.
	Trace func(ev replay.Event, simNow uint64, fault *proc.Fault)
	// MaxRetriesPerEvent bounds repeated recovery attempts on the same
	// failing event before it is dropped (default 2).
	MaxRetriesPerEvent int
	// Ledger is the diagnosis ledger recoveries write through. When nil a
	// private ledger is created (unless DisableLedger is set); the fleet
	// passes one shared ledger to all of its workers.
	Ledger *ledger.Ledger
	// DisableLedger turns the ledger off entirely — overhead benchmarks
	// only. Recoveries then carry no Report either (a Report is a render
	// of a ledger entry).
	DisableLedger bool
	// Repro, when set, is the exact offline command that reproduces this
	// run (chaos sources); it is recorded on every diagnosis and lands in
	// the postmortem bundle's REPRO.txt.
	Repro string
	// CompactLog bounds the rolling replay log under streaming supervision:
	// after each checkpoint, the log prefix older than the oldest retained
	// checkpoint's cursor is discarded. Rollback can never reach past the
	// oldest retained checkpoint, so recovery semantics are unchanged; what
	// is given up is only whole-run offline replay (Log().Save still works
	// but replays from the compaction base, and OpsFromLog-style full-log
	// consumers see the retained window only). Off by default.
	CompactLog bool
	// Speculate races diagnosis hypotheses (the phase-1 candidate ladder,
	// the phase-2 class probes) on COW machine clones instead of
	// re-executing them serially, with a pre-warmed standby clone refreshed
	// at every checkpoint so recovery starts at zero clone cost. The engine
	// consumes speculative outcomes in serial program order, so verdicts,
	// ledger projections and site attribution are identical to the serial
	// pipeline — only recovery wall time changes. Forced off when
	// Machine.IntegrityCheckEvery > 1: that detector keeps a call-cadence
	// counter across probes, which is inherently serial state (a cadence of
	// 1 checks every event and is stateless).
	Speculate bool
}

// Recovery records one failure-recovery episode.
type Recovery struct {
	Fault            *proc.Fault
	Result           diagnosis.Result
	Patches          []*patch.Patch
	RecoveryWall     time.Duration
	ValidationWall   time.Duration
	Validated        bool
	ValidationResult *validate.Result
	Report           *report.Report
	// Ledger is the recovery's lifecycle object in the diagnosis ledger
	// (nil when the ledger is disabled).
	Ledger *ledger.Entry
	// Skipped: diagnosis could not produce a patch and the failing
	// request was dropped instead (the "resort to other recovery
	// schemes" fallback of §2).
	Skipped bool
}

// Stats summarises a supervised run.
type Stats struct {
	Events      int
	Failures    int
	Recoveries  int
	Skipped     int
	SimSeconds  float64
	PatchesMade int
}

// Supervisor runs one program under First-Aid.
type Supervisor struct {
	M     *Machine
	Pool  *patch.Pool
	Bound *patch.Bound

	cfg        Config
	Recoveries []*Recovery

	ldg       *ledger.Ledger
	streaming bool // an Ingest/resolve has run: recoveries are "stream" mode

	// spec races diagnosis probes on clones minted by host; both are nil
	// when speculation is off.
	spec *stages.Speculator
	host *specHost

	events   int
	failures int
	retries  map[int]int

	// pending holds in-flight parallel validations.
	pending []*pendingValidation

	met supMetrics
}

// supMetrics holds the supervisor's pre-resolved telemetry instruments; the
// zero value (all nil) discards updates.
type supMetrics struct {
	failures       *telemetry.Counter
	recoveries     *telemetry.Counter
	skipped        *telemetry.Counter
	nondet         *telemetry.Counter
	patchesMade    *telemetry.Counter
	patchRevoked   *telemetry.Counter
	patchValidated *telemetry.Counter
	recoveryWallUS *telemetry.Histogram
	validWallUS    *telemetry.Histogram
	queueDepth     *telemetry.Gauge
}

// pendingValidation tracks one asynchronous validation. The goroutine
// fills rec.ValidationResult/ValidationWall and closes done; the main
// thread applies the verdict (mark validated / revoke) when it collects.
// The clone's telemetry registry rides along so the main thread can fold
// the clone's counters into the parent race-free at collect time.
type pendingValidation struct {
	rec      *Recovery
	done     chan struct{}
	cloneTel *telemetry.Registry
}

// NewSupervisor builds the machine, attaches the patch pool, and leaves the
// program initialised at checkpoint #0.
func NewSupervisor(prog app.Program, log *replay.Log, cfg Config) *Supervisor {
	if cfg.MaxRetriesPerEvent == 0 {
		cfg.MaxRetriesPerEvent = 2
	}
	m := NewMachine(prog, log, cfg.Machine)
	pool := cfg.Pool
	if pool == nil {
		pool = patch.NewPool(prog.Name())
	}
	ldg := cfg.Ledger
	if ldg == nil && !cfg.DisableLedger {
		ldg = ledger.New(ledger.DefaultCapacity)
	}
	s := &Supervisor{
		M:       m,
		Pool:    pool,
		Bound:   pool.Bind(m.Proc.Sites),
		cfg:     cfg,
		ldg:     ldg,
		retries: map[int]int{},
	}
	m.SetPatches(s.Bound)
	s.Bound.SetMetrics(m.Tel)
	if cfg.Pool == nil {
		// A locally-created pool belongs to this supervisor alone: route
		// its mutation records onto this machine's track. A shared pool is
		// wired by its owner (the fleet) instead, so one worker's emitter
		// does not claim mutations made by its siblings.
		pool.SetTracer(m.TraceEmitter())
	}
	// With a nil registry every instrument resolves to nil and stays a
	// no-op; recover() and Run() carry no telemetry conditionals.
	s.met = supMetrics{
		failures:       m.Tel.Counter("core.failures"),
		recoveries:     m.Tel.Counter("core.recoveries"),
		skipped:        m.Tel.Counter("core.skipped_events"),
		nondet:         m.Tel.Counter("core.nondeterministic"),
		patchesMade:    m.Tel.Counter("patch.generated"),
		patchRevoked:   m.Tel.Counter("patch.revocations"),
		patchValidated: m.Tel.Counter("patch.validated"),
		recoveryWallUS: m.Tel.Histogram("core.recovery_wall_us"),
		validWallUS:    m.Tel.Histogram("core.validation_wall_us"),
		queueDepth:     m.Tel.Gauge("core.pending_validations"),
	}
	if cfg.Speculate && cfg.Machine.IntegrityCheckEvery <= 1 {
		s.host = &specHost{m: m}
		s.spec = stages.NewSpeculator(s.host, m.Tel, m.TraceEmitter())
		// Pre-warm the first standby at checkpoint #0: right after
		// NewMachine's Take the machine state is exactly the checkpoint
		// state, so the clone is a faithful stand-in for a rollback.
		s.host.Refresh(m.Ckpt.Latest())
	}
	return s
}

// Telemetry returns the machine's registry (nil when telemetry is off).
func (s *Supervisor) Telemetry() *telemetry.Registry { return s.M.Tel }

// Speculation returns the lifetime speculative-execution stats (the zero
// value when speculation is off).
func (s *Supervisor) Speculation() stages.SpecStats {
	if s.spec == nil {
		return stages.SpecStats{}
	}
	return s.spec.Totals()
}

// Ledger returns the diagnosis ledger (nil when disabled).
func (s *Supervisor) Ledger() *ledger.Ledger { return s.ldg }

// mode names how recoveries execute under this supervisor, for the
// diagnosis record: "stream" once live ingestion has started, otherwise
// "parallel" (clone-validated) or "sync".
func (s *Supervisor) mode() string {
	switch {
	case s.streaming:
		return "stream"
	case s.cfg.ParallelValidation:
		return "parallel"
	default:
		return "sync"
	}
}

// SimSeconds returns the monotonic simulated time consumed so far,
// including re-execution work during recovery (rollbacks rewind the process
// clock, not this timeline).
func (s *Supervisor) SimSeconds() float64 { return s.M.SimSeconds() }

// Run processes the whole input log, recovering from failures as they
// occur, and returns the run statistics.
func (s *Supervisor) Run() Stats {
	s.drain()
	return s.Finish()
}

// drain processes events until the log cursor reaches the tail, recovering
// from failures as they occur. It is the shared main loop of offline Run
// (the whole log is the tail) and streaming Ingest (the tail advances one
// event at a time); a recovery rewinds the cursor, so the loop naturally
// re-executes up to the tail before returning.
func (s *Supervisor) drain() {
	for {
		s.collectValidations(false)
		if cp := s.M.Ckpt.MaybeCheckpoint(); cp != nil {
			if s.host != nil {
				// Refresh the standby clone while the machine state still
				// equals the fresh checkpoint's: the next recovery's first
				// hypothesis then launches at zero clone cost.
				s.host.Refresh(cp)
			}
			if s.cfg.CompactLog && s.streaming {
				// A fresh checkpoint may have evicted the oldest retained
				// one, moving the rollback horizon forward; everything
				// before it is unreachable and can be freed.
				if cps := s.M.Ckpt.Checkpoints(); len(cps) > 0 {
					s.M.Log.Compact(cps[0].Cursor)
				}
			}
		}
		s.M.SyncClock()
		cursorBefore := s.M.Log.Cursor()
		f, ok := s.M.Step()
		if !ok {
			return
		}
		s.events++
		if s.cfg.Trace != nil {
			ev := s.M.Log.At(cursorBefore)
			s.cfg.Trace(ev, s.M.SimNow(), f)
		}
		if f != nil {
			s.failures++
			s.met.failures.Inc()
			s.recover(f)
		}
	}
}

// Finish collects all outstanding parallel validations and returns the
// statistics accumulated so far. The supervisor stays usable: streaming
// callers may keep ingesting after a Finish.
func (s *Supervisor) Finish() Stats {
	s.collectValidations(true)
	st := Stats{
		Events:     s.events,
		Failures:   s.failures,
		SimSeconds: s.SimSeconds(),
	}
	for _, r := range s.Recoveries {
		if r.Skipped {
			st.Skipped++
		} else {
			st.Recoveries++
		}
		st.PatchesMade += len(r.Patches)
	}
	return st
}

// IngestResult reports how one live event was resolved by streaming
// supervision. The event is recorded into the replay log before execution,
// so Seq is also its replay position in the recorded stream.
type IngestResult struct {
	Seq       int    // position assigned by the recorder
	Failed    bool   // the event faulted at least once before resolution
	Recovered bool   // a diagnose→patch→rollback cycle resolved it
	Skipped   bool   // the last-resort fallback dropped it
	Failures  int    // faults observed while resolving it (retries included)
	SimCycles uint64 // simulated time consumed resolving it
}

// Ingest records one live event into the replay log and processes it
// immediately — the streaming counterpart of Run. The front-end calling
// Ingest is the paper's network input recorder: because the event is
// appended before execution, checkpoint/rollback/diagnosis replay it
// exactly as a pre-recorded input, and the accumulated log re-runs
// offline with identical results. On a failure the full recovery cycle
// (including re-execution back to the tail, retries, and the skip
// fallback) completes before Ingest returns.
func (s *Supervisor) Ingest(kind, data string, n int) IngestResult {
	return s.resolve(s.M.Log.Append(kind, data, n))
}

// IngestEvent is Ingest for an already-built event (its Seq is reassigned
// by the recorder).
func (s *Supervisor) IngestEvent(ev replay.Event) IngestResult {
	return s.resolve(s.M.Log.AppendEvent(ev))
}

// resolve drains the log to the tail and attributes everything that
// happened — faults, recoveries, skips, simulated time — to the event at
// seq, the only event that entered the system since the last drain.
func (s *Supervisor) resolve(seq int) IngestResult {
	s.streaming = true
	failures0 := s.failures
	recov0 := len(s.Recoveries)
	sim0 := s.M.SimNow()
	s.M.TraceEmitter().Emit(trace.KEventBegin, uint64(seq), 0)
	s.drain()
	res := IngestResult{
		Seq:       seq,
		Failures:  s.failures - failures0,
		SimCycles: s.M.SimNow() - sim0,
	}
	res.Failed = res.Failures > 0
	for _, rec := range s.Recoveries[recov0:] {
		if rec.Skipped {
			res.Skipped = true
		} else {
			res.Recovered = true
		}
	}
	outcome := uint64(trace.OutcomeOK)
	switch {
	case res.Skipped:
		outcome = trace.OutcomeSkipped
	case res.Recovered:
		outcome = trace.OutcomeRecovered
	}
	s.M.TraceEmitter().Emit(trace.KEventEnd, uint64(seq), outcome)
	return res
}

// BatchResult reports how one ingested batch was resolved. Counts are
// aggregated across the batch; per-event attribution is deliberately not
// materialized on this path (the point of batching is to amortize that
// bookkeeping away).
type BatchResult struct {
	First      int    // sequence assigned to the first event of the batch
	Events     int    // events recorded and executed
	Failures   int    // faults observed (retries included)
	Recoveries int    // diagnose→patch→rollback cycles completed
	Skipped    int    // events dropped by the last-resort fallback
	SimCycles  uint64 // simulated time consumed by the batch
}

// IngestBatch records a whole batch of live events into the replay log and
// then executes them — the amortized counterpart of calling Ingest once
// per event, with identical observable behavior. Record-before-execute
// covers the full batch: every event is durable in the log before the
// first one runs. To keep recovery semantics byte-identical to serial
// ingest, the log's visibility fence is advanced one event at a time, so a
// failure inside the batch re-executes against exactly the tail a serial
// run would have had — later batch events are recorded but not yet
// visible to rollback re-execution, validation, or the skip fallback.
// Per-event KEventBegin/End trace records are replaced by one
// KBatchBegin/End pair.
func (s *Supervisor) IngestBatch(items []replay.Item) BatchResult {
	s.streaming = true
	first := s.M.Log.AppendBatch(items)
	res := BatchResult{First: first, Events: len(items)}
	if len(items) == 0 {
		return res
	}
	failures0, recov0, sim0 := s.failures, len(s.Recoveries), s.M.SimNow()
	s.M.TraceEmitter().Emit(trace.KBatchBegin, uint64(first), uint64(len(items)))
	for seq := first; seq < first+len(items); seq++ {
		s.M.Log.SetFence(seq + 1)
		s.drain()
	}
	s.M.Log.ClearFence()
	s.M.TraceEmitter().Emit(trace.KBatchEnd, uint64(first), uint64(len(items)))
	res.Failures = s.failures - failures0
	res.SimCycles = s.M.SimNow() - sim0
	for _, rec := range s.Recoveries[recov0:] {
		if rec.Skipped {
			res.Skipped++
		} else {
			res.Recoveries++
		}
	}
	return res
}

// Serve consumes live events from src until it is closed, recording each
// into the replay log and processing it immediately. Per-event outcomes are
// delivered to sink when non-nil. Returns the final statistics (pending
// parallel validations are collected first).
func (s *Supervisor) Serve(src <-chan replay.Event, sink func(IngestResult)) Stats {
	for ev := range src {
		r := s.IngestEvent(ev)
		if sink != nil {
			sink(r)
		}
	}
	return s.Finish()
}

// Log returns the supervisor's input log — under streaming supervision,
// the rolling record of every event ingested so far.
func (s *Supervisor) Log() *replay.Log { return s.M.Log }

// window estimates the success horizon: events corresponding to ~3
// checkpoint intervals beyond the failure (§4.1's conservative end point).
func (s *Supervisor) window() int {
	cps := s.M.Ckpt.Checkpoints()
	if len(cps) >= 2 {
		span := cps[len(cps)-1].Cursor - cps[0].Cursor
		if per := span / (len(cps) - 1); per > 0 {
			w := 3 * per
			if w < 5 {
				w = 5
			}
			if w > 400 {
				w = 400
			}
			return w
		}
	}
	return 30
}

// recover diagnoses the failure, generates and applies patches, rolls back,
// validates and reports (Figure 1's full cycle) — by running the
// supervisor's recovery plan, an ordered list of stages over a shared
// context (see internal/stages and recovery.go).
func (s *Supervisor) recover(f *proc.Fault) {
	ep := &recoveryEpisode{s: s, f: f, t0: time.Now()}
	ep.failCursor = s.M.Log.Cursor() // the failing event is consumed
	ep.until = ep.failCursor + s.window()
	c := &stages.Ctx{
		Fault:      f,
		FailCursor: ep.failCursor,
		Until:      ep.until,
		NewSession: ep.newSession,
	}
	s.recoveryPlan(ep).Run(c)
}

// validationOutcome names a validation verdict for the path step.
func validationOutcome(v *validate.Result) string {
	if v.Consistent {
		return "consistent"
	}
	return "inconsistent"
}

// applyValidation applies a completed validation verdict to the pool.
func (s *Supervisor) applyValidation(rec *Recovery) {
	if rec.ValidationResult == nil {
		return
	}
	if rec.ValidationResult.Consistent {
		rec.Validated = true
		for _, p := range rec.Patches {
			s.Pool.MarkValidated(p.ID)
		}
		s.met.patchValidated.Add(uint64(len(rec.Patches)))
		return
	}
	for _, p := range rec.Patches {
		s.Pool.Revoke(p.ID)
	}
	s.met.patchRevoked.Add(uint64(len(rec.Patches)))
	s.Bound.Invalidate()
}

// collectValidations harvests finished (or, when block is set, all)
// parallel validations, applying their verdicts and completing reports.
func (s *Supervisor) collectValidations(block bool) {
	remaining := s.pending[:0]
	for _, pv := range s.pending {
		if block {
			<-pv.done
		} else {
			select {
			case <-pv.done:
			default:
				remaining = append(remaining, pv)
				continue
			}
		}
		// The validation goroutine timed itself on the clone's track; its
		// step joins the path here, on the entry's only writer.
		rec := pv.rec
		v := rec.ValidationResult
		rec.Ledger.Update(func(d *ledger.Diagnosis) {
			d.Path = append(d.Path, ledger.Step{
				Name:    trace.PhaseName(trace.PhaseValidation),
				WallNS:  rec.ValidationWall.Nanoseconds(),
				N:       uint64(len(v.Traces)),
				Outcome: validationOutcome(v),
			})
		})
		s.applyValidation(rec)
		s.finishRecovery(rec)
		// Fold the clone's telemetry into the parent on the main
		// goroutine, after the validation goroutine has closed done, so
		// it never races with the clone.
		s.M.Tel.Merge(pv.cloneTel)
	}
	s.pending = remaining
	s.met.queueDepth.Set(int64(len(s.pending)))
}

// finishRecovery records the validation verdict and installed patches on
// the recovery's ledger entry, closes it, and renders the report from the
// closed entry. Called on the main goroutine only (the disabled- and
// inline-validation paths, and the parallel collect).
func (s *Supervisor) finishRecovery(rec *Recovery) {
	// Snapshot the patches under the pool lock: with several processes
	// sharing the pool, flags may be mutating while we render.
	snap := make([]*patch.Patch, 0, len(rec.Patches))
	for _, p := range rec.Patches {
		if q, ok := s.Pool.Get(p.ID); ok {
			snap = append(snap, &q)
		}
	}

	entry := rec.Ledger
	succeeded, outcome := true, "recovered"
	// The condition clocks anchor to the recovery checkpoint — the
	// deterministic process-clock point both the verdict and the installed
	// patches refer to, identical across sync/parallel/stream modes.
	var cpClock uint64
	if rec.Result.Checkpoint != nil {
		cpClock = rec.Result.Checkpoint.Clock
	}
	if v := rec.ValidationResult; v != nil {
		s.met.validWallUS.Observe(uint64(rec.ValidationWall.Microseconds()))
		cond := ledger.Condition{Clock: cpClock, Validation: ledger.NewValidationInfo(v)}
		if v.Consistent {
			cond.Type = ledger.ValidationPassed
			cond.Message = fmt.Sprintf("consistent across %d randomized re-executions", len(v.Traces))
		} else {
			cond.Type = ledger.ValidationFailed
			cond.Message = v.Reason
			succeeded, outcome = false, "patches-revoked"
		}
		entry.Add(cond)
	}
	if succeeded && len(snap) > 0 {
		pis := make([]ledger.PatchInfo, len(snap))
		for i, p := range snap {
			pis[i] = ledger.NewPatchInfo(p)
		}
		entry.Add(ledger.Condition{
			Type:    ledger.PatchInstalled,
			Clock:   cpClock,
			Message: fmt.Sprintf("%d patch(es) active in pool", len(snap)),
			Patches: pis,
		})
	}
	entry.Update(func(d *ledger.Diagnosis) {
		d.ValidationRef = rec.ValidationResult
		d.PatchRefs = snap
		d.RecoverySec = rec.RecoveryWall.Seconds()
		d.ValidationSec = rec.ValidationWall.Seconds()
	})
	entry.Close(succeeded, outcome, s.M.TraceClock(), s.M.TraceEmitter().Tracer().Emitted())
	rec.Report = report.FromDiagnosis(entry.Snapshot())
}

// WritePostmortems writes one postmortem bundle per ledger diagnosis into
// dir and returns the paths. Offline flows (firstaid-run -postmortem, CI
// failure hooks) call it after the run completes.
func (s *Supervisor) WritePostmortems(dir string) ([]string, error) {
	if s.ldg == nil {
		return nil, nil
	}
	snap := telemetry.MergedSnapshot(s.M.Tel)
	var paths []string
	for _, d := range s.ldg.List(ledger.Filter{Worker: ledger.AnyWorker}) {
		in := report.BundleFor(d, s.cfg.Machine.Trace, &snap)
		p, err := report.WriteBundleFile(dir, in)
		if err != nil {
			return paths, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// skipFailingEvent is the last-resort fallback: roll back to the latest
// checkpoint, replay up to the failing event, and drop it.
func (s *Supervisor) skipFailingEvent(failCursor int) {
	cp := s.M.Ckpt.Latest()
	s.M.Rollback(cp)

	for s.M.Log.Cursor() < failCursor-1 {
		if f, ok := s.M.Step(); !ok || f != nil {
			break
		}
		s.M.SyncClock()
	}
	s.M.Log.SetCursor(failCursor)
}

// Checkpoint exposes the manager (experiments read Table-7 stats from it).
func (s *Supervisor) Checkpoint() *checkpoint.Manager { return s.M.Ckpt }

// Ext exposes the allocator extension (experiments read space stats).
func (s *Supervisor) Ext() *allocext.Ext { return s.M.Ext }
