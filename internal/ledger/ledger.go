// Package ledger is the diagnosis ledger: every recovery attempt — sync,
// parallel-validated or streaming — is recorded as a first-class Diagnosis
// object with a kubediag-style lifecycle (Pending → Running →
// Succeeded/Failed) and a typed Conditions list carrying the evidence
// chain that drove it: the observed fault, guard-page attribution, the
// candidate checkpoints phase-1 probed and why it rejected them, the
// generated patch parameters and the per-iteration validation verdicts.
//
// Each diagnosis also records the Path it took, kubediag's SucceededPath:
// one Step per recovery phase, with its wall time, work count and outcome.
// Entry.Phase is the only instrumentation point for a phase — it emits the
// phase's trace begin/end records and appends the step — so the trace (the
// timeline) and the ledger (the retained record) cannot disagree.
//
// The ledger is an in-process store shaped like the telemetry layer:
// bounded rings, monotonic IDs, and a single-writer discipline (the
// supervisor goroutine is the only mutator of an open entry; parallel
// validation results are appended at collect time on that same goroutine)
// so recoveries stay race-clean. Readers (the fleet HTTP surface, report
// rendering, postmortem bundles) get deep copies under the lock.
//
// The object and its JSON are the wire schema the control-plane PR will
// serve between nodes; Canonical() is the mode-invariant projection used
// by the determinism tests — it excludes wall-clock stamps, machine cycle
// counts and other fields that legitimately differ between supervision
// modes of the same seed.
package ledger

import (
	"encoding/json"
	"sync"
	"time"

	"firstaid/internal/callsite"
	"firstaid/internal/patch"
	"firstaid/internal/proc"
	"firstaid/internal/trace"
	"firstaid/internal/validate"
)

// Phase is the lifecycle phase of a Diagnosis.
type Phase string

// Lifecycle phases, kubediag-style.
const (
	PhasePending   Phase = "Pending"   // fault observed, recovery not yet started
	PhaseRunning   Phase = "Running"   // diagnosis/patch/validation in flight
	PhaseSucceeded Phase = "Succeeded" // recovered (or correctly screened as non-deterministic)
	PhaseFailed    Phase = "Failed"    // recovery skipped or patches revoked
)

// ConditionType identifies a step of the evidence chain.
type ConditionType string

// The condition taxonomy. Conditions appear in the order the recovery
// produced them; a Diagnosis never carries two conditions of the same
// type.
const (
	// FaultObserved: the monitor trapped a fault; evidence is the fault.
	FaultObserved ConditionType = "FaultObserved"
	// GuardEvidence: a sampled guard page claimed the fault, with the
	// manifested class, the implicated site (QuarFreeSite attribution
	// for dangling/double-free, alloc site for overflow) and the process
	// clock of the decisive operation.
	GuardEvidence ConditionType = "GuardEvidence"
	// Phase1Skipped: guard evidence was confirmed by a single scoped
	// re-execution, so the phase-1 checkpoint search did not run.
	Phase1Skipped ConditionType = "Phase1Skipped"
	// Phase1Completed: the phase-1 checkpoint search concluded; evidence
	// is every candidate checkpoint probed and why it was rejected.
	Phase1Completed ConditionType = "Phase1Completed"
	// CheckpointSelected: the rollback base for phase 2 and validation.
	CheckpointSelected ConditionType = "CheckpointSelected"
	// PatchGenerated: phase 2 identified class+site and patches were cut.
	PatchGenerated ConditionType = "PatchGenerated"
	// ValidationPassed / ValidationFailed: the randomized consistency
	// check verdict, with per-iteration detail.
	ValidationPassed ConditionType = "ValidationPassed"
	ValidationFailed ConditionType = "ValidationFailed"
	// PatchInstalled: the surviving patches as they entered the pool.
	PatchInstalled ConditionType = "PatchInstalled"
	// SpeculationSummary: the recovery raced diagnosis hypotheses on
	// speculative clones; evidence is how many were launched, consumed and
	// cancelled. Excluded from the canonical projection — speculation is
	// an execution strategy, not an observable verdict.
	SpeculationSummary ConditionType = "SpeculationSummary"
)

// SpecInfo summarizes one recovery's speculative execution: hypotheses
// launched on clones, outcomes the engine actually consumed, losers torn
// down, and how many launches were served by the pre-warmed standby clone.
type SpecInfo struct {
	Launched  int `json:"launched"`
	Won       int `json:"won"`
	Cancelled int `json:"cancelled"`
	Standby   int `json:"standby,omitempty"`
}

// FaultInfo is the wire form of a trapped fault.
type FaultInfo struct {
	Kind  string   `json:"kind"`
	Addr  uint64   `json:"addr,omitempty"`
	Msg   string   `json:"msg,omitempty"`
	Instr string   `json:"instr,omitempty"`
	Stack []string `json:"stack,omitempty"`
	Event int      `json:"event"`
	Clock uint64   `json:"clock"`
	Early bool     `json:"early,omitempty"`
}

// NewFaultInfo projects a proc.Fault onto the wire form.
func NewFaultInfo(f *proc.Fault) *FaultInfo {
	if f == nil {
		return nil
	}
	return &FaultInfo{
		Kind:  f.Kind.String(),
		Addr:  uint64(f.Addr),
		Msg:   f.Msg,
		Instr: f.Instr,
		Stack: append([]string(nil), f.Stack...),
		Event: f.Event,
		Clock: f.Clock,
		Early: f.Early,
	}
}

// GuardInfo is guard-page evidence: which class manifested on a guarded
// slot, which call-site is implicated and how.
type GuardInfo struct {
	Bug   string `json:"bug"`
	Site  string `json:"site"`
	Clock uint64 `json:"clock"` // process clock of the decisive malloc/free
	// Attribution says how Site was derived: "quarantined-free-site"
	// (guard.QuarFreeSite — the slot was dead, so the free site owns the
	// bug) or "alloc-site" (the slot was live, so the allocation site
	// does).
	Attribution string `json:"attribution"`
}

// CheckpointInfo identifies a checkpoint without retaining its snapshot.
type CheckpointInfo struct {
	Seq    int    `json:"seq"`
	Clock  uint64 `json:"clock"`
	Cursor int    `json:"cursor"`
}

// CandidateInfo is one checkpoint the phase-1 search considered. Rejected
// is empty for the checkpoint that was selected.
type CandidateInfo struct {
	CheckpointInfo
	Rejected string `json:"rejected,omitempty"`
}

// PatchInfo is the wire form of a runtime patch's parameters.
type PatchInfo struct {
	ID        int    `json:"id"`
	Bug       string `json:"bug"`
	Site      string `json:"site"`
	AtAlloc   bool   `json:"atAlloc"`
	Validated bool   `json:"validated,omitempty"`
	Revoked   bool   `json:"revoked,omitempty"`
}

// NewPatchInfo projects a patch onto the wire form.
func NewPatchInfo(p *patch.Patch) PatchInfo {
	return PatchInfo{
		ID:        p.ID,
		Bug:       p.Bug.String(),
		Site:      p.Site.String(),
		AtAlloc:   p.AtAlloc,
		Validated: p.Validated,
		Revoked:   p.Revoked,
	}
}

// IterationInfo is one randomized validation re-execution's verdict.
type IterationInfo struct {
	Iteration int    `json:"iteration"`
	Fault     string `json:"fault,omitempty"` // non-empty = the clone still failed
	Illegal   int    `json:"illegalAccesses"`
	Triggers  int    `json:"patchTriggers"`
}

// ValidationInfo is the consistency-check verdict with per-clone detail.
type ValidationInfo struct {
	Consistent bool            `json:"consistent"`
	Reason     string          `json:"reason,omitempty"`
	Iterations []IterationInfo `json:"iterations,omitempty"`
}

// NewValidationInfo projects a validation result onto the wire form.
func NewValidationInfo(v *validate.Result) *ValidationInfo {
	if v == nil {
		return nil
	}
	info := &ValidationInfo{Consistent: v.Consistent, Reason: v.Reason}
	for i, tr := range v.Traces {
		it := IterationInfo{Iteration: i}
		if tr != nil {
			it.Illegal = len(tr.Illegal)
			for _, n := range tr.Triggers {
				it.Triggers += n
			}
		}
		if i < len(v.Faults) && v.Faults[i] != nil {
			it.Fault = v.Faults[i].Error()
		}
		info.Iterations = append(info.Iterations, it)
	}
	return info
}

// Condition is one step of the evidence chain.
//
// Clock is the *process clock* of the evidence itself (the fault's clock,
// the decisive guard operation, the selected checkpoint) and is
// deterministic across supervision modes for the same seed. Cycles is the
// recording machine's trace clock at append time and WallNS the wall
// clock; both are diagnostic only and excluded from the canonical
// projection, because validation advances the parent machine's cycle
// clock in sync mode but a clone's in parallel mode.
type Condition struct {
	Type    ConditionType `json:"type"`
	Clock   uint64        `json:"clock"`
	Cycles  uint64        `json:"cycles,omitempty"`
	WallNS  int64         `json:"wallNs,omitempty"`
	Message string        `json:"message,omitempty"`

	Fault       *FaultInfo      `json:"fault,omitempty"`
	Guard       *GuardInfo      `json:"guard,omitempty"`
	Checkpoint  *CheckpointInfo `json:"checkpoint,omitempty"`
	Candidates  []CandidateInfo `json:"candidates,omitempty"`
	Patches     []PatchInfo     `json:"patches,omitempty"`
	Validation  *ValidationInfo `json:"validation,omitempty"`
	Speculation *SpecInfo       `json:"speculation,omitempty"`
}

// Step is one timed recovery phase on a diagnosis's path. Name is the
// trace phase name (trace.PhaseName) and N the count its trace end record
// carries: rollbacks for the diagnosis phases, patches for patch-gen, 1 for
// rollback, randomized re-executions for validation.
type Step struct {
	Name    string `json:"name"`
	WallNS  int64  `json:"wallNs"`
	N       uint64 `json:"n"`
	Outcome string `json:"outcome,omitempty"`
}

// Diagnosis is one recovery attempt's lifecycle object. Exactly one is
// created per supervisor recovery (including skipped and
// non-deterministic outcomes).
type Diagnosis struct {
	ID     uint64 `json:"id"`
	Source string `json:"source"`         // program name
	Worker int    `json:"worker"`         // fleet worker index (0 standalone)
	Mode   string `json:"mode,omitempty"` // sync | parallel | stream
	Event  int    `json:"event"`          // replay cursor of the failing event
	Phase  Phase  `json:"phase"`
	// Outcome refines the terminal phase: recovered, nondeterministic,
	// skipped, patches-revoked.
	Outcome   string `json:"outcome,omitempty"`
	FastPath  bool   `json:"fastPath,omitempty"` // guard evidence skipped phase 1
	Rollbacks int    `json:"rollbacks"`
	// Repro, when the source is a chaos program, is the exact
	// firstaid-run command that reproduces this diagnosis offline.
	Repro string `json:"repro,omitempty"`

	Conditions []Condition `json:"conditions"`
	DiagLog    []string    `json:"diagLog,omitempty"`
	// Path lists the recovery phases in the order they ran. Its walls
	// differ from run to run, so it is left out of Canonical.
	Path []Step `json:"path,omitempty"`

	BeginCycles uint64 `json:"beginCycles"`
	EndCycles   uint64 `json:"endCycles,omitempty"`
	BeginWallNS int64  `json:"beginWallNs,omitempty"`
	EndWallNS   int64  `json:"endWallNs,omitempty"`
	// TraceFrom/TraceTo are the tracer's emitted-record sequence numbers
	// at begin/close: the diagnosis's slice of the execution trace.
	TraceFrom uint64 `json:"traceFrom,omitempty"`
	TraceTo   uint64 `json:"traceTo,omitempty"`

	RecoverySec   float64 `json:"recoverySec,omitempty"`
	ValidationSec float64 `json:"validationSec,omitempty"`

	// Render-only references for report generation; never serialized.
	FaultRef      *proc.Fault                    `json:"-"`
	ValidationRef *validate.Result               `json:"-"`
	PatchRefs     []*patch.Patch                 `json:"-"`
	SiteKey       func(callsite.ID) callsite.Key `json:"-"`
}

// Cond returns the first condition of the given type, or nil.
func (d *Diagnosis) Cond(t ConditionType) *Condition {
	for i := range d.Conditions {
		if d.Conditions[i].Type == t {
			return &d.Conditions[i]
		}
	}
	return nil
}

// Done reports whether the diagnosis reached a terminal phase.
func (d *Diagnosis) Done() bool {
	return d.Phase == PhaseSucceeded || d.Phase == PhaseFailed
}

// canonicalCondition mirrors Condition minus the per-mode stamps.
type canonicalCondition struct {
	Type       ConditionType   `json:"type"`
	Clock      uint64          `json:"clock"`
	Message    string          `json:"message,omitempty"`
	Fault      *FaultInfo      `json:"fault,omitempty"`
	Guard      *GuardInfo      `json:"guard,omitempty"`
	Checkpoint *CheckpointInfo `json:"checkpoint,omitempty"`
	Candidates []CandidateInfo `json:"candidates,omitempty"`
	Patches    []PatchInfo     `json:"patches,omitempty"`
	Validation *ValidationInfo `json:"validation,omitempty"`
}

type canonicalDiagnosis struct {
	ID         uint64               `json:"id"`
	Source     string               `json:"source"`
	Event      int                  `json:"event"`
	Phase      Phase                `json:"phase"`
	Outcome    string               `json:"outcome,omitempty"`
	FastPath   bool                 `json:"fastPath,omitempty"`
	Rollbacks  int                  `json:"rollbacks"`
	Conditions []canonicalCondition `json:"conditions"`
	DiagLog    []string             `json:"diagLog,omitempty"`
}

// Canonical returns the mode-invariant JSON projection of the diagnosis:
// the evidence chain, process clocks and outcome, minus wall clocks,
// machine cycle stamps, trace cursors, the timed path, worker index,
// supervision mode and the repro command (which names the mode). Two runs
// of the same seed in any supervision mode yield byte-identical canonical
// forms.
func (d *Diagnosis) Canonical() ([]byte, error) {
	cd := canonicalDiagnosis{
		ID:        d.ID,
		Source:    d.Source,
		Event:     d.Event,
		Phase:     d.Phase,
		Outcome:   d.Outcome,
		FastPath:  d.FastPath,
		Rollbacks: d.Rollbacks,
		DiagLog:   d.DiagLog,
	}
	for _, c := range d.Conditions {
		// SpeculationSummary records how the diagnosis was scheduled, not
		// what it concluded; serial and speculative runs must project
		// identically.
		if c.Type == SpeculationSummary {
			continue
		}
		cd.Conditions = append(cd.Conditions, canonicalCondition{
			Type:       c.Type,
			Clock:      c.Clock,
			Message:    c.Message,
			Fault:      c.Fault,
			Guard:      c.Guard,
			Checkpoint: c.Checkpoint,
			Candidates: c.Candidates,
			Patches:    c.Patches,
			Validation: c.Validation,
		})
	}
	return json.MarshalIndent(cd, "", "  ")
}

// Transition is one phase change, for the /diagnoses/stream SSE feed.
type Transition struct {
	Seq     uint64 `json:"seq"` // monotonic stream cursor
	ID      uint64 `json:"id"`
	Phase   Phase  `json:"phase"`
	Outcome string `json:"outcome,omitempty"`
	Event   int    `json:"event"`
	Worker  int    `json:"worker"`
	WallNS  int64  `json:"wallNs"`
}

// DefaultCapacity is the diagnosis ring size when New is given 0.
const DefaultCapacity = 256

// AnyWorker matches every worker in Filter and InFlight.
const AnyWorker = -1

// Ledger is the bounded in-process diagnosis store. A nil *Ledger is a
// valid disabled ledger: Begin returns a nil Entry and every method
// no-ops, so call sites never branch.
type Ledger struct {
	mu      sync.Mutex
	cap     int
	nextID  uint64
	entries []*Diagnosis // ascending ID; bounded to cap
	dropped uint64

	transCap     int
	trans        []Transition
	transSeq     uint64 // seq of the next transition appended
	transDropped uint64

	now func() int64 // wall clock, swappable in tests
}

// New creates a ledger retaining up to capacity diagnoses (DefaultCapacity
// when 0). The transition ring holds 4× that: a full lifecycle is three
// transitions.
func New(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ledger{
		cap:      capacity,
		transCap: 4 * capacity,
		now:      func() int64 { return time.Now().UnixNano() },
	}
}

// Meta is the identity a diagnosis opens with.
type Meta struct {
	Source    string
	Worker    int
	Mode      string
	Event     int
	Repro     string
	Cycles    uint64 // machine trace clock at open
	TraceFrom uint64 // tracer emitted-record count at open
}

// Begin opens a new Diagnosis in PhasePending and returns its writer.
func (l *Ledger) Begin(m Meta) *Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	d := &Diagnosis{
		ID:          l.nextID,
		Source:      m.Source,
		Worker:      m.Worker,
		Mode:        m.Mode,
		Event:       m.Event,
		Repro:       m.Repro,
		Phase:       PhasePending,
		BeginCycles: m.Cycles,
		BeginWallNS: l.now(),
		TraceFrom:   m.TraceFrom,
	}
	if len(l.entries) == l.cap {
		copy(l.entries, l.entries[1:])
		l.entries[len(l.entries)-1] = d
		l.dropped++
	} else {
		l.entries = append(l.entries, d)
	}
	l.transition(d)
	return &Entry{l: l, d: d}
}

// transition records a phase change; callers hold l.mu.
func (l *Ledger) transition(d *Diagnosis) {
	t := Transition{
		Seq:     l.transSeq,
		ID:      d.ID,
		Phase:   d.Phase,
		Outcome: d.Outcome,
		Event:   d.Event,
		Worker:  d.Worker,
		WallNS:  l.now(),
	}
	l.transSeq++
	if len(l.trans) == l.transCap {
		copy(l.trans, l.trans[1:])
		l.trans[len(l.trans)-1] = t
		l.transDropped++
	} else {
		l.trans = append(l.trans, t)
	}
}

// Filter selects diagnoses for List. Zero-value string fields match
// everything; Worker AnyWorker (or any negative) matches every worker, so
// construct filters with Worker: ledger.AnyWorker unless filtering by it.
type Filter struct {
	Phase  Phase
	Source string
	Worker int
}

// List returns deep copies of matching diagnoses in ascending ID order.
func (l *Ledger) List(f Filter) []*Diagnosis {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*Diagnosis
	for _, d := range l.entries {
		if f.Phase != "" && d.Phase != f.Phase {
			continue
		}
		if f.Source != "" && d.Source != f.Source {
			continue
		}
		if f.Worker >= 0 && d.Worker != f.Worker {
			continue
		}
		out = append(out, copyDiagnosis(d))
	}
	return out
}

// Get returns a deep copy of the diagnosis with the given ID.
func (l *Ledger) Get(id uint64) (*Diagnosis, bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, d := range l.entries {
		if d.ID == id {
			return copyDiagnosis(d), true
		}
	}
	return nil, false
}

// InFlight counts retained diagnoses not yet in a terminal phase, for one
// worker or AnyWorker.
func (l *Ledger) InFlight(worker int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, d := range l.entries {
		if !d.Done() && (worker < 0 || d.Worker == worker) {
			n++
		}
	}
	return n
}

// Len returns the number of retained diagnoses.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Dropped returns how many diagnoses the bounded ring has evicted.
func (l *Ledger) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// LastID returns the most recently assigned diagnosis ID (0 if none).
func (l *Ledger) LastID() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextID
}

// TransitionsSince returns retained transitions with Seq >= seq, the SSE
// resume contract of /diagnoses/stream.
func (l *Ledger) TransitionsSince(seq uint64) []Transition {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.trans) == 0 {
		return nil
	}
	first := l.trans[0].Seq
	if seq < first {
		seq = first
	}
	if seq >= l.transSeq {
		return nil
	}
	return append([]Transition(nil), l.trans[seq-first:]...)
}

// TransitionsEmitted returns the total transitions ever recorded — the
// next stream cursor.
func (l *Ledger) TransitionsEmitted() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.transSeq
}

// TransitionsDropped returns how many transitions the ring has evicted.
func (l *Ledger) TransitionsDropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.transDropped
}

func copyDiagnosis(d *Diagnosis) *Diagnosis {
	cp := *d
	cp.Conditions = make([]Condition, len(d.Conditions))
	for i, c := range d.Conditions {
		cc := c
		if c.Fault != nil {
			f := *c.Fault
			cc.Fault = &f
		}
		if c.Guard != nil {
			g := *c.Guard
			cc.Guard = &g
		}
		if c.Checkpoint != nil {
			k := *c.Checkpoint
			cc.Checkpoint = &k
		}
		cc.Candidates = append([]CandidateInfo(nil), c.Candidates...)
		cc.Patches = append([]PatchInfo(nil), c.Patches...)
		if c.Validation != nil {
			v := *c.Validation
			v.Iterations = append([]IterationInfo(nil), c.Validation.Iterations...)
			cc.Validation = &v
		}
		cp.Conditions[i] = cc
	}
	cp.DiagLog = append([]string(nil), d.DiagLog...)
	cp.Path = append([]Step(nil), d.Path...)
	cp.PatchRefs = append([]*patch.Patch(nil), d.PatchRefs...)
	return &cp
}

// Entry is the single-writer handle to an open diagnosis. All methods are
// nil-safe no-ops, so a disabled ledger costs call sites one nil check.
// The owning supervisor goroutine is the only writer; the ledger lock
// orders its writes against HTTP readers.
type Entry struct {
	l *Ledger
	d *Diagnosis
}

// ID returns the diagnosis ID (0 for a nil entry).
func (e *Entry) ID() uint64 {
	if e == nil {
		return 0
	}
	return e.d.ID
}

// Add appends a condition, stamping its wall clock.
func (e *Entry) Add(c Condition) {
	if e == nil {
		return
	}
	e.l.mu.Lock()
	defer e.l.mu.Unlock()
	c.WallNS = e.l.now()
	e.d.Conditions = append(e.d.Conditions, c)
}

// Phase opens one recovery phase: it emits the phase's trace begin record
// (id is a trace.Phase* ID, anchor its begin argument) and starts the wall
// clock. The returned closer emits the matching end record carrying n,
// appends the step to the diagnosis path, and returns the wall time it
// measured. On a nil entry the trace records and the timing still happen.
func (e *Entry) Phase(em trace.Emitter, id, anchor uint64) func(n uint64, outcome string) time.Duration {
	em.Emit(trace.KPhaseBegin, id, anchor)
	t0 := time.Now()
	return func(n uint64, outcome string) time.Duration {
		wall := time.Since(t0)
		em.Emit(trace.KPhaseEnd, id, n)
		e.Update(func(d *Diagnosis) {
			d.Path = append(d.Path, Step{Name: trace.PhaseName(id), WallNS: wall.Nanoseconds(), N: n, Outcome: outcome})
		})
		return wall
	}
}

// Run moves the diagnosis to PhaseRunning.
func (e *Entry) Run() {
	if e == nil {
		return
	}
	e.l.mu.Lock()
	defer e.l.mu.Unlock()
	e.d.Phase = PhaseRunning
	e.l.transition(e.d)
}

// Update applies an arbitrary mutation under the ledger lock — used to
// attach rollback counts, diagnosis logs, wall durations and the
// render-only references.
func (e *Entry) Update(fn func(*Diagnosis)) {
	if e == nil {
		return
	}
	e.l.mu.Lock()
	defer e.l.mu.Unlock()
	fn(e.d)
}

// Close moves the diagnosis to its terminal phase and records the closing
// cycle/trace cursors.
func (e *Entry) Close(succeeded bool, outcome string, cycles, traceTo uint64) {
	if e == nil {
		return
	}
	e.l.mu.Lock()
	defer e.l.mu.Unlock()
	if succeeded {
		e.d.Phase = PhaseSucceeded
	} else {
		e.d.Phase = PhaseFailed
	}
	e.d.Outcome = outcome
	e.d.EndCycles = cycles
	e.d.EndWallNS = e.l.now()
	e.d.TraceTo = traceTo
	e.l.transition(e.d)
}

// Snapshot returns a deep copy of the diagnosis (nil for a nil entry).
func (e *Entry) Snapshot() *Diagnosis {
	if e == nil {
		return nil
	}
	e.l.mu.Lock()
	defer e.l.mu.Unlock()
	return copyDiagnosis(e.d)
}
