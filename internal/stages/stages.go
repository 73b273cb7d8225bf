// Package stages turns a recovery strategy into data: an ordered plan of
// named stages over a shared recovery context, instead of control flow
// hardcoded in core.Supervisor. The contract between stages is the state
// the context carries — the failing fault, the replay-log window, the
// ledger entry collecting conditions and path steps, the trace handle, and
// the diagnosis session — so a strategy can reorder, skip or extend stages
// (the guard fast path, speculation, distributed validation) without the
// supervisor changing shape.
//
// The package also hosts the Speculator (speculate.go): a diagnosis.Prober
// that races prefetched re-execution hypotheses on COW machine clones and
// hands the engine their outcomes in serial program order, so speculative
// recovery is observationally identical to the serial pipeline.
package stages

import (
	"firstaid/internal/diagnosis"
	"firstaid/internal/ledger"
	"firstaid/internal/proc"
	"firstaid/internal/trace"
)

// Status is a stage verdict: continue with the next stage, or stop the
// plan (the recovery reached a terminal outcome early — non-deterministic
// screen, skip after repeated failure, disabled validation).
type Status int

const (
	// Next hands control to the following stage.
	Next Status = iota
	// Stop ends the plan; later stages never run.
	Stop
)

// Stage is one step of a recovery strategy.
type Stage interface {
	// Name identifies the stage in plans, tests and debug output.
	Name() string
	// Run executes the stage against the shared context.
	Run(c *Ctx) Status
}

// Func adapts a function to the Stage interface.
type Func struct {
	name string
	fn   func(*Ctx) Status
}

// NewFunc wraps fn as a named stage.
func NewFunc(name string, fn func(*Ctx) Status) Func {
	return Func{name: name, fn: fn}
}

// Name implements Stage.
func (f Func) Name() string { return f.name }

// Run implements Stage.
func (f Func) Run(c *Ctx) Status { return f.fn(c) }

// Plan is an ordered recovery strategy.
type Plan struct {
	Name   string
	Stages []Stage
}

// Run executes the stages in order until one returns Stop.
func (p Plan) Run(c *Ctx) {
	for _, st := range p.Stages {
		if st.Run(c) == Stop {
			return
		}
	}
}

// Names lists the plan's stage names in order.
func (p Plan) Names() []string {
	out := make([]string, len(p.Stages))
	for i, st := range p.Stages {
		out[i] = st.Name()
	}
	return out
}

// Ctx is the state shared by the stages of one recovery: the contract a
// predecessor stage leaves for its successors.
type Ctx struct {
	// Fault is the trapped failure that opened the recovery.
	Fault *proc.Fault
	// FailCursor is the replay-log cursor of the failing event; Until is
	// the diagnosis success horizon beyond it.
	FailCursor int
	Until      int

	// Entry is the recovery's ledger lifecycle entry (nil-safe: appends on
	// a nil entry are discarded).
	Entry *ledger.Entry
	// Trace emits on the supervising worker's track.
	Trace trace.Emitter

	// NewSession opens the diagnosis session on first use; the supervisor
	// installs it so diagnosis stages stay decoupled from engine
	// construction.
	NewSession func(*Ctx) *diagnosis.Session

	// Result is the sealed diagnosis outcome, set by the stage that calls
	// Session().Result() (the supervisor's triage stage).
	Result *diagnosis.Result

	session *diagnosis.Session
}

// Session returns the recovery's diagnosis session, opening it on first
// call.
func (c *Ctx) Session() *diagnosis.Session {
	if c.session == nil {
		c.session = c.NewSession(c)
	}
	return c.session
}

// The diagnosis stages, one per externally steerable phase of the engine.
// Each is a thin wrapper over the corresponding Session method, which
// no-ops once the session has resolved — so a plan that leads with
// EvidenceConfirm gets the guard fast path "for free", and a plan that
// omits it forces the full pipeline.
var (
	// EvidenceConfirm tries the guard-evidence fast path: one scoped
	// confirmation re-execution instead of both search phases.
	EvidenceConfirm Stage = NewFunc("evidence-confirm", func(c *Ctx) Status {
		c.Session().TryEvidence()
		return Next
	})
	// Screen opens diagnosis phase 1, prefetches the candidate ladder for
	// speculation, and screens for a non-deterministic failure.
	Screen Stage = NewFunc("screen", func(c *Ctx) Status {
		c.Session().Screen()
		return Next
	})
	// CheckpointSelect walks the phase-1 candidate ladder to the newest
	// checkpoint predating the bug-triggering point.
	CheckpointSelect Stage = NewFunc("checkpoint-select", func(c *Ctx) Status {
		c.Session().SelectCheckpoint()
		return Next
	})
	// Identify runs phase 2: bug-class probes and call-site search from
	// the selected checkpoint.
	Identify Stage = NewFunc("identify", func(c *Ctx) Status {
		c.Session().Identify()
		return Next
	})
)

// DiagnosisStages is the canonical diagnosis sub-plan, in the order
// Engine.Diagnose runs the phases.
func DiagnosisStages() []Stage {
	return []Stage{EvidenceConfirm, Screen, CheckpointSelect, Identify}
}
