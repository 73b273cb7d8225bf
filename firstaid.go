// Package firstaid is a reproduction of "First-Aid: Surviving and
// Preventing Memory Management Bugs during Production Runs" (Gao, Zhang,
// Tang, Qin — EuroSys 2009) as a Go library.
//
// First-Aid is a lightweight runtime that survives failures caused by
// common memory-management bugs — buffer overflow, dangling pointer
// read/write, double free, uninitialized read — and prevents the same bugs
// from striking again. On a failure it diagnoses the bug class and the
// allocation/deallocation call-sites of the bug-triggering objects by
// rolling back to checkpoints and re-executing under exposing and
// preventive environmental changes; it then generates runtime patches
// (preventive changes scoped to those call-sites), applies them for
// recovery and for all future execution, validates their effect under
// randomized allocation, and emits a detailed bug report.
//
// Because Go's garbage-collected runtime cannot host allocator-level
// patching of C programs, the library is built on a simulated machine: a
// paged virtual memory with copy-on-write snapshots, a Lea-style
// boundary-tag allocator, and deterministic simulated processes that
// allocate and fault exactly the way C programs do. Programs implement the
// Program interface against the Proc API (explicit Malloc/Free, virtual
// call stacks, integrity asserts); see examples/quickstart for a complete
// buggy program surviving under supervision.
//
// # Quick start
//
//	prog := &MyServer{}                      // implements firstaid.Program
//	log := prog.Workload(1000, []int{200})   // inputs with a bug trigger
//	sup := firstaid.New(prog, log, firstaid.Config{})
//	stats := sup.Run()
//	// stats.Failures == 1; the generated patches prevented the rest.
//	fmt.Println(sup.Recoveries[0].Report)
//
// The emulated applications of the paper's evaluation live in
// internal/apps and are runnable through cmd/firstaid-run; every table and
// figure of the paper regenerates through cmd/experiments.
package firstaid

import (
	"firstaid/internal/app"
	"firstaid/internal/baseline"
	"firstaid/internal/core"
	"firstaid/internal/mmbug"
	"firstaid/internal/patch"
	"firstaid/internal/proc"
	"firstaid/internal/replay"
	"firstaid/internal/report"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
	"firstaid/internal/vmem"
)

// Core supervision types.
type (
	// Program is a simulated application: Init builds heap state,
	// Handle processes one input event.
	Program = app.Program
	// App is a Program that can also generate its own workloads.
	App = app.App
	// Supervisor runs a Program under First-Aid.
	Supervisor = core.Supervisor
	// Config tunes a Supervisor.
	Config = core.Config
	// MachineConfig tunes the simulated machine.
	MachineConfig = core.MachineConfig
	// Stats summarises a supervised run.
	Stats = core.Stats
	// Recovery records one failure-recovery episode.
	Recovery = core.Recovery
	// Report is the Figure-5-style bug report.
	Report = report.Report
)

// Machine-facing types used when writing Programs.
type (
	// Proc is the simulated process handle passed to Programs.
	Proc = proc.Proc
	// Fault is a trapped memory error or assertion failure.
	Fault = proc.Fault
	// Event is one recorded input event.
	Event = replay.Event
	// Log is the replayable input log.
	Log = replay.Log
	// Addr is a virtual-memory address.
	Addr = vmem.Addr
)

// Patch management types.
type (
	// Patch is one runtime patch (preventive change + call-site).
	Patch = patch.Patch
	// Pool is the persistent per-program patch store.
	Pool = patch.Pool
)

// Telemetry types. A Registry wired into MachineConfig.Metrics collects
// counters, gauges and histograms from every layer of the runtime;
// Snapshot() renders them as JSON. Each recovery's timed path of phases is
// on its diagnosis (Recovery.Ledger), not in the registry.
type (
	// Metrics is the telemetry registry (see internal/telemetry).
	Metrics = telemetry.Registry
	// MetricsSnapshot is the JSON view of a registry.
	MetricsSnapshot = telemetry.Snapshot
)

// Execution-trace types. A Tracer wired into MachineConfig.Trace records
// every allocation, page fault, checkpoint, rollback and pipeline phase as
// a cycle-stamped record in a bounded ring; see internal/trace for the
// exporters (Chrome trace-event JSON, text timeline, summarizer) and
// cmd/firstaid-trace for the file tooling.
type (
	// Tracer is the execution-trace ring (see internal/trace).
	Tracer = trace.Tracer
	// TraceRecord is one fixed-size execution-trace record.
	TraceRecord = trace.Record
)

// NewTracer creates an execution tracer retaining about capacity records
// (<= 0 selects the default, 64Ki). Assign it to Config.Machine.Trace
// before New; dump it afterwards:
//
//	trc := firstaid.NewTracer(0)
//	cfg := firstaid.Config{}
//	cfg.Machine.Trace = trc
//	sup := firstaid.New(prog, log, cfg)
//	sup.Run()
//	firstaid.SaveTrace("run.trace", trc)
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// SaveTrace writes the tracer's retained records to path in the binary
// trace format read by firstaid-trace.
func SaveTrace(path string, t *Tracer) error { return trace.WriteFile(path, t.Snapshot()) }

// NewMetrics creates a telemetry registry. Assign it to
// Config.Machine.Metrics before New to instrument a supervised run:
//
//	reg := firstaid.NewMetrics()
//	cfg := firstaid.Config{}
//	cfg.Machine.Metrics = reg
//	sup := firstaid.New(prog, log, cfg)
//	sup.Run()
//	out, _ := reg.Snapshot().JSON()
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// BugType identifies a memory-management bug class.
type BugType = mmbug.Type

// Bug classes (paper Table 1).
const (
	BufferOverflow = mmbug.BufferOverflow
	DanglingWrite  = mmbug.DanglingWrite
	DanglingRead   = mmbug.DanglingRead
	DoubleFree     = mmbug.DoubleFree
	UninitRead     = mmbug.UninitRead
)

// New creates a Supervisor for prog over the input log.
func New(prog Program, log *Log, cfg Config) *Supervisor {
	return core.NewSupervisor(prog, log, cfg)
}

// NewLog returns an empty input log.
func NewLog() *Log { return replay.NewLog() }

// NewPool creates an empty patch pool for the named program.
func NewPool(program string) *Pool { return patch.NewPool(program) }

// LoadPool reads a patch pool persisted with Pool.SaveFile — the mechanism
// by which patches protect subsequent runs and other processes of the same
// program.
func LoadPool(path string) (*Pool, error) { return patch.LoadFile(path) }

// Baseline recovery disciplines (for comparison experiments).
type (
	// Rx is the rollback + whole-heap environmental-change baseline.
	Rx = baseline.Rx
	// Restart is the kill-and-relaunch baseline.
	Restart = baseline.Restart
)

// NewRx creates an Rx-supervised run of prog.
func NewRx(prog Program, log *Log, cfg MachineConfig) *Rx {
	return baseline.NewRx(prog, log, cfg)
}

// NewRestart creates a restart-disciplined run of prog.
func NewRestart(prog Program, log *Log, cfg MachineConfig) *Restart {
	return baseline.NewRestart(prog, log, cfg)
}
