// Package core implements the First-Aid supervisor: it runs a simulated
// program under checkpointing, catches failures, drives the diagnosis
// engine, generates and applies runtime patches, re-executes for recovery,
// validates the patches, and produces the bug report (paper Figure 1).
// Supervisor.recover runs that cycle as one function, a step at a time
// (recovery.go); speculative diagnosis plugs into the engine as a
// diagnosis.Prober whose clones specHost mints (speculate.go).
package core

import (
	"strings"
	"sync/atomic"

	"firstaid/internal/allocext"
	"firstaid/internal/app"
	"firstaid/internal/callsite"
	"firstaid/internal/checkpoint"
	"firstaid/internal/diagnosis"
	"firstaid/internal/guard"
	"firstaid/internal/heap"
	"firstaid/internal/monitor"
	"firstaid/internal/proc"
	"firstaid/internal/replay"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
	"firstaid/internal/vmem"
)

// Machine bundles one supervised process: address space, allocator,
// allocator extension, process, program, input log, checkpoint manager and
// error monitor. It provides the rollback/re-execution primitives the
// diagnosis and validation engines are built on.
type Machine struct {
	Mem  *vmem.Space
	Heap *heap.Heap
	Ext  *allocext.Ext
	Proc *proc.Proc
	Prog app.Program
	Log  *replay.Log
	Ckpt *checkpoint.Manager
	Mon  *monitor.Monitor

	// Tel is the machine's telemetry registry (nil when telemetry is off).
	// Every component of the machine is wired to it; a clone receives a
	// fresh registry of its own so validation goroutines never contend
	// with the main loop — the supervisor merges it back on collect.
	Tel *telemetry.Registry

	// currentPatches mirrors the attached patch source (allocext does
	// not expose it) so validation can detach and re-attach it around
	// the unpatched baseline run.
	currentPatches allocext.PatchSource

	// cfg is retained for Clone.
	cfg MachineConfig

	// simNow is the monotonic simulated timeline: process-clock progress
	// accumulates here and is never rewound by rollback, so recovery
	// work (re-executions, checkpoint costs) shows up as elapsed time —
	// the x-axis of the Figure-4 throughput plots.
	simNow    uint64
	lastClock uint64

	// trc is the machine's execution-trace emitter (zero when tracing is
	// off); every component is wired to it with TraceClock as the cycle
	// stamp. cloneSeq numbers validation clones and specSeq speculative
	// recovery clones, so each gets a distinct derived trace track.
	trc      trace.Emitter
	cloneSeq atomic.Uint64
	specSeq  atomic.Uint64

	// cancel, when set on a speculative clone, is polled between
	// re-executed events: a losing hypothesis tears down mid-window
	// instead of running to the horizon.
	cancel *atomic.Bool
}

// MachineConfig tunes a machine.
type MachineConfig struct {
	// MemLimit bounds the simulated address space (default 256 MiB).
	MemLimit uint32
	// Checkpoint configures the checkpoint manager.
	Checkpoint checkpoint.Config
	// DelayLimit caps delay-freed memory (default 1 MiB, the paper's
	// threshold).
	DelayLimit uint64
	// IntegrityCheckEvery, when non-zero, deploys the heap-integrity
	// error detector with the given event cadence (paper §3's pluggable
	// detectors). Silent heap corruption is then caught near its cause
	// instead of at the eventual crash.
	IntegrityCheckEvery int
	// Metrics, when set, wires every machine component (heap, checkpoint
	// manager, monitor, patch binding) to the registry. Nil keeps
	// telemetry off at zero cost.
	Metrics *telemetry.Registry
	// Trace, when set, wires every machine component to the execution
	// tracer: allocations, page faults, COW copies, checkpoints,
	// rollbacks and traps become cycle-stamped ring records. Nil keeps
	// tracing off at zero cost. (Distinct from the supervisor Config's
	// Trace callback, which observes replayed events for experiments.)
	Trace *trace.Tracer
	// TraceWorker is the trace track records are attributed to — the
	// fleet worker index, 0 for a standalone machine.
	TraceWorker int
	// SlowMemPaths disables the vmem fast paths (micro-TLB, aligned-word
	// accessors) and makes Clone deep-copy every heap page instead of
	// sharing them copy-on-write. The machine then runs on the original
	// reference implementation — the chaos cross-check runs every seed in
	// both configurations and asserts byte-identical outcomes.
	SlowMemPaths bool

	// GuardRate enables sampled guard-page detection (internal/guard): on
	// average one of every GuardRate allocation requests is redirected to
	// a guard-page-backed slot, so overflows and dangling accesses on
	// sampled objects trap at the faulting instruction with exact-site
	// attribution. 0 keeps sampling off at zero cost. The sampling coin
	// draws from the machine's seeded PRNG stream, so replays and clones
	// make identical decisions.
	GuardRate int
	// GuardForce lists call-site substrings that are always sampled
	// (rate 1/1), matched against the "/"-joined 3-level site key. A
	// non-empty list enables the guard tier even when GuardRate is 0.
	GuardForce []string
}

// guardEnabled reports whether this configuration constructs a guard tier.
func (c *MachineConfig) guardEnabled() bool {
	return c.GuardRate > 0 || len(c.GuardForce) > 0
}

// NewMachine builds a machine for prog over the input log, runs the
// program's Init, and takes checkpoint #0 so a pre-bug checkpoint always
// exists. It returns an error-free machine or panics on an Init fault
// (an Init fault is a harness bug, not a scenario First-Aid handles).
func NewMachine(prog app.Program, log *replay.Log, cfg MachineConfig) *Machine {
	if cfg.MemLimit == 0 {
		cfg.MemLimit = 256 << 20
	}
	mem := vmem.New(cfg.MemLimit)
	if cfg.SlowMemPaths {
		mem.SetFastPaths(false)
	}
	h := heap.New(mem)
	sites := callsite.NewTable()
	ext := allocext.New(h, sites)
	if cfg.DelayLimit != 0 {
		ext.DelayLimit = cfg.DelayLimit
	}
	p := proc.New(mem, ext)
	p.Sites = sites
	if cfg.guardEnabled() {
		attachGuard(mem, ext, p, sites, cfg)
	}
	m := &Machine{
		Mem:  mem,
		Heap: h,
		Ext:  ext,
		Proc: p,
		Prog: prog,
		Log:  log,
		Mon:  monitor.New(ext),
		Tel:  cfg.Metrics,
		cfg:  cfg,
	}
	if cfg.IntegrityCheckEvery > 0 {
		m.Mon.Detectors = append(m.Mon.Detectors,
			&monitor.HeapIntegrity{H: h, P: p, Every: cfg.IntegrityCheckEvery})
	}
	m.Ckpt = checkpoint.NewManager(cfg.Checkpoint, mem, h, p, ext, log)
	m.wireMetrics()
	m.wireTrace()
	if f := proc.Catch(func() { prog.Init(p) }); f != nil {
		panic("core: program Init faulted: " + f.Error())
	}
	m.Ckpt.Take()
	return m
}

// attachGuard constructs the sampled guard-page tier and binds it to the
// process's seeded PRNG stream, cycle clock and call-site table. It must
// run before the extension's SetState so checkpointed guard state has a
// home to land in.
func attachGuard(mem *vmem.Space, ext *allocext.Ext, p *proc.Proc, sites *callsite.Table, cfg MachineConfig) {
	g := guard.New(mem, guard.Config{Rate: cfg.GuardRate, Force: cfg.GuardForce})
	g.Bind(p.Rand, p.Clock, func(id callsite.ID) string {
		k := sites.Key(id)
		return strings.Join(k[:], "/")
	})
	ext.SetGuard(g)
}

// wireMetrics attaches every component to m.Tel. With a nil registry the
// components resolve nil instruments and the hot paths stay no-ops.
func (m *Machine) wireMetrics() {
	m.Heap.SetMetrics(m.Tel)
	m.Ckpt.SetMetrics(m.Tel)
	m.Mon.SetMetrics(m.Tel)
	if g := m.Ext.Guard(); g != nil {
		g.SetMetrics(m.Tel)
	}
}

// wireTrace attaches every component to the configured tracer. With a nil
// tracer the emitter is the zero value and every Emit is a nil check.
func (m *Machine) wireTrace() {
	m.trc = m.cfg.Trace.Emitter(m.cfg.TraceWorker, m.TraceClock)
	m.Mem.SetTracer(m.trc)
	m.Heap.SetTracer(m.trc)
	m.Proc.SetTracer(m.trc)
	m.Ckpt.SetTracer(m.trc)
	m.Mon.SetTracer(m.trc)
	if g := m.Ext.Guard(); g != nil {
		// Guard events get their own derived track so the sampled tier
		// reads as a separate timeline lane next to the worker's
		// allocation traffic.
		g.SetTracer(m.cfg.Trace.Emitter(trace.GuardTrack(m.cfg.TraceWorker), m.TraceClock))
	}
}

// TraceEmitter returns the machine's trace emitter (the zero Emitter when
// tracing is off). The supervisor stamps its recovery-phase records
// through this so they land on the machine's track with its clock.
func (m *Machine) TraceEmitter() trace.Emitter { return m.trc }

// TraceClock is the cycle stamp of the machine's trace records: the
// monotonic timeline plus process-clock progress not yet folded in by
// SyncClock. Unlike the raw process clock it never goes backward across a
// rollback, which keeps per-track trace timelines ordered.
func (m *Machine) TraceClock() uint64 {
	if c := m.Proc.Clock(); c > m.lastClock {
		return m.simNow + (c - m.lastClock)
	}
	return m.simNow
}

// Clone returns an independent copy of the machine in its current state:
// memory shared copy-on-write with the parent (cloning is O(page-table
// pointers), the paper's fork-style snapshot — deep page copies only under
// SlowMemPaths), plus cloned allocator, extension, process registers and
// call-site table. The replay log is shared, not copied: the clone gets an
// O(1) view of the parent's append-only prefix, so clone cost does not grow
// with the events logged. The clone can run on another goroutine —
// the substrate of the paper's parallel patch validation ("on a different
// processor core based on a snapshot of the program"). The Program instance
// is shared and must therefore be stateless (all nine evaluation apps keep
// every mutable byte in the virtual heap). Patches are NOT attached; attach
// a frozen source with SetPatches.
func (m *Machine) Clone() *Machine {
	// A validation clone emits on a derived validation track so its
	// records never interleave with the parent's in per-track timelines.
	return m.clone(trace.ValidationTrack(m.cfg.TraceWorker, m.cloneSeq.Add(1)-1))
}

// CloneForSpeculation clones the machine for a speculative recovery
// hypothesis: identical to Clone except the clone emits on a derived
// speculation track. Patches are not attached — speculative probes run in
// diagnostic mode, which never consults the patch source.
func (m *Machine) CloneForSpeculation() *Machine {
	return m.clone(trace.SpecTrack(m.cfg.TraceWorker, m.specSeq.Add(1)-1))
}

// clone implements Clone/CloneForSpeculation; track is the derived trace
// track the copy emits on.
func (m *Machine) clone(track int) *Machine {
	var mem *vmem.Space
	if m.cfg.SlowMemPaths {
		mem = m.Mem.Clone()
	} else {
		mem = m.Mem.CloneCOW()
	}
	h := heap.New(mem)
	h.CopyStateFrom(m.Heap)
	sites := m.Proc.Sites.Clone()
	ext := allocext.New(h, sites)
	p := proc.New(mem, ext)
	p.Sites = sites
	if m.cfg.guardEnabled() {
		// Attach before copying the state: the parent's guard state
		// (countdown, slots, quarantine, adaptive records) lands in the
		// clone's tier, so both machines keep making identical decisions.
		attachGuard(mem, ext, p, sites, m.cfg)
	}
	ext.CopyStateFrom(m.Ext)
	ext.DelayLimit = m.Ext.DelayLimit
	ext.MaxPatchBytes = m.Ext.MaxPatchBytes
	p.SetState(m.Proc.State())
	log := m.Log.Clone()
	clone := &Machine{
		Mem:  mem,
		Heap: h,
		Ext:  ext,
		Proc: p,
		Prog: m.Prog,
		Log:  log,
		Mon:  monitor.New(ext),
		cfg:  m.cfg,
	}
	if m.Tel != nil {
		// The clone runs on a validation goroutine: give it a registry of
		// its own so its hot paths never contend with the parent's, and
		// let the supervisor fold it into the parent when it collects the
		// validation result.
		clone.Tel = telemetry.NewRegistry()
		clone.cfg.Metrics = clone.Tel
	}
	if m.cfg.IntegrityCheckEvery > 0 {
		clone.Mon.Detectors = append(clone.Mon.Detectors,
			&monitor.HeapIntegrity{H: h, P: p, Every: m.cfg.IntegrityCheckEvery})
	}
	clone.Ckpt = checkpoint.NewManager(checkpoint.Config{}, mem, h, p, ext, log)
	clone.wireMetrics()
	clone.cfg.TraceWorker = track
	clone.wireTrace()
	clone.lastClock = p.Clock()
	return clone
}

// Release drops the page-table leaf references of a finished clone — its
// memory and its checkpoints' — so the machine it was cloned from owns
// those leaves and pages alone again: the parent's next writes copy
// nothing, and the frames it drops reach its freelists. Call it on the
// parent's goroutine once the clone's goroutine has returned; the clone
// must not be used afterwards.
func (m *Machine) Release() { m.Mem.Release() }

// SetCancel installs the speculation cancel flag; ReExecute polls it
// between events. Call before the clone's goroutine starts.
func (m *Machine) SetCancel(c *atomic.Bool) { m.cancel = c }

// Telemetry returns the machine's registry (nil when telemetry is off);
// the Speculator merges finished clones' registries through it.
func (m *Machine) Telemetry() *telemetry.Registry { return m.Tel }

// Step consumes and executes one event in the current mode. It returns the
// fault (nil on success) and ok=false when the log is exhausted.
func (m *Machine) Step() (f *proc.Fault, ok bool) {
	ev, ok := m.Log.Next()
	if !ok {
		return nil, false
	}
	f = m.Mon.RunEvent(ev.Seq, func() { m.Prog.Handle(m.Proc, ev) })
	m.SyncClock()
	return f, true
}

// SyncClock folds forward process-clock progress into the monotonic
// timeline. Called automatically by Step; call it manually after
// out-of-band clock charges (checkpoint costs).
func (m *Machine) SyncClock() {
	if c := m.Proc.Clock(); c > m.lastClock {
		m.simNow += c - m.lastClock
		m.lastClock = c
	} else {
		m.lastClock = c
	}
}

// SimNow returns the monotonic simulated time in cycles.
func (m *Machine) SimNow() uint64 { return m.simNow }

// SimSeconds returns the monotonic simulated time in seconds.
func (m *Machine) SimSeconds() float64 { return float64(m.simNow) / proc.CyclesPerSecond }

// --- diagnosis.Machine implementation -------------------------------------------

// Checkpoints implements diagnosis.Machine.
func (m *Machine) Checkpoints() []*checkpoint.Checkpoint { return m.Ckpt.Checkpoints() }

// Rollback implements diagnosis.Machine. The monotonic timeline is rebased,
// not rewound: rollback itself is (nearly) free, but the re-executed work
// will accumulate again.
func (m *Machine) Rollback(cp *checkpoint.Checkpoint) {
	m.Ckpt.Rollback(cp)
	m.lastClock = m.Proc.Clock()
}

// MarkHeap implements diagnosis.Machine (Phase-1 heap marking).
func (m *Machine) MarkHeap() error { return m.Ext.MarkHeap() }

// SiteKey implements diagnosis.Machine.
func (m *Machine) SiteKey(id callsite.ID) callsite.Key { return m.Proc.Sites.Key(id) }

// ReExecute implements diagnosis.Machine: it re-runs events in diagnostic
// mode with the given environmental changes until the log cursor reaches
// `until` (exclusive upper bound on event sequence numbers is until itself)
// or a fault occurs. The machine must already be rolled back to the desired
// checkpoint. Canary scans run after every event so manifestations carry
// fresh context.
func (m *Machine) ReExecute(cs *allocext.ChangeSet, until int) diagnosis.Outcome {
	m.Ext.SetMode(allocext.ModeDiagnostic)
	m.Ext.SetChanges(cs)
	m.Ext.ResetManifests()
	m.Ext.ResetSeen()
	m.Mon.ScanEachEvent = true
	defer func() {
		m.Mon.ScanEachEvent = false
		m.Ext.SetMode(allocext.ModeNormal)
		m.Ext.SetChanges(nil)
	}()

	var fault *proc.Fault
	for m.Log.Cursor() < until {
		if m.cancel != nil && m.cancel.Load() {
			// A losing speculative hypothesis: stop mid-window. The engine
			// never consumes an interrupted outcome, so nothing downstream
			// observes the partial state.
			return diagnosis.Outcome{Interrupted: true}
		}
		f, ok := m.Step()
		if !ok {
			break
		}
		if f != nil {
			fault = f
			break
		}
	}
	m.Ext.Scan()
	// A window that survives to the horizon must also leave the raw
	// allocator's metadata intact: delay-free can mask a smashed chunk
	// header (the free that would trap is deferred) without the smash
	// itself being absorbed by any canaried padding. Such a "pass" is a
	// layout artifact, not evidence the checkpoint precedes the bug.
	var metaErr error
	if fault == nil {
		metaErr = m.Heap.CheckIntegrity()
	}
	// Copy the manifest set: the extension's instance is reset by the
	// next re-execution.
	return diagnosis.Outcome{
		Fault:     fault,
		Manifests: *m.Ext.Manifests(),
		MetaErr:   metaErr,
	}
}

// SeenAllocSites implements diagnosis.Machine (call-sites observed by the
// last ReExecute).
func (m *Machine) SeenAllocSites() []callsite.ID { return m.Ext.SeenAllocSites() }

// SeenFreeSites implements diagnosis.Machine.
func (m *Machine) SeenFreeSites() []callsite.ID { return m.Ext.SeenFreeSites() }

// --- validation support ----------------------------------------------------------

// RunValidation re-runs events in validation mode: randomized allocation
// (when randomize is set), full MM-operation tracing, and illegal-access
// instrumentation on every load/store. When patched is false the patch
// source is detached, producing the "without patch" baseline trace of the
// bug report. The machine must already be rolled back.
func (m *Machine) RunValidation(seed uint64, randomize, patched bool, until int) (*allocext.Trace, *proc.Fault) {
	m.Ext.SetMode(allocext.ModeValidation)
	m.Heap.SetRandom(randomize, seed)
	m.Proc.SetAccessChecker(m.Ext)
	m.Ext.BeginTrace()
	if !patched {
		m.Ext.SetPatches(nil)
	}
	defer func() {
		if !patched {
			m.Ext.SetPatches(m.currentPatches)
		}
		m.Proc.SetAccessChecker(nil)
		m.Heap.SetRandom(false, 0)
		m.Ext.SetMode(allocext.ModeNormal)
	}()

	var fault *proc.Fault
	for m.Log.Cursor() < until {
		f, ok := m.Step()
		if !ok {
			break
		}
		if f != nil {
			fault = f
			break
		}
	}
	return m.Ext.EndTrace(), fault
}

// SetPatches attaches the patch source, remembering it for baseline
// detach/re-attach during validation.
func (m *Machine) SetPatches(ps allocext.PatchSource) {
	m.currentPatches = ps
	m.Ext.SetPatches(ps)
}
