// Package trace is the execution tracer of the First-Aid
// runtime: a sharded ring buffer of fixed-size binary records, each
// stamped with both the simulated cycle clock and wall-clock time.
//
// Where telemetry (counters, histograms) answers "how much" and the
// diagnosis ledger "what happened per recovery", the tracer answers "when,
// and in what interleaving": every malloc with its call-site, every COW page copy,
// every checkpoint, rollback, diagnosis phase and patch mutation lands in
// the ring in order. The design rules mirror telemetry's:
//
//   - Hot-path cost is one atomic add (the global sequence number), one
//     wall-clock read (time.Now), one uncontended mutex (the record's
//     shard) and a 48-byte in-place store. Records are fixed size and the
//     ring is preallocated: the steady state performs no allocation. The
//     clock read dominates: on a 2-vCPU Xeon VM an enabled Emit costs
//     91–106 ns, of which time.Now is 60–87 ns. squid emits ~8 records
//     per ~3.3 µs event, so an enabled ring is not yet cheap enough to
//     leave on: BenchmarkTraceOverheadGuard fails its 10% budget on squid.
//     ROADMAP.md ("A tracer cheap enough to leave on") plans to stamp wall
//     time on boundary records only.
//   - A nil *Tracer is the "off" switch. The zero Emitter — what a nil
//     tracer hands out — discards every Emit behind a single nil check,
//     so instrumented code carries no conditionals.
//   - Everything is safe under concurrency: fleet workers, validation
//     clones and HTTP readers (Snapshot, Since) may all touch the ring at
//     once. Writers interleave by shard; readers merge and sort by the
//     global sequence number.
//
// The ring keeps the most recent records; once full, each write overwrites
// the oldest record of its shard and the drop is counted (Dropped), never
// silent. Exporters (Chrome trace-event JSON, text timeline, the
// summarizer) and the binary file format live in this package too, so
// `firstaid-run -trace`, `firstaid-trace` and the fleet's /trace endpoints
// all speak the same records.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what a record describes. The numeric values are part of
// the binary trace-file format: append new kinds, never renumber.
type Kind uint16

const (
	// KNone is the zero kind; it never appears in a valid trace.
	KNone Kind = iota

	// Allocation path (proc/allocext: call-site is known there).
	KMalloc  // arg1 = call-site ID, arg2 = bytes requested
	KFree    // arg1 = call-site ID, arg2 = bytes released (0 if unknown)
	KRealloc // arg1 = call-site ID, arg2 = new size

	// Allocator internals (heap).
	KSbrkGrow  // arg1 = bytes grown, arg2 = size class of the triggering request
	KMmapAlloc // arg1 = bytes mapped, arg2 = size class

	// Address space (vmem).
	KPageFault // arg1 = faulting address, arg2 = access length (bit 63 set on writes)
	KCOWCopy   // arg1 = page number copied
	KSnapshot  // arg1 = pages captured
	KRestore   // arg1 = pages restored

	// Checkpointing.
	KCkptTake // arg1 = checkpoint seq, arg2 = dirty (COW) pages charged
	KRollback // arg1 = checkpoint seq, arg2 = replay cursor restored

	// Error monitoring.
	KTrap // arg1 = fault kind, arg2 = faulting address

	// Pipeline phases (diagnosis, recovery, validation).
	KPhaseBegin // arg1 = phase ID, arg2 = anchor (event seq)
	KPhaseEnd   // arg1 = phase ID, arg2 = work count

	// Patch pool.
	KPatchAdd      // arg1 = patch ID, arg2 = pool generation after the add
	KPatchRevoke   // arg1 = patch ID, arg2 = pool generation after the revoke
	KPatchValidate // arg1 = patch ID, arg2 = pool generation after the flag

	// Service plane (fleet dispatch). The two blank kinds are retired
	// numbers, held so that every later kind keeps its own.
	_
	_
	KDispatch // arg1 = target worker, arg2 = its queue depth at dispatch

	// Sampled guard-page detection (internal/guard); records land on the
	// worker's guard track (GuardTrack).
	KGuardAlloc // arg1 = call-site ID, arg2 = bytes requested
	KGuardFree  // arg1 = free call-site ID, arg2 = object size quarantined
	KGuardHit   // arg1 = manifested bug class, arg2 = faulting address

	// Speculative recovery (internal/diagnosis.Speculator); records land on
	// the supervisor's own track, while each racing clone executes on a
	// derived SpecTrack lane.
	KSpecLaunch // arg1 = hypothesis ordinal, arg2 = checkpoint seq
	KSpecWin    // arg1 = hypothesis ordinal, arg2 = 1 if served from the standby clone
	KSpecCancel // arg1 = hypothesis ordinal, arg2 = checkpoint seq

	// Ingest (core.Supervisor.Ingest and IngestBatch): one pair brackets
	// every ingest call, a single event being a batch of one.
	KBatchBegin // arg1 = first event seq, arg2 = events in the call
	KBatchEnd   // arg1 = first event seq, arg2 = events in the call
)

var kindNames = map[Kind]string{
	KMalloc:        "malloc",
	KFree:          "free",
	KRealloc:       "realloc",
	KSbrkGrow:      "sbrk-grow",
	KMmapAlloc:     "mmap-alloc",
	KPageFault:     "page-fault",
	KCOWCopy:       "cow-copy",
	KSnapshot:      "snapshot",
	KRestore:       "restore",
	KCkptTake:      "ckpt-take",
	KRollback:      "rollback",
	KTrap:          "trap",
	KPhaseBegin:    "phase-begin",
	KPhaseEnd:      "phase-end",
	KPatchAdd:      "patch-add",
	KPatchRevoke:   "patch-revoke",
	KPatchValidate: "patch-validate",
	KDispatch:      "dispatch",
	KGuardAlloc:    "guard-alloc",
	KGuardFree:     "guard-free",
	KGuardHit:      "guard-hit",
	KSpecLaunch:    "spec-launch",
	KSpecWin:       "spec-win",
	KSpecCancel:    "spec-cancel",
	KBatchBegin:    "batch-begin",
	KBatchEnd:      "batch-end",
}

// String returns the kind's stable name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "kind-" + formatUint(uint64(k))
}

// Phase IDs carried in KPhaseBegin/KPhaseEnd.Arg1. Values are part of the
// file format: append, never renumber.
const (
	PhaseRecovery     = 1 // the whole failure→patch→rollback episode
	PhaseDiag1        = 2 // diagnosis phase 1: backward checkpoint search
	PhaseDiag2        = 3 // diagnosis phase 2: bug/site identification
	PhasePatchGen     = 4 // patch generation and application
	PhaseRollback     = 5 // rollback to the chosen checkpoint
	PhaseValidation   = 6 // patch validation over the buggy region
	PhaseEarlyDetect  = 7 // protected-region eager detection; end Arg2 = detection latency in events
	PhaseGuardConfirm = 8 // guard-evidence fast path: single confirmation re-execution
)

var phaseNames = map[uint64]string{
	PhaseRecovery:     "recovery",
	PhaseDiag1:        "phase1",
	PhaseDiag2:        "phase2",
	PhasePatchGen:     "patch-gen",
	PhaseRollback:     "rollback",
	PhaseValidation:   "validation",
	PhaseEarlyDetect:  "early-detect",
	PhaseGuardConfirm: "guard-confirm",
}

// PhaseName returns the stable name of a phase ID.
func PhaseName(id uint64) string {
	if s, ok := phaseNames[id]; ok {
		return s
	}
	return "phase-" + formatUint(id)
}

// Record is one trace entry: 48 bytes, fixed layout (see file.go for the
// on-disk encoding). Seq is a global order over all workers; Cycles is the
// emitting machine's monotonic simulated time; WallNS is wall-clock
// nanoseconds since the Unix epoch.
type Record struct {
	Seq    uint64
	Cycles uint64
	WallNS int64
	Arg1   uint64
	Arg2   uint64
	Kind   Kind
	Worker uint16
}

// ValidationTrackBit marks a worker ID as a validation-clone track: the
// parallel-validation goroutine of a worker gets a derived track so its
// records never interleave with the owning worker's on a timeline view.
const ValidationTrackBit = 0x8000

// ValidationTrack derives the trace track for the n-th validation clone of
// the given worker. Parent worker and clone ordinal are packed so that
// concurrent clones (even of the same worker) land on distinct tracks.
func ValidationTrack(worker int, n uint64) int {
	return ValidationTrackBit | (worker&0x1F)<<10 | int(n&0x3FF)
}

// FleetTrack is the track of the fleet front-end itself (dispatch
// decisions, HTTP ingest) — distinct from every worker and validation
// track.
const FleetTrack = 0x7FFF

// GuardTrackBit marks a worker ID as a guard track: the sampled guard-page
// tier of a worker emits on its own derived track so guard events read as
// their own timeline lane next to the worker's allocation traffic.
const GuardTrackBit = 0x4000

// GuardTrack derives the guard-tier trace track of the given worker.
func GuardTrack(worker int) int {
	return GuardTrackBit | (worker & 0xFFF)
}

// SpecTrackBit marks a worker ID as a speculation track: each racing
// recovery clone of a worker executes on its own derived lane so the
// hypothesis re-executions read as parallel timelines under the worker.
// The bit sits below GuardTrackBit, and a packed spec track never reaches
// 0x4000, so the Validation > Guard > Spec test order is unambiguous.
const SpecTrackBit = 0x2000

// SpecTrack derives the trace track of the n-th speculative clone launched
// by the given worker's supervisor.
func SpecTrack(worker int, n uint64) int {
	return SpecTrackBit | (worker&0x1F)<<8 | int(n&0xFF)
}

// TrackBelongsTo reports whether records on the given track belong to the
// given worker: its main track, its guard track, or any of its validation
// clone tracks. The fleet track belongs to no worker. The validation bit
// must be tested before the guard bit — the validation track of a worker
// with bit 4 set (worker 16..31) also carries GuardTrackBit in its packed
// worker field. Validation tracks keep only the low 5 worker bits, so the
// comparison folds the worker the same way ValidationTrack does.
func TrackBelongsTo(track uint16, worker int) bool {
	switch {
	case track == FleetTrack:
		return false
	case track&ValidationTrackBit != 0:
		return int(track>>10)&0x1F == worker&0x1F
	case track&GuardTrackBit != 0:
		return int(track&0xFFF) == worker
	case track&SpecTrackBit != 0:
		return int(track>>8)&0x1F == worker&0x1F
	default:
		return int(track) == worker
	}
}

// TrackName renders a worker/track ID for exporters.
func TrackName(worker uint16) string {
	if worker == FleetTrack {
		return "fleet"
	}
	if worker&ValidationTrackBit != 0 {
		parent := uint64(worker>>10) & 0x1F
		return "worker-" + formatUint(parent) + "/validation-" + formatUint(uint64(worker&0x3FF))
	}
	if worker&GuardTrackBit != 0 {
		return "worker-" + formatUint(uint64(worker&0xFFF)) + "/guard"
	}
	if worker&SpecTrackBit != 0 {
		return "worker-" + formatUint(uint64(worker>>8)&0x1F) + "/spec-" + formatUint(uint64(worker&0xFF))
	}
	return "worker-" + formatUint(uint64(worker))
}

// DefaultCapacity is the default ring capacity in records (48 bytes each,
// so the default ring is ~3 MiB — hours of steady-state service traffic,
// minutes of allocation-level detail).
const DefaultCapacity = 1 << 16

// numShards spreads writers over independently-locked ring segments so
// fleet workers do not serialize on one mutex. Power of two: the global
// sequence number selects the shard by mask, which also round-robins
// consecutive records of a single writer across all shards.
const numShards = 8

type shard struct {
	mu  sync.Mutex
	buf []Record
	n   uint64 // records ever written to this shard
}

// Tracer is the ring. A nil *Tracer is a valid disabled tracer: Emitter
// returns the zero Emitter and all read methods return empty results.
type Tracer struct {
	shards [numShards]shard
	seq    atomic.Uint64
}

// New creates a tracer retaining about the given number of records
// (rounded up to a multiple of the shard count; <= 0 selects
// DefaultCapacity).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + numShards - 1) / numShards
	t := &Tracer{}
	for i := range t.shards {
		t.shards[i].buf = make([]Record, per)
	}
	return t
}

// Emitter returns an emit handle bound to a worker track and a cycle
// clock (nil clock stamps zero cycles — fine for components with no
// machine, like the fleet front-end or the shared patch pool). A nil
// tracer returns the zero Emitter, which discards everything.
func (t *Tracer) Emitter(worker int, clock func() uint64) Emitter {
	if t == nil {
		return Emitter{}
	}
	return Emitter{t: t, clock: clock, worker: uint16(worker)}
}

func (t *Tracer) emit(worker uint16, kind Kind, cycles, arg1, arg2 uint64) {
	seq := t.seq.Add(1) - 1
	wall := time.Now().UnixNano()
	sh := &t.shards[seq&(numShards-1)]
	sh.mu.Lock()
	r := &sh.buf[sh.n%uint64(len(sh.buf))]
	r.Seq = seq
	r.Cycles = cycles
	r.WallNS = wall
	r.Arg1 = arg1
	r.Arg2 = arg2
	r.Kind = kind
	r.Worker = worker
	sh.n++
	sh.mu.Unlock()
}

// Emitted returns the total number of records ever emitted.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Dropped returns the number of records overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var d uint64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if over := sh.n; over > uint64(len(sh.buf)) {
			d += over - uint64(len(sh.buf))
		}
		sh.mu.Unlock()
	}
	return d
}

// Snapshot returns a copy of the retained records in global order (by
// Seq). Safe while writers are emitting; the copy is per-shard consistent.
func (t *Tracer) Snapshot() []Record {
	return t.Since(0)
}

// Since returns the retained records with Seq >= seq, in global order.
// This is the SSE tail's cursor read: poll with the last seen Seq+1.
func (t *Tracer) Since(seq uint64) []Record {
	if t == nil {
		return nil
	}
	var out []Record
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		size := uint64(len(sh.buf))
		n := sh.n
		start := uint64(0)
		if n > size {
			start = n - size
		}
		for j := start; j < n; j++ {
			r := sh.buf[j%size]
			if r.Seq >= seq {
				out = append(out, r)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Emitter is a value-type emit handle: component structs store it by value
// and call Emit unconditionally — the zero Emitter (nil tracer) discards
// behind one nil check, keeping the hot path conditional-free at the call
// sites.
type Emitter struct {
	t      *Tracer
	clock  func() uint64
	worker uint16
}

// Emit appends one record. On the zero Emitter this is a nil check and a
// return.
func (em Emitter) Emit(kind Kind, arg1, arg2 uint64) {
	if em.t == nil {
		return
	}
	var cycles uint64
	if em.clock != nil {
		cycles = em.clock()
	}
	em.t.emit(em.worker, kind, cycles, arg1, arg2)
}

// Enabled reports whether emits reach a ring.
func (em Emitter) Enabled() bool { return em.t != nil }

// Tracer returns the underlying ring (nil on the zero Emitter).
func (em Emitter) Tracer() *Tracer { return em.t }

// Worker returns the emitter's track ID.
func (em Emitter) Worker() int { return int(em.worker) }

// WithTrack returns a copy of the emitter bound to a different worker
// track but the same ring and clock.
func (em Emitter) WithTrack(worker int) Emitter {
	em.worker = uint16(worker)
	return em
}

// WithClock returns a copy of the emitter with a different cycle clock.
func (em Emitter) WithClock(clock func() uint64) Emitter {
	em.clock = clock
	return em
}

func formatUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for v > 0 {
		pos--
		buf[pos] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[pos:])
}
