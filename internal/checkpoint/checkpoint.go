// Package checkpoint implements First-Aid's lightweight checkpoint/rollback
// component (paper §3).
//
// A checkpoint is an in-memory snapshot — the fork-like COW snapshot of the
// Flashback kernel support in the paper — consisting of the vmem page-table
// snapshot, the allocator state, the allocator-extension state, the process
// registers/clock/PRNG, and the replay-log cursor. Rollback reinstates all
// five, after which re-execution is deterministic.
//
// Like a fork, a checkpoint costs what the interval before it dirtied, not
// what the machine holds: Take copies the root of vmem's two-level page
// table and the root of the extension's object table, sharing every leaf
// copy-on-write with the live machine, and the first write into a shared
// leaf after the checkpoint copies that leaf. Rollback points both roots
// back at the checkpoint's leaves, and releasing a checkpoint drops its
// leaf references.
//
// Instead of a fixed interval, the manager adapts the checkpointing
// interval to the copy-on-write page rate: if the modelled overhead exceeds
// the user threshold Toverhead, the interval grows (up to Tcheckpoint);
// when the COW rate drops, it shrinks back toward the base interval.
package checkpoint

import (
	"fmt"

	"firstaid/internal/allocext"
	"firstaid/internal/heap"
	"firstaid/internal/proc"
	"firstaid/internal/replay"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
	"firstaid/internal/vmem"
)

// DefaultInterval is the base checkpoint interval: the paper's 200 ms at
// the simulated clock rate.
const DefaultInterval = proc.CyclesPerSecond / 5

// CostPerCOWPage models the cycles spent COW-replicating one dirtied page
// after a checkpoint (page-fault trap plus 4 KiB copy). The manager charges
// this to the process clock, which is how checkpointing overhead shows up
// in the Figure-6 measurements. The value is calibrated together with the
// workload kernels' 1/8 memory scaling (see internal/workloads) so that the
// overhead *fractions* match the paper's testbed: a full-scale page costs
// ~3 µs there; our pages stand for 8× the memory, hence 8×3 µs = 24 µs =
// 240 cycles at the simulated 10 MHz.
const CostPerCOWPage = 240

// costTake models the fork-like snapshot operation itself (~200 µs).
const costTake = 2000

// Checkpoint is one saved machine state.
type Checkpoint struct {
	Seq    int
	Clock  uint64 // process clock at snapshot time
	Cursor int    // replay-log cursor at snapshot time

	mem    *vmem.Snapshot
	heapSt heap.State
	procSt proc.State
	extSt  interface{}

	// DirtyPages is the COW page count of the interval that *preceded*
	// this checkpoint: the bytes this snapshot's predecessor had to
	// retain, the quantity of Table 7.
	DirtyPages uint64
}

// Bytes returns the snapshot's heap extent.
func (c *Checkpoint) Bytes() uint64 { return c.mem.Bytes() }

func (c *Checkpoint) String() string {
	return fmt.Sprintf("ckpt#%d @clock=%d cursor=%d", c.Seq, c.Clock, c.Cursor)
}

// Config tunes the manager.
type Config struct {
	// Interval is the base checkpoint interval in cycles (default: the
	// paper's 200 ms).
	Interval uint64
	// MaxInterval is Tcheckpoint, the adaptive scheme's ceiling
	// (default 8× base).
	MaxInterval uint64
	// OverheadTarget is Toverhead, the tolerated fraction of execution
	// time spent on COW replication (default 0.05).
	OverheadTarget float64
	// Keep is the number of checkpoints retained (default 16).
	Keep int
	// Adaptive enables interval adaptation (default on via NewManager).
	Adaptive bool
}

func (c *Config) fillDefaults() {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.MaxInterval == 0 {
		c.MaxInterval = 8 * c.Interval
	}
	if c.OverheadTarget == 0 {
		c.OverheadTarget = 0.05
	}
	if c.Keep == 0 {
		c.Keep = 16
	}
}

// Stats aggregates checkpointing cost for Table 7.
type Stats struct {
	Taken           int
	TotalDirtyPages uint64 // sum of per-interval COW pages
	TotalCycles     uint64 // execution cycles covered while checkpointing
}

// MBPerCheckpoint returns the average megabytes retained per checkpoint.
func (s Stats) MBPerCheckpoint() float64 {
	if s.Taken == 0 {
		return 0
	}
	return float64(s.TotalDirtyPages) * vmem.PageSize / (1 << 20) / float64(s.Taken)
}

// MBPerSecond returns megabytes of checkpoint data per simulated second.
func (s Stats) MBPerSecond() float64 {
	if s.TotalCycles == 0 {
		return 0
	}
	secs := float64(s.TotalCycles) / proc.CyclesPerSecond
	return float64(s.TotalDirtyPages) * vmem.PageSize / (1 << 20) / secs
}

// Manager owns the checkpoint ring of one supervised process.
type Manager struct {
	cfg Config

	mem *vmem.Space
	h   *heap.Heap
	p   *proc.Proc
	ext *allocext.Ext
	log *replay.Log

	cps       []*Checkpoint // oldest first
	nextSeq   int
	lastClock uint64 // clock at the last checkpoint
	interval  uint64 // current adaptive interval
	startMark uint64 // clock when stats started

	stats Stats
	met   metrics
	trc   trace.Emitter
}

// metrics holds the manager's pre-resolved telemetry instruments; the zero
// value (all nil) discards updates.
type metrics struct {
	taken          *telemetry.Counter
	rollbacks      *telemetry.Counter
	dirtyPages     *telemetry.Counter
	intervalGrows  *telemetry.Counter
	intervalShrink *telemetry.Counter
	interval       *telemetry.Gauge
	dirtyPerCkpt   *telemetry.Histogram
}

// SetMetrics wires the manager to a telemetry registry (nil detaches). The
// snapshot count, the per-interval COW page rate that drives the adaptive
// interval, and the interval decisions themselves all become observable.
func (m *Manager) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		m.met = metrics{}
		return
	}
	m.met = metrics{
		taken:          reg.Counter("ckpt.taken"),
		rollbacks:      reg.Counter("ckpt.rollbacks"),
		dirtyPages:     reg.Counter("ckpt.cow_pages"),
		intervalGrows:  reg.Counter("ckpt.interval_grows"),
		intervalShrink: reg.Counter("ckpt.interval_shrinks"),
		interval:       reg.Gauge("ckpt.interval_cycles"),
		dirtyPerCkpt:   reg.Histogram("ckpt.cow_pages_per_ckpt"),
	}
	m.met.interval.Set(int64(m.interval))
}

// SetTracer wires the manager to an execution-trace emitter (the zero
// Emitter detaches). Each Take and Rollback becomes a trace record
// carrying the checkpoint sequence number and, for Take, the dirty-page
// cost of the preceding interval.
func (m *Manager) SetTracer(em trace.Emitter) { m.trc = em }

// NewManager wires a manager to the machine's components.
func NewManager(cfg Config, mem *vmem.Space, h *heap.Heap, p *proc.Proc, ext *allocext.Ext, log *replay.Log) *Manager {
	cfg.fillDefaults()
	return &Manager{
		cfg:      cfg,
		mem:      mem,
		h:        h,
		p:        p,
		ext:      ext,
		log:      log,
		interval: cfg.Interval,
	}
}

// Interval returns the current (possibly adapted) interval in cycles.
func (m *Manager) Interval() uint64 { return m.interval }

// Stats returns the accumulated checkpointing statistics.
func (m *Manager) Stats() Stats { return m.stats }

// Checkpoints returns the retained checkpoints, oldest first.
func (m *Manager) Checkpoints() []*Checkpoint { return m.cps }

// Latest returns the most recent checkpoint, or nil.
func (m *Manager) Latest() *Checkpoint {
	if len(m.cps) == 0 {
		return nil
	}
	return m.cps[len(m.cps)-1]
}

// MaybeCheckpoint is called at every event boundary. It charges the
// interval's COW page-copy cost to the process clock and takes a new
// checkpoint when the interval has elapsed. It returns the checkpoint
// taken, or nil.
func (m *Manager) MaybeCheckpoint() *Checkpoint {
	// Charge COW replication performed since the last call. The dirty
	// counter is read without reset here; it is consumed at Take.
	if m.p.Clock()-m.lastClock < m.interval {
		return nil
	}
	return m.Take()
}

// Take snapshots the machine unconditionally.
func (m *Manager) Take() *Checkpoint {
	dirty := m.mem.TakeDirty()
	// Model the COW replication the previous interval performed plus the
	// snapshot operation itself.
	m.p.Tick(dirty*CostPerCOWPage + costTake)

	cp := &Checkpoint{
		Seq:        m.nextSeq,
		Clock:      m.p.Clock(),
		Cursor:     m.log.Cursor(),
		mem:        m.mem.Snapshot(),
		heapSt:     m.h.State(),
		procSt:     m.p.State(),
		extSt:      m.ext.State(),
		DirtyPages: dirty,
	}
	m.nextSeq++
	m.cps = append(m.cps, cp)
	if len(m.cps) > m.cfg.Keep {
		m.cps[0].mem.Release()
		m.cps = m.cps[1:]
	}
	m.met.taken.Inc()
	m.met.dirtyPages.Add(dirty)
	m.met.dirtyPerCkpt.Observe(dirty)
	m.trc.Emit(trace.KCkptTake, uint64(cp.Seq), dirty)

	interval := m.p.Clock() - m.lastClock
	m.lastClock = m.p.Clock()
	m.stats.Taken++
	m.stats.TotalDirtyPages += dirty
	m.stats.TotalCycles += interval

	if m.cfg.Adaptive && interval > 0 {
		m.adapt(dirty, interval)
	}
	return cp
}

// adapt grows or shrinks the interval based on the observed COW overhead
// fraction.
func (m *Manager) adapt(dirty, interval uint64) {
	overhead := float64(dirty*CostPerCOWPage) / float64(interval)
	switch {
	case overhead > m.cfg.OverheadTarget && m.interval < m.cfg.MaxInterval:
		m.interval += m.interval / 4
		if m.interval > m.cfg.MaxInterval {
			m.interval = m.cfg.MaxInterval
		}
		m.met.intervalGrows.Inc()
	case overhead < m.cfg.OverheadTarget/4 && m.interval > m.cfg.Interval:
		m.interval -= m.interval / 4
		if m.interval < m.cfg.Interval {
			m.interval = m.cfg.Interval
		}
		m.met.intervalShrink.Inc()
	}
	m.met.interval.Set(int64(m.interval))
}

// Rollback reinstates the machine state saved in cp. The checkpoint stays
// valid and may be rolled back to again (diagnosis re-executes from the
// same checkpoint many times). The rewind costs what changed since the
// checkpoint, not the heap: vmem points its root back at the checkpoint's
// leaves (the leaves it drops go back to its freelists) and the extension
// copies the root of its object table, so the diagnose/re-execute loop
// pays only for what it changed.
func (m *Manager) Rollback(cp *Checkpoint) {
	m.met.rollbacks.Inc()
	m.trc.Emit(trace.KRollback, uint64(cp.Seq), uint64(cp.Cursor))
	m.mem.Restore(cp.mem)
	m.h.SetState(cp.heapSt)
	m.p.SetState(cp.procSt)
	m.ext.SetState(cp.extSt)
	m.log.SetCursor(cp.Cursor)
	m.mem.TakeDirty() // discard dirt attributed to the abandoned timeline
	m.lastClock = cp.Clock
}

// DropAfter discards checkpoints newer than cp (after recovery commits to
// a rolled-back timeline, descendants of the failed timeline are stale).
func (m *Manager) DropAfter(cp *Checkpoint) {
	keep := m.cps[:0]
	for _, c := range m.cps {
		if c.Seq <= cp.Seq {
			keep = append(keep, c)
		} else {
			c.mem.Release()
		}
	}
	m.cps = keep
}
