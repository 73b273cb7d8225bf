package core

import (
	"strings"
	"testing"
	"time"

	"firstaid/internal/app"
	"firstaid/internal/checkpoint"
	"firstaid/internal/diagnosis"
	"firstaid/internal/mmbug"
	"firstaid/internal/proc"
	"firstaid/internal/replay"
	"firstaid/internal/trace"
	"firstaid/internal/vmem"
)

// specBench is the multi-candidate diagnosis workload the speculation
// guard runs on: a buffer overflow whose corruption stays latent for
// dozens of checkpoint intervals. A request buffer and an adjacent state
// block are allocated mid-run; one oversized copy then smashes the state
// block's magic, and the program keeps serving benign requests for ~40
// checkpoints before anything reads the magic and crashes. Every
// checkpoint taken after the smash is a phase-1 ladder candidate that
// re-executes the full window only to fail again — the deep serial
// rollback–re-execute chain speculation collapses to one concurrent
// batch.
type specBench struct{}

const (
	sbMagic  = 0x5AFE5AFE
	sbBufLen = 256

	// Log layout, in events. With app.EventCost per event and the default
	// 200 ms checkpoint interval (~20 events apart), the ~820-event gap
	// puts ~42 checkpoints between the smash and the crash; the ring
	// (Keep below) still retains a pre-setup checkpoint for phase 1 to
	// select, and the ladder budget covers the rejected span.
	sbHistory = 160
	sbGap     = 820
	sbTail    = 40

	sbKeep           = 52
	sbMaxCheckpoints = 48
)

func (specBench) Name() string { return "specbench" }

func (specBench) Bugs() []mmbug.Type { return []mmbug.Type{mmbug.BufferOverflow} }

func (specBench) Init(p *proc.Proc) {
	defer p.Enter("main")()
	defer p.Enter("specbench_init")()
	// Standing heap content so clones carry a realistic footprint.
	idx := p.Malloc(4 << 10)
	p.Memset(idx, 0, 4<<10)
	p.SetRoot(2, idx)
}

func (specBench) Handle(p *proc.Proc, ev replay.Event) {
	defer p.Enter("dispatch")()
	p.Tick(app.EventCost)
	switch ev.Kind {
	case "req":
		// Benign traffic: per-request scratch, allocated and released.
		hdr := func() vmem.Addr {
			defer p.Enter("reqScratch")()
			defer p.Enter("xmalloc")()
			return p.Malloc(uint32(64 + ev.N%96))
		}()
		p.Memset(hdr, 0, 64)
		func() {
			defer p.Enter("reqDone")()
			defer p.Enter("xfree")()
			p.Free(hdr)
		}()
	case "setup":
		// THE VICTIM PAIR: fixed buffer, then the adjacent state block
		// whose magic the overflow will destroy. Allocated inside the
		// replay window so a preventive re-execution can pad them.
		buf := func() vmem.Addr {
			defer p.Enter("parseSetup")()
			defer p.Enter("xmalloc")()
			return p.Malloc(sbBufLen)
		}()
		state := func() vmem.Addr {
			defer p.Enter("createState")()
			defer p.Enter("xmalloc")()
			return p.Malloc(64)
		}()
		p.StoreU32(state, sbMagic)
		p.Memset(state+4, 0, 60)
		p.SetRoot(0, buf)
		p.SetRoot(1, state)
	case "smash":
		// THE BUG: unchecked copy into the fixed buffer; the excess runs
		// over the neighbor's header into the state block's magic. The
		// program does not notice — yet.
		p.At("copy_payload")
		p.StoreString(p.RootAddr(0), ev.Data)
	case "check":
		// The long-delayed read of the smashed magic: the crash site,
		// ~40 checkpoints after the corrupting write.
		p.At("check_state")
		p.Assert(p.LoadU32(p.RootAddr(1)) == sbMagic, "state magic corrupted")
	default:
		p.Assert(false, "specbench: unknown event %q", ev.Kind)
	}
}

// sbLog lays out the deep-ladder input: history, the victim setup, the
// smash, a long benign gap, the crashing check, and a post-recovery tail.
func sbLog() *replay.Log {
	log := replay.NewLog()
	req := func(n int) {
		for i := 0; i < n; i++ {
			log.Append("req", "", log.Len())
		}
	}
	req(sbHistory)
	log.Append("setup", "", 0)
	req(4)
	log.Append("smash", "/exploit/"+strings.Repeat("A", 300), 0)
	req(sbGap)
	log.Append("check", "", 0)
	req(sbTail)
	return log
}

func runSpecBench(b *testing.B, speculate bool) (*Supervisor, Stats, *trace.Tracer) {
	b.Helper()
	trc := trace.New(1 << 19)
	sup := NewSupervisor(specBench{}, sbLog(), Config{
		Speculate: speculate,
		Diagnosis: diagnosis.Config{MaxCheckpoints: sbMaxCheckpoints},
		Machine: MachineConfig{
			Checkpoint: checkpoint.Config{Keep: sbKeep},
			Trace:      trc,
		},
	})
	stats := sup.Run()
	return sup, stats, trc
}

// checkSpecBenchRun asserts one specBench run recovered exactly as
// expected: one failure, a validated buffer-overflow diagnosis pinned to
// the setup allocation site.
func checkSpecBenchRun(b *testing.B, label string, sup *Supervisor, stats Stats) string {
	b.Helper()
	if stats.Failures != 1 || len(sup.Recoveries) != 1 {
		b.Fatalf("%s: failures=%d recoveries=%d, want exactly 1 of each",
			label, stats.Failures, len(sup.Recoveries))
	}
	rec := sup.Recoveries[0]
	if rec.Skipped || !rec.Validated {
		b.Fatalf("%s: recovery skipped=%v validated=%v; log:\n%v",
			label, rec.Skipped, rec.Validated, rec.Result.Log)
	}
	fds := rec.Result.Findings
	if len(fds) != 1 || fds[0].Bug != mmbug.BufferOverflow || len(fds[0].Sites) != 1 {
		b.Fatalf("%s: findings %+v, want exactly one buffer-overflow site", label, fds)
	}
	return sup.M.SiteKey(fds[0].Sites[0]).String()
}

// diagWindow locates the diagnosis span on the parent track: the cycle
// stamps and global record sequence numbers of phase 1's begin and phase
// 2's end.
func diagWindow(b *testing.B, recs []trace.Record) (beginCyc, endCyc, beginSeq, endSeq uint64) {
	b.Helper()
	var haveBegin, haveEnd bool
	for _, r := range recs {
		if r.Worker != 0 {
			continue
		}
		if !haveBegin && r.Kind == trace.KPhaseBegin && r.Arg1 == trace.PhaseDiag1 {
			beginCyc, beginSeq, haveBegin = r.Cycles, r.Seq, true
		}
		if haveBegin && !haveEnd && r.Kind == trace.KPhaseEnd && r.Arg1 == trace.PhaseDiag2 {
			endCyc, endSeq, haveEnd = r.Cycles, r.Seq, true
		}
	}
	if !haveBegin || !haveEnd {
		b.Fatal("diagnosis phase markers missing from the parent trace track")
	}
	return
}

// specCriticalPath scores the speculative run's diagnosis schedule in
// simulated machine cycles: the parent track's own cycle progress (screen,
// convergence check, final verification — consuming a speculative outcome
// advances no parent cycles) plus, per concurrent hypothesis batch, the
// longest clone-track cycle span. Hypotheses launched before phase 1 ends
// are the candidate-ladder batch; the rest are the phase-2 class batch.
// Taking each batch's maximum over every launched clone — including
// losers that were cancelled later — errs on the conservative side.
func specCriticalPath(b *testing.B, recs []trace.Record) uint64 {
	b.Helper()
	beginCyc, endCyc, _, _ := diagWindow(b, recs)
	var diag1End uint64
	for _, r := range recs {
		if r.Worker == 0 && r.Kind == trace.KPhaseEnd && r.Arg1 == trace.PhaseDiag1 {
			diag1End = r.Seq
			break
		}
	}
	if diag1End == 0 {
		b.Fatal("phase-1 end marker missing from the parent trace track")
	}
	type span struct {
		firstSeq uint64
		lo, hi   uint64
	}
	clones := map[uint16]*span{}
	for _, r := range recs {
		if r.Worker&trace.SpecTrackBit == 0 {
			continue
		}
		s := clones[r.Worker]
		if s == nil {
			s = &span{firstSeq: r.Seq, lo: r.Cycles, hi: r.Cycles}
			clones[r.Worker] = s
		}
		if r.Cycles < s.lo {
			s.lo = r.Cycles
		}
		if r.Cycles > s.hi {
			s.hi = r.Cycles
		}
	}
	if len(clones) == 0 {
		b.Fatal("no speculative clone tracks in the trace")
	}
	var ladderMax, classMax uint64
	for _, s := range clones {
		d := s.hi - s.lo
		if s.firstSeq < diag1End {
			if d > ladderMax {
				ladderMax = d
			}
		} else if d > classMax {
			classMax = d
		}
	}
	return (endCyc - beginCyc) + ladderMax + classMax
}

// BenchmarkSpeculativeRecoveryGuard enforces the speculation acceptance
// number: on a multi-candidate diagnosis (a ~40-deep phase-1 checkpoint
// ladder plus the phase-2 class probes), racing the hypotheses on COW
// clones must cut the diagnosis critical path at least 5× below the
// serial rollback–re-execute chain, while producing the identical
// diagnosis. The comparison is scored in simulated machine cycles — the
// deterministic, host-independent measure every other contract in this
// repository uses — with the speculative schedule charged its full
// critical path: all parent-serial work plus the longest clone in each
// concurrent batch (clone minting is covered separately by
// BenchmarkStandbyCloneWarm). Host wall-clock would instead measure how
// many cores the CI machine happens to have.
func BenchmarkSpeculativeRecoveryGuard(b *testing.B) {
	const budget = 5.0
	var speedup float64
	for i := 0; i < b.N; i++ {
		serialSup, serialStats, serialTrc := runSpecBench(b, false)
		specSup, specStats, specTrc := runSpecBench(b, true)

		serialSite := checkSpecBenchRun(b, "serial", serialSup, serialStats)
		specSite := checkSpecBenchRun(b, "speculative", specSup, specStats)
		if serialSite != specSite {
			b.Fatalf("diagnosed site diverges: serial %s, speculative %s", serialSite, specSite)
		}
		if rb := serialSup.Recoveries[0].Result.Rollbacks; rb < 40 {
			b.Fatalf("serial diagnosis took %d rollbacks; the workload no longer builds a deep ladder", rb)
		}
		st := specSup.Speculation()
		if st.Launched < 40 || st.StandbyHits < 1 {
			b.Fatalf("speculation stats %+v: want a full ladder launched and the standby clone used", st)
		}

		sBegin, sEnd, _, _ := diagWindow(b, serialTrc.Snapshot())
		serialCycles := sEnd - sBegin
		specCycles := specCriticalPath(b, specTrc.Snapshot())
		speedup = float64(serialCycles) / float64(specCycles)

		b.ReportMetric(float64(serialCycles)/1e6, "serial-Mcycles")
		b.ReportMetric(float64(specCycles)/1e6, "spec-Mcycles")
		b.ReportMetric(serialSup.Recoveries[0].RecoveryWall.Seconds()*1e3, "serial-recovery-ms")
		b.ReportMetric(specSup.Recoveries[0].RecoveryWall.Seconds()*1e3, "spec-recovery-ms")
	}
	b.ReportMetric(speedup, "speedup-x")
	if speedup < budget {
		b.Fatalf("speculative diagnosis critical path is only %.2fx shorter than serial, budget %.1fx", speedup, budget)
	}
}

// steppedMachine runs n events of log on a specBench machine the way the
// supervisor's drain loop does — a checkpoint whenever one is due — so the
// machine's log has grown by what it consumed.
func steppedMachine(b *testing.B, log *replay.Log, n int) *Machine {
	b.Helper()
	m := NewMachine(specBench{}, log, MachineConfig{
		Checkpoint: checkpoint.Config{Keep: sbKeep},
	})
	for i := 0; i < n; i++ {
		f, ok := m.Step()
		if !ok {
			break
		}
		if f != nil {
			b.Fatalf("event %d faulted: %v", i, f)
		}
		m.Ckpt.MaybeCheckpoint()
	}
	return m
}

// reqLog is n benign requests: a log that grows with uptime while the heap
// stays as warm as it was after the first few hundred.
func reqLog(n int) *replay.Log {
	log := replay.NewLog()
	for i := 0; i < n; i++ {
		log.Append("req", "", i)
	}
	return log
}

// BenchmarkStandbyCloneWarm prices the standby clone: the cost of minting
// one pre-warmed COW speculation clone from a machine with a warm heap —
// the cost the supervisor pays at every checkpoint so that recovery
// launches its first hypothesis at zero clone latency. The 64k-event case
// shows the cost does not grow with the events the machine has logged.
func BenchmarkStandbyCloneWarm(b *testing.B) {
	for _, bc := range []struct {
		name string
		m    func() *Machine
	}{
		{"events=400", func() *Machine { return steppedMachine(b, sbLog(), 400) }},
		{"events=64k", func() *Machine { return steppedMachine(b, reqLog(64<<10), 64<<10) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := bc.m()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c := m.CloneForSpeculation(); c == nil {
					b.Fatal("clone failed")
				}
			}
		})
	}
}

// BenchmarkCloneFlatGuard enforces that a machine clone costs the same
// however long the machine has run: CloneForSpeculation after 64k logged
// events must stay within 1.5x of its cost after 1k. Heap, page tables and
// call sites are bounded by the heap, not by uptime; the replay log is not,
// so this fails if clones go back to copying it (~29x). The clone copies
// table roots and shares their leaves, so what is left reads ~1.0x. Short
// interleaved rounds, best-of, one re-measure — the repo's guard shape;
// rounds are short so the best of each side is a round without a GC cycle.
func BenchmarkCloneFlatGuard(b *testing.B) {
	const (
		budget = 1.5
		clones = 50
		rounds = 20
	)
	short := steppedMachine(b, reqLog(1<<10), 1<<10)
	long := steppedMachine(b, reqLog(64<<10), 64<<10)

	run := func(m *Machine) time.Duration {
		t0 := time.Now()
		for i := 0; i < clones; i++ {
			_ = m.CloneForSpeculation()
		}
		return time.Since(t0)
	}
	measure := func() float64 {
		var bestShort, bestLong time.Duration
		run(short) // warmup
		run(long)
		for r := 0; r < rounds; r++ {
			if d := run(short); bestShort == 0 || d < bestShort {
				bestShort = d
			}
			if d := run(long); bestLong == 0 || d < bestLong {
				bestLong = d
			}
		}
		b.ReportMetric(float64(bestShort.Nanoseconds())/clones, "ns/clone-1k")
		b.ReportMetric(float64(bestLong.Nanoseconds())/clones, "ns/clone-64k")
		return float64(bestLong) / float64(bestShort)
	}

	growth := 0.0
	for i := 0; i < b.N; i++ {
		for attempt := 0; attempt < 2; attempt++ {
			growth = measure()
			if growth <= budget {
				break
			}
		}
	}
	b.ReportMetric(growth, "growth-x")
	if growth > budget {
		b.Fatalf("CloneForSpeculation after 64k events costs %.2fx its cost after 1k, budget %.1fx", growth, budget)
	}
}

// shapeApp lays out a heap for BenchmarkCheckpointFlatGuard: objects of
// size bytes in the sbrk heap, then blocks of block bytes each. Blocks at
// or above the allocator's mmap threshold land in the Map zone at
// MmapBase, apache's shape; smaller ones extend the sbrk heap. Init keeps
// the addresses in the app — test-only state, as the guard never clones.
type shapeApp struct {
	objects, blocks int
	size, block     uint32
	objs, blks      []vmem.Addr
}

func (a *shapeApp) Name() string                        { return "shape" }
func (a *shapeApp) Bugs() []mmbug.Type                  { return nil }
func (a *shapeApp) Handle(p *proc.Proc, _ replay.Event) {}

func (a *shapeApp) Init(p *proc.Proc) {
	defer p.Enter("shape_init")()
	for i := 0; i < a.objects; i++ {
		a.objs = append(a.objs, p.Malloc(a.size))
	}
	for i := 0; i < a.blocks; i++ {
		a.blks = append(a.blks, p.Malloc(a.block))
	}
}

// shape is one configuration of the checkpoint flat guard: its machine and
// the eight words each interval writes, one per page.
type shape struct {
	m       *Machine
	targets []vmem.Addr
}

// newShape builds the machine and picks its targets: the first object at
// or after each heap offset in objAt (pages past HeapBase), and in the
// blocks the given byte offsets, counted across blocks.
func newShape(b *testing.B, a *shapeApp, objAt []int, blkAt []uint32) shape {
	b.Helper()
	m := NewMachine(a, replay.NewLog(), MachineConfig{})
	sh := shape{m: m}
	for _, pg := range objAt {
		at := vmem.HeapBase + vmem.Addr(pg*vmem.PageSize)
		for _, o := range a.objs {
			if o >= at {
				sh.targets = append(sh.targets, o+8)
				break
			}
		}
	}
	for _, off := range blkAt {
		sh.targets = append(sh.targets, a.blks[off/a.block]+off%a.block)
	}
	if len(sh.targets) != len(objAt)+len(blkAt) {
		b.Fatalf("shape: %d targets, want %d", len(sh.targets), len(objAt)+len(blkAt))
	}
	return sh
}

// interval is one checkpoint interval: dirty the shape's eight pages,
// allocate and free one object so the extension's table changes too, and
// take a checkpoint, which releases the oldest one held.
func (sh shape) interval(i int) {
	for _, t := range sh.targets {
		sh.m.Mem.WriteU32(t, uint32(i))
	}
	p := sh.m.Proc
	proc.Catch(func() {
		defer p.Enter("shape_churn")()
		p.Free(p.Malloc(64))
	})
	sh.m.Ckpt.Take()
}

// BenchmarkCheckpointFlatGuard enforces that a checkpoint costs what its
// interval dirtied, not what the machine holds. Each interval writes eight
// pages, changes the extension's table and takes a checkpoint (releasing
// the oldest), and the cost of an interval must stay within 2x
//
//   - on a 16 MiB heap of ~10k live objects as on a 1 MiB heap of ~100,
//     with the same eight pages dirtied; and
//   - on apache's shape, a 64 KiB sbrk heap plus a 604 KiB block at
//     MmapBase, as on an sbrk-only heap of the same page count.
//
// A checkpoint that copies the page table or the object table fails both:
// the first by the heap's size, the second by the 32 MiB page-table gap
// between the break and MmapBase. Interleaved rounds, best-of, one
// re-measure — the repo's guard shape.
func BenchmarkCheckpointFlatGuard(b *testing.B) {
	const (
		budget    = 2.0
		intervals = 64
		rounds    = 8
	)
	spread := []int{0, 32, 64, 96, 128, 160, 192, 224}
	small := newShape(b, &shapeApp{objects: 100, size: 10 << 10}, spread, nil)
	big := newShape(b, &shapeApp{objects: 10_000, size: 1664}, spread, nil)
	// apache's shape: a 64 KiB heap of small objects and a 604 KiB block
	// on the Map path, against the same block as three sbrk blocks.
	front := []int{0, 4, 8, 12}
	blk := []uint32{100 << 10, 250 << 10, 400 << 10, 550 << 10}
	mapped := newShape(b, &shapeApp{objects: 28, size: 2000, blocks: 1, block: 604 << 10}, front, blk)
	brk := newShape(b, &shapeApp{objects: 28, size: 2000, blocks: 3, block: 604 << 10 / 3}, front, blk)
	if got := mapped.m.Mem.MmapBytes(); got == 0 {
		b.Fatal("apache shape: the 604 KiB block is not on the Map path")
	}
	if got := brk.m.Mem.MmapBytes(); got != 0 {
		b.Fatalf("sbrk-only shape maps %d bytes", got)
	}

	run := func(sh shape) time.Duration {
		t0 := time.Now()
		for i := 0; i < intervals; i++ {
			sh.interval(i)
		}
		return time.Since(t0)
	}
	measure := func(base, other shape) float64 {
		var bestBase, bestOther time.Duration
		run(base) // warmup
		run(other)
		for r := 0; r < rounds; r++ {
			if d := run(base); bestBase == 0 || d < bestBase {
				bestBase = d
			}
			if d := run(other); bestOther == 0 || d < bestOther {
				bestOther = d
			}
		}
		return float64(bestOther) / float64(bestBase)
	}
	guard := func(name string, base, other shape) float64 {
		growth := 0.0
		for attempt := 0; attempt < 2; attempt++ {
			growth = measure(base, other)
			if growth <= budget {
				break
			}
		}
		b.ReportMetric(growth, name+"-x")
		return growth
	}

	var heap, gap float64
	for i := 0; i < b.N; i++ {
		heap = guard("16MiB-vs-1MiB", small, big)
		gap = guard("mapped-vs-brk", brk, mapped)
	}
	if heap > budget {
		b.Fatalf("a checkpoint interval on a 16 MiB heap costs %.2fx its cost on a 1 MiB heap, budget %.1fx", heap, budget)
	}
	if gap > budget {
		b.Fatalf("a checkpoint interval with a Map region at MmapBase costs %.2fx its cost on an sbrk-only heap of the same pages, budget %.1fx", gap, budget)
	}
}
