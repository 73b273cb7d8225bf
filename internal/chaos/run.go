package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"firstaid/internal/core"
	"firstaid/internal/mmbug"
	"firstaid/internal/replay"
	"firstaid/internal/vmem"
)

// Mode selects how the program is driven through First-Aid. The same
// program must yield the same oracle verdict and diagnosis in every mode
// — that equivalence is itself one of the harness's assertions.
type Mode int

const (
	// ModeSync replays the pre-recorded log with inline validation.
	ModeSync Mode = iota
	// ModeParallel replays the pre-recorded log with parallel (cloned
	// machine, separate goroutine) patch validation.
	ModeParallel
	// ModeStream feeds events one at a time through Supervisor.Ingest,
	// the live front-end path.
	ModeStream
)

func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeParallel:
		return "parallel"
	case ModeStream:
		return "stream"
	}
	return "invalid"
}

// RunConfig parameterises one chaos run.
type RunConfig struct {
	Seed     uint64
	Class    mmbug.Type
	Ops      int // benign op budget (default 110, clamped to MaxOps)
	Mode     Mode
	Scenario Scenario
	Combo    int  // ScenarioMulti: combo library index
	Protect  bool // mark the corruptible script object a sensitive region
	Guard    bool // run with guard-page sampling always on (rate 1/2)
	// TamperNoCoalesce deliberately breaks the allocator (coalescing
	// disabled) so tests can prove the oracle notices — a run with this
	// set MUST fail.
	TamperNoCoalesce bool
	// DisableLedger turns off the diagnosis ledger (overhead benchmarks).
	DisableLedger bool
	// Speculate races diagnosis hypotheses on COW clones (see
	// core.Config.Speculate). Off by default here so differential tests can
	// compare a serial and a speculative run of the same program.
	Speculate bool
	// Batch, when > 1 in ModeStream, feeds events through
	// Supervisor.IngestBatch in batches of that size instead of one Ingest
	// call per event — the live batched front-end path. The outcome must be
	// indistinguishable from serial ingest (TestBatchIngestEquivalence).
	Batch int
	// ParallelValidation validates patches on cloned machines even outside
	// ModeParallel — the streaming twin of the fleet's -parallel-validation
	// deployment shape.
	ParallelValidation bool
	// Machine overrides the machine configuration (zero value = defaults).
	Machine core.MachineConfig
}

// FindingSummary is one diagnosed bug rendered mode-independently: the
// class plus its patch sites as stable stack-key strings, sorted.
type FindingSummary struct {
	Class mmbug.Type
	Sites []string
}

// RecoverySummary distils one recovery episode into the facts that must
// be identical across execution modes.
type RecoverySummary struct {
	Event    int // failing event sequence number
	Fault    string
	Early    bool // detected at the faulting access (guard hit or eager scan)
	FastPath bool // diagnosed from guard evidence with a single confirmation re-execution
	Nondet   bool
	Skipped  bool
	Findings []FindingSummary
}

// Outcome is the result of one chaos run.
type Outcome struct {
	Prog       *Program
	Mode       Mode
	Stats      core.Stats
	Recoveries []RecoverySummary
	OracleErr  error
	// Sup is the finished supervisor: its ledger holds one diagnosis per
	// recovery, and WritePostmortems renders them into bundles.
	Sup *core.Supervisor

	// RefreeBlocks counts re-frees the deployed parameter check blocked
	// at the dedicated re-free sites — how collaterally-neutralized
	// double frees announce themselves.
	RefreeBlocks int
}

// OK reports whether the differential oracle accepted the final state.
func (o *Outcome) OK() bool { return o.OracleErr == nil }

// WritePostmortems writes one postmortem bundle per recovery into dir —
// the offline flow behind firstaid-run -postmortem and the CI
// failing-seed artifacts.
func (o *Outcome) WritePostmortems(dir string) ([]string, error) {
	if o.Sup == nil {
		return nil, nil
	}
	return o.Sup.WritePostmortems(dir)
}

// Verdict renders the full failure report: seed, stats, every recovery's
// diagnosis, the oracle error, and the decoded program — everything
// needed to replay and shrink from a single uint64.
func (o *Outcome) Verdict() string {
	var b strings.Builder
	oracle := "PASS"
	if o.OracleErr != nil {
		oracle = "FAIL: " + o.OracleErr.Error()
	}
	fmt.Fprintf(&b, "chaos run mode=%s seed=%#x scenario=%v class=%v protect=%v: events=%d failures=%d recoveries=%d skipped=%d refree-blocks=%d\n",
		o.Mode, o.Prog.Seed, o.Prog.Scenario, o.Prog.Class, o.Prog.Protect,
		o.Stats.Events, o.Stats.Failures, o.Stats.Recoveries, o.Stats.Skipped, o.RefreeBlocks)
	for _, rec := range o.Recoveries {
		fmt.Fprintf(&b, "  recovery at event #%d fault=%s", rec.Event, rec.Fault)
		if rec.Early {
			b.WriteString(" (early)")
		}
		if rec.FastPath {
			b.WriteString(" (fast-path)")
		}
		switch {
		case rec.Nondet:
			b.WriteString(" -> nondeterministic")
		case rec.Skipped:
			b.WriteString(" -> skipped")
		}
		for _, f := range rec.Findings {
			fmt.Fprintf(&b, " %v@%s", f.Class, strings.Join(f.Sites, "|"))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  oracle: %s\n", oracle)
	b.WriteString(o.Prog.String())
	return b.String()
}

// Run generates the program for a seed and runs it under the oracle.
func Run(cfg RunConfig) *Outcome {
	prog := GenerateSpec(GenSpec{
		Seed:     cfg.Seed,
		Scenario: cfg.Scenario,
		Class:    cfg.Class,
		Combo:    cfg.Combo,
		Protect:  cfg.Protect,
		Guard:    cfg.Guard,
		Ops:      cfg.Ops,
	})
	return RunProgram(prog, cfg)
}

// RunProgram drives an explicit program (fuzz-decoded or generated)
// through a fresh supervised machine in the configured mode, then applies
// the differential oracle to the final state.
func RunProgram(prog *Program, cfg RunConfig) *Outcome {
	scfg := core.Config{
		Machine:            cfg.Machine,
		ParallelValidation: cfg.Mode == ModeParallel || cfg.ParallelValidation,
		DisableLedger:      cfg.DisableLedger,
		Speculate:          cfg.Speculate,
	}
	if cfg.Seed != 0 {
		// Fuzz-decoded programs run with Seed 0: their op stream came from
		// raw bytes, so no firstaid-run command can reproduce them and the
		// diagnoses carry no repro line.
		scfg.Repro = ReproCommand(cfg)
	}
	if prog.Guard && scfg.Machine.GuardRate == 0 && len(scfg.Machine.GuardForce) == 0 {
		// A guarded program with no explicit configuration runs at rate 1/2:
		// aggressive enough that a short fuzz stream actually samples, while
		// still exercising the sampled/unsampled mix.
		scfg.Machine.GuardRate = 2
	}
	var sup *core.Supervisor
	var stats core.Stats
	if cfg.Mode == ModeStream {
		sup = core.NewSupervisor(&App{Class: prog.Class, Classes: prog.Classes()}, replay.NewLog(), scfg)
		if cfg.TamperNoCoalesce {
			sup.M.Heap.SetNoCoalesce(true)
		}
		if ops := prog.Ops(); cfg.Batch > 1 {
			items := make([]replay.Item, 0, cfg.Batch)
			for lo := 0; lo < len(ops); lo += cfg.Batch {
				hi := lo + cfg.Batch
				if hi > len(ops) {
					hi = len(ops)
				}
				items = items[:0]
				for _, op := range ops[lo:hi] {
					kind, data, n := op.Event()
					items = append(items, replay.Item{Kind: []byte(kind), Data: []byte(data), N: n})
				}
				sup.IngestBatch(items)
			}
		} else {
			for _, op := range ops {
				kind, data, n := op.Event()
				sup.Ingest(kind, data, n)
			}
		}
		stats = sup.Finish()
	} else {
		log := replay.NewLog()
		prog.AppendTo(log)
		sup = core.NewSupervisor(&App{Class: prog.Class, Classes: prog.Classes()}, log, scfg)
		if cfg.TamperNoCoalesce {
			sup.M.Heap.SetNoCoalesce(true)
		}
		stats = sup.Run()
	}

	out := &Outcome{Prog: prog, Mode: cfg.Mode, Stats: stats, Sup: sup}
	for _, rec := range sup.Recoveries {
		s := RecoverySummary{
			Event:    rec.Fault.Event,
			Fault:    rec.Fault.Kind.String(),
			Early:    rec.Fault.Early,
			FastPath: rec.Result.FastPath,
			Nondet:   rec.Result.Nondeterministic,
			Skipped:  rec.Skipped,
		}
		for _, fd := range rec.Result.Findings {
			fs := FindingSummary{Class: fd.Bug}
			for _, site := range fd.Sites {
				key := sup.M.SiteKey(site)
				fs.Sites = append(fs.Sites, strings.Join(key[:], "/"))
			}
			sort.Strings(fs.Sites)
			s.Findings = append(s.Findings, fs)
		}
		sort.Slice(s.Findings, func(i, j int) bool { return s.Findings[i].Class < s.Findings[j].Class })
		out.Recoveries = append(out.Recoveries, s)
	}
	for site, n := range sup.M.Ext.Triggers() {
		key := sup.M.SiteKey(site)
		// The re-free site families are never patched directly, so any
		// trigger recorded there is a blocked re-free.
		if strings.HasPrefix(key[1], "chaos_bug_refree") {
			out.RefreeBlocks += int(n)
		}
	}
	out.OracleErr = CheckSupervisor(sup)
	return out
}

// CheckExpected asserts the run's diagnoses against the program's
// ground-truth bug set: every finding must exactly match an expected
// (class, single-site) entry, every non-collateral expected bug must have
// been found, and every collateral bug must have been found OR neutralized
// as a blocked re-free. Together with OK() this is the accuracy-matrix
// cell contract.
func (o *Outcome) CheckExpected() error {
	expected := o.Prog.Expected()
	matched := make([]bool, len(expected))
	for _, rec := range o.Recoveries {
		for _, f := range rec.Findings {
			if len(f.Sites) != 1 {
				return fmt.Errorf("finding %v has %d sites %v, want exactly 1",
					f.Class, len(f.Sites), f.Sites)
			}
			ok := false
			for i, e := range expected {
				if e.Class == f.Class && e.Site == f.Sites[0] {
					matched[i] = true
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("unexpected finding %v@%s (expected set %v)",
					f.Class, f.Sites[0], expected)
			}
		}
	}
	for i, e := range expected {
		if matched[i] {
			continue
		}
		if e.Collateral && o.RefreeBlocks > 0 {
			continue // neutralized by another bug's patch, announced as a blocked re-free
		}
		return fmt.Errorf("expected bug %v@%s was neither diagnosed nor neutralized", e.Class, e.Site)
	}
	return nil
}

// CheckSupervisor runs the differential oracle against a finished
// supervised run: it decodes the op stream back out of the supervisor's
// own log, replays it through the shadow model (minus the events the
// supervisor dropped), and compares the machine's final state.
func CheckSupervisor(sup *core.Supervisor) error {
	skipped := map[int]bool{}
	for _, rec := range sup.Recoveries {
		if rec.Skipped && rec.Fault != nil {
			skipped[rec.Fault.Event] = true
		}
	}
	model := RunModel(OpsFromLog(sup.Log()), skipped)
	return CheckMachine(sup.M, model)
}

// CheckMachine asserts that a machine's final state agrees with the
// model: allocator invariants hold, the slot table matches slot for slot,
// every live slot is backed by a live allocator object of the right size
// whose defined prefix holds the expected pattern, and no extra objects
// exist.
func CheckMachine(m *core.Machine, model *Model) error {
	if err := m.Heap.CheckInvariants(); err != nil {
		return fmt.Errorf("allocator invariants violated: %w", err)
	}
	table := m.Proc.RootAddr(rootTable)
	if table == 0 {
		return errors.New("slot-table root register lost")
	}
	live := 0
	for i := 0; i < NumSlots; i++ {
		base := table + vmem.Addr(i)*slotBytes
		var word [4]uint32
		for j := range word {
			v, err := m.Mem.ReadU32(base + vmem.Addr(4*j))
			if err != nil {
				return fmt.Errorf("slot %d: table unreadable: %w", i, err)
			}
			word[j] = v
		}
		got := entry{
			addr:    vmem.Addr(word[0]),
			size:    word[1],
			defined: word[2],
			pat:     byte(word[3]),
			stale:   word[3]&staleBit != 0,
		}
		want := model.Slots[i]
		if (got.addr != 0) != want.Allocated || (want.Allocated && got.stale != want.Stale) {
			return fmt.Errorf("slot %d: machine has %s, model has %s", i, describe(got), want)
		}
		if !want.Allocated {
			continue
		}
		if got.size != want.Size || got.defined != want.Defined || got.pat != want.Pat {
			return fmt.Errorf("slot %d: machine has %s, model has %s", i, describe(got), want)
		}
		if !got.live() {
			continue
		}
		live++
		obj, ok := m.Ext.Object(got.addr)
		if !ok || obj.Delayed {
			return fmt.Errorf("slot %d: no live allocator object at %#x", i, got.addr)
		}
		if obj.UserSize != got.size {
			return fmt.Errorf("slot %d: allocator object is %d bytes, table says %d",
				i, obj.UserSize, got.size)
		}
		if got.defined > 0 {
			data, err := m.Mem.Read(got.addr, int(got.defined))
			if err != nil {
				return fmt.Errorf("slot %d: contents unreadable: %w", i, err)
			}
			for j, b := range data {
				if b != got.pat {
					return fmt.Errorf("slot %d: byte %d is %#02x, want pattern %#02x",
						i, j, b, got.pat)
				}
			}
		}
	}
	// Exactly the live slots plus the table itself may be live objects.
	if got := m.Ext.LiveObjects(); got != live+1 {
		return fmt.Errorf("%d live allocator objects, want %d (table + %d live slots)",
			got, live+1, live)
	}
	return nil
}

func describe(e entry) string {
	switch {
	case e.addr == 0:
		return "empty"
	case e.stale:
		return fmt.Sprintf("stale size=%d pat=%#02x", e.size, e.pat)
	default:
		return fmt.Sprintf("live size=%d defined=%d pat=%#02x", e.size, e.defined, e.pat)
	}
}
