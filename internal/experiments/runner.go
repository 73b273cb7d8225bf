// Package experiments regenerates every table and figure of the paper's
// evaluation (§7): Table 2 (application inventory), Table 3 (overall
// effectiveness), Table 4 (patch weight vs Rx), Table 5 (patch space
// overhead), Table 6 (allocator-extension space overhead), Table 7
// (checkpoint space overhead), Figure 4 (throughput under repeated bug
// triggers: First-Aid vs Rx vs restart) and Figure 6 (normal-run time
// overhead). Each experiment returns structured rows plus a text rendering;
// cmd/experiments and the root benchmarks are thin wrappers.
package experiments

import (
	"time"

	"firstaid/internal/allocext"
	"firstaid/internal/app"
	"firstaid/internal/callsite"
	"firstaid/internal/checkpoint"
	"firstaid/internal/core"
	"firstaid/internal/heap"
	"firstaid/internal/proc"
	"firstaid/internal/replay"
	"firstaid/internal/telemetry"
	"firstaid/internal/vmem"
)

// Metrics, when set, instruments every supervised run the experiments
// launch. cmd/experiments -metrics assigns a registry here and dumps its
// snapshot at exit; successive runs accumulate into the same registry.
var Metrics *telemetry.Registry

// newSupervisor builds a supervisor with the package registry injected.
// Every experiment goes through it so -metrics covers them uniformly.
func newSupervisor(prog app.Program, log *replay.Log, cfg core.Config) *core.Supervisor {
	cfg.Machine.Metrics = Metrics
	return core.NewSupervisor(prog, log, cfg)
}

// RunConfig selects one of the three measurement configurations of §7.5:
// original allocator only; plus the memory allocator extension; plus
// checkpointing.
type RunConfig struct {
	WithExt  bool
	WithCkpt bool
	// Events is the workload length (defaults to 400).
	Events int
	// CheckpointCfg overrides checkpoint parameters.
	CheckpointCfg checkpoint.Config
}

// Measurement is the outcome of one configuration run.
type Measurement struct {
	Cycles    uint64        // simulated execution time
	Wall      time.Duration // host time of Init plus the workload, checkpoints included
	HeapPeak  uint64        // allocator peak payload bytes (incl. ext metadata)
	CkptStats checkpoint.Stats
}

// RunProgram executes prog's normal workload (no bug triggers) under the
// given configuration and measures it.
func RunProgram(prog app.App, cfg RunConfig) Measurement {
	if cfg.Events == 0 {
		cfg.Events = 400
	}
	mem := vmem.New(512 << 20)
	h := heap.New(mem)
	var p *proc.Proc
	var ext *allocext.Ext
	if cfg.WithExt {
		sites := callsite.NewTable()
		ext = allocext.New(h, sites)
		p = proc.New(mem, ext)
		p.Sites = sites
	} else {
		p = proc.New(mem, proc.RawMM{H: h})
	}

	log := prog.Workload(cfg.Events, nil)

	var mgr *checkpoint.Manager
	if cfg.WithCkpt {
		if ext == nil {
			panic("experiments: checkpointing requires the extension")
		}
		mgr = checkpoint.NewManager(cfg.CheckpointCfg, mem, h, p, ext, log)
	}

	start := time.Now()
	if f := proc.Catch(func() { prog.Init(p) }); f != nil {
		panic("experiments: " + prog.Name() + " init faulted: " + f.Error())
	}
	if mgr != nil {
		mgr.Take()
	}
	for {
		ev, ok := log.Next()
		if !ok {
			break
		}
		if f := proc.Catch(func() { prog.Handle(p, ev) }); f != nil {
			panic("experiments: " + prog.Name() + " faulted on normal input: " + f.Error())
		}
		if mgr != nil {
			mgr.MaybeCheckpoint()
		}
	}

	meas := Measurement{Cycles: p.Clock(), Wall: time.Since(start), HeapPeak: h.PeakBytes()}
	if mgr != nil {
		meas.CkptStats = mgr.Stats()
	}
	return meas
}
