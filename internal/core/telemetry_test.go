package core

import (
	"testing"

	"firstaid/internal/apps"
	"firstaid/internal/ledger"
	"firstaid/internal/telemetry"
)

// TestTelemetryConsistency is the reconciliation soak: after a supervised
// run with failures, the telemetry registry and the diagnosis ledger must
// agree with the supervisor's own Stats and with themselves, under both
// synchronous and parallel validation:
//
//   - one closed diagnosis per failure, each with a non-empty path;
//   - core.failures == Stats.Failures, core.skipped_events == Stats.Skipped;
//   - patch.generated == Stats.PatchesMade;
//   - checkpoints and rollbacks actually counted;
//   - patch-pool hits cannot exceed MM operations (every hit is an
//     allocation or deallocation passing through the extension);
//   - frees never exceed allocations;
//   - no validation left pending (queue depth gauge drained to 0).
func TestTelemetryConsistency(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		mode := "sync"
		if parallel {
			mode = "parallel"
		}
		t.Run(mode, func(t *testing.T) {
			for _, name := range []string{"apache", "squid", "cvs"} {
				name := name
				t.Run(name, func(t *testing.T) {
					reg := telemetry.NewRegistry()
					cfg := Config{ParallelValidation: parallel}
					cfg.Machine.Metrics = reg
					a, _ := apps.New(name)
					log := a.Workload(900, []int{230, 600})
					sup := NewSupervisor(a, log, cfg)
					stats := sup.Run()
					if stats.Failures == 0 {
						t.Fatal("soak produced no failures")
					}

					snap := reg.Snapshot()
					c := snap.Counters

					if got := c["core.failures"]; got != uint64(stats.Failures) {
						t.Errorf("core.failures = %d, Stats.Failures = %d", got, stats.Failures)
					}
					if got := c["core.skipped_events"]; got != uint64(stats.Skipped) {
						t.Errorf("core.skipped_events = %d, Stats.Skipped = %d", got, stats.Skipped)
					}
					if got := c["patch.generated"]; got != uint64(stats.PatchesMade) {
						t.Errorf("patch.generated = %d, Stats.PatchesMade = %d", got, stats.PatchesMade)
					}

					// One diagnosis per failure; all must have closed, each
					// with the path of phases it ran.
					ds := sup.Ledger().List(ledger.Filter{Worker: ledger.AnyWorker})
					if len(ds) != stats.Failures {
						t.Errorf("%d diagnoses, %d failures", len(ds), stats.Failures)
					}
					for _, d := range ds {
						if !d.Done() || d.Outcome == "" || len(d.Path) == 0 {
							t.Errorf("diagnosis %d not terminal or without a path: phase %s, outcome %q, path %+v",
								d.ID, d.Phase, d.Outcome, d.Path)
						}
					}

					// The pipeline must actually have exercised its layers.
					if c["ckpt.taken"] == 0 {
						t.Error("no checkpoints counted")
					}
					if c["ckpt.rollbacks"] == 0 {
						t.Error("no rollbacks counted despite failures")
					}
					if c["diag.rollbacks"] == 0 {
						t.Error("no diagnostic re-executions counted")
					}
					if c["diag.rollbacks"] != c["diag.phase1_reexecs"]+c["diag.phase2_reexecs"] {
						t.Errorf("diag.rollbacks = %d but phase1+phase2 = %d+%d",
							c["diag.rollbacks"], c["diag.phase1_reexecs"], c["diag.phase2_reexecs"])
					}

					// Pool hits happen on MM operations: bounded by them.
					hits := c["patch.alloc_hits"] + c["patch.free_hits"]
					ops := c["heap.mallocs"] + c["heap.frees"]
					if hits > ops {
						t.Errorf("patch-pool hits %d exceed MM operations %d", hits, ops)
					}
					if stats.PatchesMade > 0 && hits == 0 {
						t.Error("patches generated but never hit")
					}
					if c["heap.frees"] > c["heap.mallocs"] {
						t.Errorf("frees %d > mallocs %d", c["heap.frees"], c["heap.mallocs"])
					}

					// Run() collects every pending validation before returning.
					if got := snap.Gauges["core.pending_validations"]; got != 0 {
						t.Errorf("pending validations gauge = %d after Run", got)
					}
				})
			}
		})
	}
}

// TestTelemetryCloneMergeAccounting pins the clone-aggregation contract:
// with parallel validation the cloned machines' allocator work is folded
// into the parent registry, so a parallel run counts at least as many
// mallocs as the same run with validation disabled.
func TestTelemetryCloneMergeAccounting(t *testing.T) {
	run := func(parallel, disable bool) (Stats, telemetry.Snapshot) {
		reg := telemetry.NewRegistry()
		cfg := Config{ParallelValidation: parallel, DisableValidation: disable}
		cfg.Machine.Metrics = reg
		a, _ := apps.New("apache")
		log := a.Workload(700, []int{230})
		sup := NewSupervisor(a, log, cfg)
		st := sup.Run()
		return st, reg.Snapshot()
	}

	stNo, snapNo := run(false, true)
	stPar, snapPar := run(true, false)
	if stNo.Failures != stPar.Failures {
		t.Fatalf("failure counts diverge: %d vs %d", stNo.Failures, stPar.Failures)
	}
	base := snapNo.Counters["heap.mallocs"]
	merged := snapPar.Counters["heap.mallocs"]
	if merged <= base {
		t.Errorf("parallel-validation mallocs %d not above no-validation %d: clone work not merged",
			merged, base)
	}
	// The clone's validation re-executions also run the monitor.
	if snapPar.Counters["monitor.events"] <= snapNo.Counters["monitor.events"] {
		t.Errorf("monitor.events %d not above %d", snapPar.Counters["monitor.events"], snapNo.Counters["monitor.events"])
	}
}
