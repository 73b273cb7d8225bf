package chaos

import (
	"reflect"
	"testing"
	"time"

	"firstaid/internal/core"
	"firstaid/internal/ledger"
	"firstaid/internal/mmbug"
	"firstaid/internal/report"
	"firstaid/internal/trace"
)

// TestPathMatchesTrace pins the one-timing-point contract of recovery
// phases: each is opened with ledger.Entry.Phase, whose closer writes the
// phase's trace end record and its path step from one measurement. For
// one recovery in each supervision shape, the diagnosis's path must name,
// in order and with the same counts, exactly the phase-end records of its
// trace slice (the enclosing recovery pair aside), and it must be the
// shape's expected path: a phase that moved or vanished from both the path
// and the trace fails only the second check. The walls of the steps
// before validation must fit inside the recovery wall, and the validation
// step must carry the validation wall. A phase traced but not recorded, or
// recorded but not traced, fails here.
func TestPathMatchesTrace(t *testing.T) {
	validation := trace.PhaseName(trace.PhaseValidation)
	guardForced := core.MachineConfig{GuardForce: []string{"chaos_bug"}}
	// Figure 1's cycle after a full two-phase diagnosis; validation's n
	// counts its randomized re-executions.
	full := []ledger.Step{
		{Name: "phase1", N: 2, Outcome: "checkpoint found"},
		{Name: "phase2", N: 3, Outcome: "identified"},
		{Name: "patch-gen", N: 1},
		{Name: "rollback", N: 1},
		{Name: validation, N: 3, Outcome: "consistent"},
	}
	earlyDetect := ledger.Step{Name: "early-detect", Outcome: "same-event"}
	cases := []struct {
		name string
		cfg  RunConfig
		path []ledger.Step // the expected path, walls aside
	}{
		{"sync", RunConfig{Seed: 0x1D6, Class: mmbug.BufferOverflow}, full},
		{"parallel-validation", RunConfig{Seed: 0x1D6, Class: mmbug.BufferOverflow, Mode: ModeParallel}, full},
		{"stream-batch", RunConfig{Seed: 0x1D6, Class: mmbug.BufferOverflow, Mode: ModeStream, Batch: 7}, full},
		{"speculate", RunConfig{Seed: 0x1D6, Class: mmbug.BufferOverflow, Speculate: true}, full},
		{"guard-fast-path", RunConfig{Seed: 0x6A1, Class: mmbug.BufferOverflow, Machine: guardForced}, []ledger.Step{
			earlyDetect,
			{Name: "guard-confirm", N: 1, Outcome: "confirmed"},
			{Name: "patch-gen", N: 1},
			{Name: "rollback", N: 1},
			{Name: validation, N: 3, Outcome: "consistent"},
		}},
		{"protected", RunConfig{Seed: 3, Class: mmbug.BufferOverflow, Protect: true}, append([]ledger.Step{earlyDetect}, full...)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			trc := trace.New(1 << 17)
			cfg := tc.cfg
			cfg.Machine.Trace = trc
			out := Run(cfg)
			if !out.OK() {
				t.Fatalf("oracle failed:\n%s", out.Verdict())
			}
			if trc.Dropped() > 0 {
				t.Fatalf("trace ring dropped %d records; grow it", trc.Dropped())
			}
			ds := out.Sup.Ledger().List(ledger.Filter{Worker: ledger.AnyWorker})
			if len(ds) != 1 {
				t.Fatalf("%d diagnoses, want one recovery:\n%s", len(ds), out.Verdict())
			}
			d := ds[0]

			var traced []ledger.Step
			for _, r := range report.BundleFor(d, trc, nil).Trace {
				if r.Kind == trace.KPhaseEnd && r.Arg1 != trace.PhaseRecovery {
					traced = append(traced, ledger.Step{Name: trace.PhaseName(r.Arg1), N: r.Arg2})
				}
			}
			var recorded, steps []ledger.Step
			var walls time.Duration
			for _, st := range d.Path {
				recorded = append(recorded, ledger.Step{Name: st.Name, N: st.N})
				steps = append(steps, ledger.Step{Name: st.Name, N: st.N, Outcome: st.Outcome})
				if st.Name != validation {
					walls += time.Duration(st.WallNS)
					continue
				}
				if got := time.Duration(st.WallNS).Seconds(); got != d.ValidationSec {
					t.Errorf("validation step wall %vs, diagnosis ValidationSec %vs", got, d.ValidationSec)
				}
			}
			if !reflect.DeepEqual(recorded, traced) {
				t.Fatalf("path and trace disagree:\npath  %+v\ntrace %+v", recorded, traced)
			}
			if !reflect.DeepEqual(steps, tc.path) {
				t.Fatalf("path %+v, want %+v", steps, tc.path)
			}
			if walls.Seconds() > d.RecoverySec {
				t.Errorf("steps before validation took %v, more than the recovery's %vs", walls, d.RecoverySec)
			}
		})
	}
}
