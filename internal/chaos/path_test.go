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
// trace slice (the enclosing recovery pair aside). The walls of the steps
// before validation must fit inside the recovery wall, and the validation
// step must carry the validation wall. A phase traced but not recorded, or
// recorded but not traced, fails here.
func TestPathMatchesTrace(t *testing.T) {
	validation := trace.PhaseName(trace.PhaseValidation)
	guardForced := core.MachineConfig{GuardForce: []string{"chaos_bug"}}
	cases := []struct {
		name string
		cfg  RunConfig
		step string // a step the shape must produce
	}{
		{"sync", RunConfig{Seed: 0x1D6, Class: mmbug.BufferOverflow}, validation},
		{"parallel-validation", RunConfig{Seed: 0x1D6, Class: mmbug.BufferOverflow, Mode: ModeParallel}, validation},
		{"stream-batch", RunConfig{Seed: 0x1D6, Class: mmbug.BufferOverflow, Mode: ModeStream, Batch: 7}, validation},
		{"speculate", RunConfig{Seed: 0x1D6, Class: mmbug.BufferOverflow, Speculate: true}, "phase2"},
		{"guard-fast-path", RunConfig{Seed: 0x6A1, Class: mmbug.BufferOverflow, Machine: guardForced}, "guard-confirm"},
		{"protected", RunConfig{Seed: 3, Class: mmbug.BufferOverflow, Protect: true}, "early-detect"},
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
			var recorded []ledger.Step
			var walls time.Duration
			var sawStep, sawValidation bool
			for _, st := range d.Path {
				recorded = append(recorded, ledger.Step{Name: st.Name, N: st.N})
				sawStep = sawStep || st.Name == tc.step
				if st.Name != validation {
					walls += time.Duration(st.WallNS)
					continue
				}
				sawValidation = true
				if got := time.Duration(st.WallNS).Seconds(); got != d.ValidationSec {
					t.Errorf("validation step wall %vs, diagnosis ValidationSec %vs", got, d.ValidationSec)
				}
			}
			if !reflect.DeepEqual(recorded, traced) {
				t.Fatalf("path and trace disagree:\npath  %+v\ntrace %+v", recorded, traced)
			}
			if !sawStep || !sawValidation {
				t.Fatalf("path %+v lacks %s or validation", d.Path, tc.step)
			}
			if walls.Seconds() > d.RecoverySec {
				t.Errorf("steps before validation took %v, more than the recovery's %vs", walls, d.RecoverySec)
			}
		})
	}
}
