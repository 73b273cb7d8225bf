package chaos

import (
	"bytes"
	"reflect"
	"testing"
)

// TestStageEquivalence is the differential pin for speculative recovery:
// every accuracy-matrix cell runs twice on the same seed — once with serial
// diagnosis and once with speculation racing the hypothesis ladder on
// clones — and the two runs must be observationally identical.
// "Identical" is checked at three levels:
//
//   - the speculative run independently satisfies the cell contract (the
//     differential oracle accepts the final state and every injected bug is
//     diagnosed at its exact site or provably neutralized);
//   - the recovery summaries (event, fault kind, early/fast-path flags,
//     findings with their sites) and the run statistics are equal, except
//     SimSeconds: clone re-execution work is discarded under speculation,
//     so the parent's simulated-time meter legitimately reads lower;
//   - the canonical ledger projections are byte-identical, entry for entry
//     — the strongest pin, covering verdicts, condition ordering, fault
//     attribution and patch sites.
//
// The top-level subtests are the supervision modes, mirroring the accuracy
// matrix so CI can shard with -run 'TestStageEquivalence/<mode>'.
func TestStageEquivalence(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:2]
	}
	cells := matrixCells()
	for _, mode := range []Mode{ModeSync, ModeParallel, ModeStream} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for _, c := range cells {
				c := c
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					launched := 0
					for _, seed := range seeds {
						cfg := RunConfig{
							Seed: seed, Mode: mode,
							Scenario: c.scenario, Class: c.class,
							Combo: c.combo, Protect: c.protect,
						}
						if c.sampled {
							cfg.Machine.GuardForce = []string{"chaos_bug"}
						}
						serial := Run(cfg)
						cfg.Speculate = true
						spec := Run(cfg)
						checkEquivalent(t, seed, serial, spec)
						launched += spec.Sup.Speculation().Launched
					}
					// The pin must not pass vacuously: unless every recovery
					// in the cell took the guard fast path (which resolves
					// before any hypothesis is announced), at least one
					// hypothesis must actually have raced on a clone.
					if launched == 0 && !c.sampled {
						t.Fatalf("speculation never launched a hypothesis in this cell")
					}
				})
			}
		})
	}
}

// checkEquivalent asserts that a speculative run matches its serial twin.
func checkEquivalent(t *testing.T, seed uint64, serial, spec *Outcome) {
	t.Helper()
	if !spec.OK() {
		savePostmortem(t, spec)
		t.Fatalf("seed %#x: speculative run failed the oracle:\n%s", seed, spec.Verdict())
	}
	if err := spec.CheckExpected(); err != nil {
		savePostmortem(t, spec)
		t.Fatalf("seed %#x: speculative run: %v\n%s", seed, err, spec.Verdict())
	}
	if !reflect.DeepEqual(serial.Recoveries, spec.Recoveries) {
		t.Fatalf("seed %#x: recovery summaries diverge\nserial:\n%s\nspeculative:\n%s",
			seed, serial.Verdict(), spec.Verdict())
	}
	ss, ps := serial.Stats, spec.Stats
	ss.SimSeconds, ps.SimSeconds = 0, 0
	if ss != ps {
		t.Fatalf("seed %#x: run statistics diverge: serial %+v, speculative %+v", seed, ss, ps)
	}
	// The re-free counter's magnitude includes trigger hits from diagnostic
	// probe work, which moves onto clones under speculation; only its sign
	// (the collateral-neutralization signal CheckExpected keys on) is part
	// of the observational contract.
	if (serial.RefreeBlocks > 0) != (spec.RefreeBlocks > 0) {
		t.Fatalf("seed %#x: re-free neutralization signal diverges: serial %d, speculative %d",
			seed, serial.RefreeBlocks, spec.RefreeBlocks)
	}
	sc, pc := canonicals(t, serial), canonicals(t, spec)
	if len(sc) != len(pc) {
		t.Fatalf("seed %#x: ledger sizes diverge: serial %d diagnoses, speculative %d",
			seed, len(sc), len(pc))
	}
	for i := range sc {
		if !bytes.Equal(sc[i], pc[i]) {
			t.Fatalf("seed %#x: canonical projection of diagnosis %d diverges\nserial:\n%s\nspeculative:\n%s",
				seed, i, sc[i], pc[i])
		}
	}
}
