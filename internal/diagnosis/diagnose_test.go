package diagnosis_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"firstaid/internal/allocext"
	"firstaid/internal/callsite"
	"firstaid/internal/checkpoint"
	"firstaid/internal/diagnosis"
	"firstaid/internal/ledger"
	"firstaid/internal/mmbug"
	"firstaid/internal/proc"
)

// probeStep scripts one diagnostic re-execution: the checkpoint the engine
// must have rolled back to, and the outcome the fake machine returns.
type probeStep struct {
	wantSeq int
	out     diagnosis.Outcome
}

// fakeMachine is a scripted diagnosis.Machine: a checkpoint ladder plus an
// ordered list of probe outcomes. It lets each diagnosis outcome be tested
// against a hand-built re-execution history, with no allocator or address
// space behind it. Past the end of its script it answers a pass from the
// last scripted checkpoint: the phase-2 probes of a test that scripts
// phase 1 only, run from the checkpoint phase 1 selected.
type fakeMachine struct {
	t     *testing.T
	cps   []*checkpoint.Checkpoint
	sites *callsite.Table
	steps []probeStep

	rolledTo *checkpoint.Checkpoint
	step     int // re-executions so far, past the script's end included
	markErr  error
}

func (f *fakeMachine) Checkpoints() []*checkpoint.Checkpoint { return f.cps }
func (f *fakeMachine) Rollback(cp *checkpoint.Checkpoint)    { f.rolledTo = cp }
func (f *fakeMachine) MarkHeap() error                       { return f.markErr }
func (f *fakeMachine) SeenAllocSites() []callsite.ID         { return nil }
func (f *fakeMachine) SeenFreeSites() []callsite.ID          { return nil }
func (f *fakeMachine) SiteKey(id callsite.ID) callsite.Key   { return f.sites.Key(id) }

func (f *fakeMachine) ReExecute(cs *allocext.ChangeSet, until int) diagnosis.Outcome {
	f.t.Helper()
	if len(f.steps) == 0 {
		f.t.Fatalf("unexpected re-execution #%d (script is empty)", f.step+1)
	}
	i := f.step
	f.step++
	st := probeStep{wantSeq: f.steps[len(f.steps)-1].wantSeq}
	if i < len(f.steps) {
		st = f.steps[i]
	}
	if f.rolledTo == nil || f.rolledTo.Seq != st.wantSeq {
		f.t.Fatalf("re-execution #%d from checkpoint %v, script expects seq %d", f.step, f.rolledTo, st.wantSeq)
	}
	return st.out
}

func ladder(seqs ...int) []*checkpoint.Checkpoint {
	var cps []*checkpoint.Checkpoint
	for i, s := range seqs {
		cps = append(cps, &checkpoint.Checkpoint{Seq: s, Clock: uint64(100 * (i + 1)), Cursor: 10 * (i + 1)})
	}
	return cps
}

func fault() *proc.Fault { return &proc.Fault{Kind: proc.AccessViolation} }

func manifests(ms ...allocext.Manifestation) allocext.ManifestSet {
	return allocext.ManifestSet{All: ms}
}

// diagnose runs Diagnose over a fake machine with a fresh ledger entry,
// returning the result and the conditions the engine appended.
func diagnose(t *testing.T, f *fakeMachine, cfg diagnosis.Config) (diagnosis.Result, []ledger.Condition) {
	t.Helper()
	entry := ledger.New(8).Begin(ledger.Meta{Source: "diagnose-test"})
	cfg.Ledger = entry
	res := diagnosis.New(f, cfg).Diagnose(40)
	return res, entry.Snapshot().Conditions
}

// TestScreenNoCheckpoints: a diagnosis with an empty checkpoint ladder
// resolves non-patchable without a single re-execution.
func TestScreenNoCheckpoints(t *testing.T) {
	f := &fakeMachine{t: t, sites: callsite.NewTable()}
	res, conds := diagnose(t, f, diagnosis.Config{})
	if !res.Unpatchable {
		t.Fatalf("result %+v, want unpatchable", res)
	}
	if len(conds) != 1 || conds[0].Type != ledger.Phase1Completed ||
		!strings.Contains(conds[0].Message, "no checkpoints available") {
		t.Fatalf("conditions %+v, want one Phase1Completed/no-checkpoints", conds)
	}
}

// TestScreenNondeterministic: a passing plain re-execution resolves the
// diagnosis at the screen; no candidate or phase-2 probe runs.
func TestScreenNondeterministic(t *testing.T) {
	f := &fakeMachine{
		t: t, sites: callsite.NewTable(), cps: ladder(0, 1),
		steps: []probeStep{{wantSeq: 1, out: diagnosis.Outcome{}}}, // plain screen passes
	}
	res, conds := diagnose(t, f, diagnosis.Config{})
	if !res.Nondeterministic {
		t.Fatalf("result %+v, want nondeterministic", res)
	}
	if f.step != len(f.steps) {
		t.Fatalf("ran %d probes, want %d (the screen alone)", f.step, len(f.steps))
	}
	if len(conds) != 1 || conds[0].Type != ledger.Phase1Completed ||
		!strings.Contains(conds[0].Message, "non-deterministic") {
		t.Fatalf("conditions %+v, want one Phase1Completed/non-deterministic", conds)
	}
}

// TestCheckpointSelectRejections walks a four-candidate ladder through
// every rejection reason the phase-1 contract defines — heap-marking
// canaries, the front-padding underflow witness, the MetaErr metadata
// check, and a plain still-failing probe — and asserts each lands verbatim
// in the CheckpointSelected condition's candidate evidence.
func TestCheckpointSelectRejections(t *testing.T) {
	cases := []struct {
		name       string
		out        diagnosis.Outcome
		wantReject string
	}{
		{
			name:       "heap-mark",
			out:        diagnosis.Outcome{Manifests: manifests(allocext.Manifestation{Bug: mmbug.BufferOverflow, FromMark: true})},
			wantReject: "heap-marking canaries corrupted",
		},
		{
			name:       "underflow-witness",
			out:        diagnosis.Outcome{Manifests: manifests(allocext.Manifestation{Bug: mmbug.BufferOverflow, Offsets: []int{-1}})},
			wantReject: "front-padding canaries corrupted",
		},
		{
			name:       "meta-err",
			out:        diagnosis.Outcome{MetaErr: errors.New("header smashed")},
			wantReject: "allocator metadata corrupted",
		},
		{
			name:       "still-failing",
			out:        diagnosis.Outcome{Fault: fault()},
			wantReject: "all-preventive re-execution still failed",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeMachine{
				t: t, sites: callsite.NewTable(), cps: ladder(0, 1),
				steps: []probeStep{
					{wantSeq: 1, out: diagnosis.Outcome{Fault: fault()}}, // screen: deterministic
					{wantSeq: 1, out: tc.out},                            // newest rejected
					{wantSeq: 0, out: diagnosis.Outcome{}},               // oldest survives
				},
			}
			res, conds := diagnose(t, f, diagnosis.Config{})
			if cp := res.Checkpoint; cp == nil || cp.Seq != 0 {
				t.Fatalf("selected checkpoint %v, want seq 0", cp)
			}
			var sel *ledger.Condition
			for i := range conds {
				if conds[i].Type == ledger.CheckpointSelected {
					sel = &conds[i]
				}
			}
			if sel == nil {
				t.Fatalf("no CheckpointSelected condition: %+v", conds)
			}
			if len(sel.Candidates) != 2 {
				t.Fatalf("candidates %+v, want 2", sel.Candidates)
			}
			if !strings.Contains(sel.Candidates[0].Rejected, tc.wantReject) {
				t.Fatalf("rejection %q, want substring %q", sel.Candidates[0].Rejected, tc.wantReject)
			}
			if sel.Candidates[1].Rejected != "" {
				t.Fatalf("accepted candidate carries rejection %q", sel.Candidates[1].Rejected)
			}
		})
	}
}

// TestCheckpointSelectExhaustion: every ladder rung rejected resolves
// non-patchable with the full candidate evidence chain.
func TestCheckpointSelectExhaustion(t *testing.T) {
	f := &fakeMachine{
		t: t, sites: callsite.NewTable(), cps: ladder(0, 1),
		steps: []probeStep{
			{wantSeq: 1, out: diagnosis.Outcome{Fault: fault()}},
			{wantSeq: 1, out: diagnosis.Outcome{Fault: fault()}},
			{wantSeq: 0, out: diagnosis.Outcome{Fault: fault()}},
		},
	}
	res, conds := diagnose(t, f, diagnosis.Config{})
	if !res.Unpatchable || res.Checkpoint != nil {
		t.Fatalf("result %+v, want unpatchable without a checkpoint", res)
	}
	if f.step != len(f.steps) {
		t.Fatalf("ran %d probes, want %d (no phase 2 without a checkpoint)", f.step, len(f.steps))
	}
	var done *ledger.Condition
	for i := range conds {
		if conds[i].Type == ledger.Phase1Completed {
			done = &conds[i]
		}
	}
	if done == nil || !strings.Contains(done.Message, "no surviving checkpoint") {
		t.Fatalf("conditions %+v, want Phase1Completed/no-surviving-checkpoint", conds)
	}
	if len(done.Candidates) != 2 {
		t.Fatalf("candidates %+v, want both rejections recorded", done.Candidates)
	}
}

// TestFullPipelineIdentifies drives the whole diagnosis over a
// scripted deep ladder: screen fails deterministically, three candidates
// are rejected for three different reasons, the fourth survives, and
// phase 2 isolates a double free at its exact free site.
func TestFullPipelineIdentifies(t *testing.T) {
	sites := callsite.NewTable()
	dfSite := sites.Intern(callsite.Key{"free_leaf", "bug_mid", "outer"})
	pass := diagnosis.Outcome{}
	f := &fakeMachine{
		t: t, sites: sites, cps: ladder(0, 1, 2, 3),
		steps: []probeStep{
			{wantSeq: 3, out: diagnosis.Outcome{Fault: fault()}}, // screen
			{wantSeq: 3, out: diagnosis.Outcome{Manifests: manifests(allocext.Manifestation{Bug: mmbug.DanglingWrite, FromMark: true})}},
			{wantSeq: 2, out: diagnosis.Outcome{Manifests: manifests(allocext.Manifestation{Bug: mmbug.BufferOverflow, Offsets: []int{-2}})}},
			{wantSeq: 1, out: diagnosis.Outcome{MetaErr: errors.New("smashed header")}},
			{wantSeq: 0, out: pass}, // selected
			// Phase 2 from checkpoint 0, classes in mmbug order.
			{wantSeq: 0, out: pass}, // overflow: ruled out
			{wantSeq: 0, out: pass}, // dangling write: ruled out
			{wantSeq: 0, out: pass}, // dangling read: ruled out
			{wantSeq: 0, out: diagnosis.Outcome{Manifests: manifests(allocext.Manifestation{Bug: mmbug.DoubleFree, FreeSite: dfSite})}},
			{wantSeq: 0, out: pass}, // convergence over {uninit read}
			{wantSeq: 0, out: pass}, // final scoped verification
		},
	}
	res, _ := diagnose(t, f, diagnosis.Config{})
	if !res.OK() {
		t.Fatalf("result %+v, want OK", res)
	}
	if res.Checkpoint.Seq != 0 {
		t.Fatalf("checkpoint seq %d, want 0", res.Checkpoint.Seq)
	}
	want := []diagnosis.Finding{{Bug: mmbug.DoubleFree, Sites: []callsite.ID{dfSite}}}
	if !reflect.DeepEqual(res.Findings, want) {
		t.Fatalf("findings %+v, want %+v", res.Findings, want)
	}
	if res.Rollbacks != len(f.steps) {
		t.Fatalf("rollbacks %d, want %d", res.Rollbacks, len(f.steps))
	}
	if f.step != len(f.steps) {
		t.Fatalf("script consumed %d/%d steps", f.step, len(f.steps))
	}
}

// TestGuardEvidenceFastPath: confirmed guard evidence replaces both search
// phases with one scoped re-execution from the newest checkpoint
// predating the evidence clock, and the ledger records the skip and the
// selection, nothing else.
func TestGuardEvidenceFastPath(t *testing.T) {
	sites := callsite.NewTable()
	site := sites.Intern(callsite.Key{"alloc_leaf", "bug_mid", "outer"})
	f := &fakeMachine{
		t: t, sites: sites, cps: ladder(0, 1),
		// Clock 150 falls between the checkpoints (100, 200): seq 0.
		steps: []probeStep{{wantSeq: 0, out: diagnosis.Outcome{}}},
	}
	res, conds := diagnose(t, f, diagnosis.Config{
		Evidence: &diagnosis.Evidence{Bug: mmbug.BufferOverflow, Site: site, Clock: 150},
	})
	if !res.FastPath || !res.OK() || res.Rollbacks != 1 {
		t.Fatalf("result %+v, want a fast-path OK result after one rollback", res)
	}
	if f.step != len(f.steps) {
		t.Fatalf("ran %d probes, want %d", f.step, len(f.steps))
	}
	want := []diagnosis.Finding{{Bug: mmbug.BufferOverflow, Sites: []callsite.ID{site}}}
	if !reflect.DeepEqual(res.Findings, want) {
		t.Fatalf("findings %+v, want %+v", res.Findings, want)
	}
	wantTypes := []ledger.ConditionType{ledger.Phase1Skipped, ledger.CheckpointSelected}
	var gotTypes []ledger.ConditionType
	for _, cond := range conds {
		gotTypes = append(gotTypes, cond.Type)
	}
	if !reflect.DeepEqual(gotTypes, wantTypes) {
		t.Fatalf("condition types %v, want %v", gotTypes, wantTypes)
	}
}
