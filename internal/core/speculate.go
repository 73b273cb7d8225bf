package core

import (
	"firstaid/internal/callsite"
	"firstaid/internal/checkpoint"
	"firstaid/internal/diagnosis"
)

// specHost adapts a Machine to diagnosis.CloneSource, and keeps one
// pre-warmed standby clone refreshed at every checkpoint so the first
// hypothesis of a recovery can launch without paying the clone cost. All
// methods run on the supervisor goroutine.
type specHost struct {
	m *Machine

	// standby is a clone taken at standbyCp, immediately after the
	// checkpoint was (so its memory image equals the checkpoint's). Matched
	// by checkpoint pointer identity: a checkpoint dropped by DropAfter can
	// never be requested again, so a stale standby simply never matches and
	// is replaced at the next Refresh.
	standby   *Machine
	standbyCp *checkpoint.Checkpoint
}

// Rollback implements diagnosis.CloneSource.
func (h *specHost) Rollback(cp *checkpoint.Checkpoint) { h.m.Rollback(cp) }

// SpawnProbe implements diagnosis.CloneSource.
func (h *specHost) SpawnProbe() diagnosis.ProbeMachine { return h.m.CloneForSpeculation() }

// TakeStandby implements diagnosis.CloneSource: it surrenders the standby when
// it was taken at exactly cp. The standby's replay log is a snapshot from
// clone time; under streaming supervision the parent log has grown since,
// so it is brought level before handing over.
func (h *specHost) TakeStandby(cp *checkpoint.Checkpoint) diagnosis.ProbeMachine {
	if h.standby == nil || h.standbyCp != cp {
		return nil
	}
	sb := h.standby
	h.standby, h.standbyCp = nil, nil
	sb.Log.CatchUp(h.m.Log)
	return sb
}

// InternSite implements diagnosis.CloneSource.
func (h *specHost) InternSite(k callsite.Key) callsite.ID { return h.m.Proc.Sites.Intern(k) }

// Refresh replaces the standby with a fresh clone of the machine as it
// stands. Called right after a checkpoint is taken, while machine state
// still equals cp's.
func (h *specHost) Refresh(cp *checkpoint.Checkpoint) {
	h.standby = h.m.CloneForSpeculation()
	h.standbyCp = cp
}
